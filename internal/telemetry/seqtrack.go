package telemetry

import (
	"strings"
	"sync"
)

// SeqVerdict classifies one report against its source's sequence
// window.
type SeqVerdict uint8

const (
	// SeqAccept: in-order (or first-of-source) report; deliver.
	SeqAccept SeqVerdict = iota
	// SeqReordered: late but within the acceptance window and not
	// seen before; deliver. The pipeline tolerates reordering up to
	// the window size.
	SeqReordered
	// SeqDuplicate: already delivered (same source and sequence);
	// suppress so one report never becomes two decisions.
	SeqDuplicate
	// SeqStale: older than the acceptance window; reject. Its loss
	// was already inferred when the window moved past it, and
	// admitting it now would reorder the flow's history arbitrarily.
	SeqStale
)

// String names the verdict.
func (v SeqVerdict) String() string {
	switch v {
	case SeqAccept:
		return "accept"
	case SeqReordered:
		return "reordered"
	case SeqDuplicate:
		return "duplicate"
	case SeqStale:
		return "stale"
	default:
		return "unknown"
	}
}

// SeqResult is one Observe outcome: the verdict plus the gap
// accounting delta it implies.
type SeqResult struct {
	Verdict SeqVerdict
	// Gaps is how many sequence numbers were newly inferred lost
	// (counted eagerly when the window head advances past them; a
	// later reordered arrival heals the inference).
	Gaps int
	// Healed reports that a previously inferred loss arrived after
	// all: honest losses so far are gaps_total - healed_total.
	Healed bool
}

// SeqTracker classifies report sequence numbers per source: exactly
// one acceptance per (source, seq), reorder tolerance up to a window,
// stale rejection beyond it, and eager loss inference with healing.
// Sources live in a bounded map with least-recently-active eviction,
// so an address-spoofing flood cannot grow tracker state without
// bound. Safe for concurrent use.
//
// A forward jump larger than several windows is treated as a stream
// reset (an agent restart re-zeroes its sequence counter, and a
// restarted capture replays from one): the source's window is
// re-seeded without inferring millions of losses.
type SeqTracker struct {
	mu         sync.Mutex
	window     uint64
	maxSources int
	resetJump  uint64
	clock      uint64
	sources    map[SourceKey]*seqSource

	resets    int
	evictions int
}

// seqSource is one source's window state: the highest sequence
// accepted and a ring bitmap of seen-flags for the window below it.
type seqSource struct {
	highest uint64
	base    uint64 // first sequence observed; below it, no gap was counted
	bits    []uint64
	touched uint64 // tracker clock at last observation (eviction order)
}

func (s *seqSource) idx(seq, window uint64) (word int, mask uint64) {
	i := seq % window
	return int(i >> 6), 1 << (i & 63)
}

func (s *seqSource) seen(seq, window uint64) bool {
	w, m := s.idx(seq, window)
	return s.bits[w]&m != 0
}

func (s *seqSource) set(seq, window uint64) {
	w, m := s.idx(seq, window)
	s.bits[w] |= m
}

func (s *seqSource) clear(seq, window uint64) {
	w, m := s.idx(seq, window)
	s.bits[w] &^= m
}

// NewSeqTracker builds a tracker with the given acceptance window
// (reports older than window behind a source's highest sequence are
// stale) and source bound (≤ 0 selects 1024).
func NewSeqTracker(window, maxSources int) *SeqTracker {
	if window < 1 {
		window = 1
	}
	if maxSources <= 0 {
		maxSources = 1024
	}
	w := uint64(window)
	reset := 4 * w
	if reset < 256 {
		reset = 256
	}
	return &SeqTracker{
		window:     w,
		maxSources: maxSources,
		resetJump:  reset,
		sources:    make(map[SourceKey]*seqSource),
	}
}

// Observe classifies one (source, sequence) observation.
func (t *SeqTracker) Observe(src SourceKey, seq uint64) SeqResult {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.clock++
	s, ok := t.sources[src]
	if !ok {
		s = t.admit(src)
		s.highest, s.base = seq, seq
		s.set(seq, t.window)
		s.touched = t.clock
		return SeqResult{Verdict: SeqAccept}
	}
	s.touched = t.clock
	switch {
	case seq == s.highest:
		return SeqResult{Verdict: SeqDuplicate}
	case seq > s.highest:
		d := seq - s.highest
		if d >= t.resetJump {
			// Stream reset: re-seed rather than infer d-1 losses.
			t.resets++
			for i := range s.bits {
				s.bits[i] = 0
			}
			s.highest, s.base = seq, seq
			s.set(seq, t.window)
			return SeqResult{Verdict: SeqAccept}
		}
		// The sequences in (highest, seq) are provisionally lost;
		// their window slots open as unseen so a reordered arrival
		// can still heal them.
		if d >= t.window {
			for i := range s.bits {
				s.bits[i] = 0
			}
		} else {
			for x := s.highest + 1; x < seq; x++ {
				s.clear(x, t.window)
			}
		}
		s.highest = seq
		s.set(seq, t.window)
		return SeqResult{Verdict: SeqAccept, Gaps: int(d - 1)}
	default:
		d := s.highest - seq
		if d >= t.window {
			return SeqResult{Verdict: SeqStale}
		}
		if s.seen(seq, t.window) {
			return SeqResult{Verdict: SeqDuplicate}
		}
		s.set(seq, t.window)
		// Heal only if this sequence's loss was counted (it lies
		// above the source's first observation).
		return SeqResult{Verdict: SeqReordered, Healed: seq > s.base}
	}
}

// admit returns a fresh source slot, evicting the least-recently
// active source when the bound is reached. The tracker keys it by a
// clone of src's transport: it never keeps its caller's string (a
// report's Source, say), so the report it came from is free to die
// with its caller.
func (t *SeqTracker) admit(src SourceKey) *seqSource {
	if len(t.sources) >= t.maxSources {
		var coldest SourceKey
		var min uint64
		first := true
		for name, s := range t.sources {
			if first || s.touched < min {
				coldest, min, first = name, s.touched, false
			}
		}
		delete(t.sources, coldest)
		t.evictions++
	}
	s := &seqSource{bits: make([]uint64, (t.window+63)>>6)}
	t.sources[SourceKey{Switch: src.Switch, BySwitch: src.BySwitch, Transport: strings.Clone(src.Transport)}] = s
	return s
}
