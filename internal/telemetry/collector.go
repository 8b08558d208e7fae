package telemetry

import (
	"github.com/amlight/intddos/internal/netsim"
)

// Collector is the INT collector: it terminates report datagrams,
// decodes them, classifies each against its source's sequence window
// (duplicate suppression, reorder tolerance, stale rejection, loss
// inference), and hands accepted reports to a subscriber. It
// corresponds to the "INT Collector" box in the paper's Figures 1
// and 2, hardened for the adverse WAN links the AmLight deployment
// actually crosses.
type Collector struct {
	eng *netsim.Engine

	// OnReport receives each accepted report with the collector-local
	// arrival time. This local timestamp is what gives the pipeline a
	// full-resolution clock — the paper notes INT itself carries only
	// 32-bit wrapped stamps with no day/hour component. Duplicate and
	// stale reports are suppressed before this callback.
	OnReport func(r *Report, at netsim.Time)

	// ReorderWindow is the per-source acceptance window: a report up
	// to this many sequence numbers behind its source's newest is
	// accepted out of order; older is stale (default 64).
	ReorderWindow int
	// MaxSources bounds the per-source tracking map; beyond it the
	// least-recently-active source is evicted (default 1024).
	MaxSources int

	// Stats. Sequence state is tracked per source (the sink switch
	// assigns sequence numbers per exporter), so interleaved
	// multi-agent streams do not inflate SeqGaps.
	Received     int
	DecodeErrors int
	SeqGaps      int // reports inferred lost from per-source sequence gaps
	Healed       int // inferred losses that later arrived reordered
	Duplicates   int // reports suppressed as duplicates
	Stale        int // reports rejected as older than the window
	Reordered    int // reports accepted out of order
	seqs         *SeqTracker
}

// NewCollector constructs a collector on eng.
func NewCollector(eng *netsim.Engine) *Collector {
	return &Collector{eng: eng}
}

// tracker lazily builds the per-source sequence tracker.
func (c *Collector) tracker() *SeqTracker {
	if c.seqs == nil {
		w := c.ReorderWindow
		if w <= 0 {
			w = 64
		}
		c.seqs = NewSeqTracker(w, c.MaxSources)
	}
	return c.seqs
}

// Receive implements netsim.Receiver: decode a report datagram and
// classify it against its source's sequence window.
func (c *Collector) Receive(p *netsim.Packet) {
	rep, err := DecodeReport(p.Payload)
	if err != nil {
		c.DecodeErrors++
		return
	}
	c.Received++
	if rep.Source == "" && p.Src.IsValid() {
		rep.Source = p.Src.String()
	}
	res := c.tracker().Observe(rep.SourceKey(), rep.Seq)
	if res.Gaps > 0 {
		c.SeqGaps += res.Gaps
	}
	switch res.Verdict {
	case SeqDuplicate:
		c.Duplicates++
		return
	case SeqStale:
		c.Stale++
		return
	case SeqReordered:
		c.Reordered++
		if res.Healed {
			c.Healed++
		}
	}
	// Re-attach simulation ground truth carried on the datagram.
	rep.Truth = Truth{Label: p.Label, AttackType: p.AttackType, SentAt: p.SentAt}
	p.DeliveredAt = c.eng.Now()
	if c.OnReport != nil {
		c.OnReport(rep, p.DeliveredAt)
	}
}
