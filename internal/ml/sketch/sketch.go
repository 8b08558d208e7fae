// Package sketch provides the streaming triage sketches for tiered
// inference: a count-min heavy-hitter sketch plus a bucketed flow-key
// entropy estimate, maintained over the ingest stream. AMON (see
// PAPERS.md) uses exactly this pair to triage multi-gigabit streams —
// volumetric attacks show up either as a single key dominating the
// stream (heavy hitter) or as the key distribution collapsing
// (entropy drop) — so the expensive model ensemble only has to score
// flows the sketches cannot clear.
//
// Concurrency contract: one writer per Sketch (the shard's ingester
// goroutine, which updates under the shard's checkpoint-barrier read
// lock), any number of concurrent readers (prediction workers). All
// counters are atomics, so readers see a consistent-enough view
// without locks; estimates are monotone upper bounds regardless of
// interleaving. Because updates only happen under the shard barrier,
// the sketch is quiescent whenever a checkpoint capture holds the
// write locks — capture-consistent by construction. Sketch state is
// deliberately not persisted in snapshots: it is a lossy cache over
// the recent stream and is rewarmed from live traffic after restore.
package sketch

import (
	"math"
	"sync/atomic"
)

const (
	// DefaultDepth and DefaultWidth size the count-min matrix. With
	// depth 4 and width 2048 the overestimate bias is ~2e/2048 of the
	// stream per row minimum — far below the heavy-hitter fractions
	// that matter for triage — at 64 KiB per shard.
	DefaultDepth = 4
	DefaultWidth = 2048

	// entropyBuckets is the number of hash buckets backing the
	// entropy estimate. 256 buckets bound the normalized entropy
	// resolution at log2(256) = 8 bits, plenty to see a volumetric
	// collapse.
	entropyBuckets = 256
)

// Sketch is a count-min heavy-hitter sketch combined with a bucketed
// flow-key entropy estimate. The zero value is not usable; call New.
type Sketch struct {
	depth    int
	width    int
	counters []atomic.Uint64 // depth rows of width counters
	buckets  []atomic.Uint64 // entropyBuckets counts
	total    atomic.Uint64
}

// New returns a sketch with the given count-min dimensions.
// Non-positive values fall back to the defaults.
func New(depth, width int) *Sketch {
	if depth <= 0 {
		depth = DefaultDepth
	}
	if width <= 0 {
		width = DefaultWidth
	}
	return &Sketch{
		depth:    depth,
		width:    width,
		counters: make([]atomic.Uint64, depth*width),
		buckets:  make([]atomic.Uint64, entropyBuckets),
	}
}

// mix is the splitmix64 finalizer — a fast, well-distributed bijection
// used to derive per-row count-min indices and the entropy bucket from
// one flow-key hash.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// rowSeed perturbs the key hash per count-min row so the rows index
// independently. The constant is the golden-ratio gamma splitmix64
// itself uses.
func rowSeed(r int) uint64 { return 0x9e3779b97f4a7c15 * uint64(r+1) }

// Update records one observation of the flow-key hash h.
func (s *Sketch) Update(h uint64) {
	for r := 0; r < s.depth; r++ {
		idx := mix(h^rowSeed(r)) % uint64(s.width)
		s.counters[r*s.width+int(idx)].Add(1)
	}
	s.buckets[mix(h)&(entropyBuckets-1)].Add(1)
	s.total.Add(1)
}

// Estimate returns the count-min estimate for h: the minimum over the
// rows, an upper bound on the true observation count.
func (s *Sketch) Estimate(h uint64) uint64 {
	est := uint64(math.MaxUint64)
	for r := 0; r < s.depth; r++ {
		idx := mix(h^rowSeed(r)) % uint64(s.width)
		if c := s.counters[r*s.width+int(idx)].Load(); c < est {
			est = c
		}
	}
	return est
}

// HeavyHitter reports whether h accounts for at least frac of the
// stream. Streams shorter than minSample updates never flag — the
// sketch has not seen enough traffic to call anything heavy.
func (s *Sketch) HeavyHitter(h uint64, frac float64, minSample uint64) bool {
	total := s.total.Load()
	if total < minSample || total == 0 {
		return false
	}
	return float64(s.Estimate(h)) >= frac*float64(total)
}

// Entropy returns the normalized Shannon entropy of the flow-key
// bucket distribution in [0, 1]: 1 means keys spread uniformly, 0
// means one bucket holds the whole stream. An empty sketch returns 1
// (nothing observed, nothing suspicious).
func (s *Sketch) Entropy() float64 {
	var n float64
	var counts [entropyBuckets]float64
	for i := range s.buckets {
		c := float64(s.buckets[i].Load())
		counts[i] = c
		n += c
	}
	if n == 0 {
		return 1
	}
	var ent float64
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := c / n
		ent -= p * math.Log2(p)
	}
	norm := ent / math.Log2(entropyBuckets)
	if norm > 1 {
		norm = 1
	}
	return norm
}

// Occupancy returns the fraction of non-zero count-min counters in
// [0, 1] — the saturation gauge exported per shard.
func (s *Sketch) Occupancy() float64 {
	nz := 0
	for i := range s.counters {
		if s.counters[i].Load() != 0 {
			nz++
		}
	}
	return float64(nz) / float64(len(s.counters))
}

// Suspicious is the stage-0 triage verdict for flow-key hash h: true
// when h is a heavy hitter (≥ hhFrac of a stream at least minSample
// long) or the stream's key entropy has collapsed below entropyFloor.
// A suspicious flow must never be early-exited as benign — it falls
// through to the full ensemble.
func (s *Sketch) Suspicious(h uint64, hhFrac, entropyFloor float64, minSample uint64) bool {
	if s.total.Load() < minSample {
		return false
	}
	if s.HeavyHitter(h, hhFrac, minSample) {
		return true
	}
	return s.Entropy() < entropyFloor
}
