package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Histogram is a fixed-bucket distribution summary tuned for hot-path
// latency recording: Observe is lock-free (one atomic add per bucket
// plus CAS loops for sum/min/max) and allocation-free, so it can sit
// on the prediction path without perturbing what it measures.
//
// Buckets are cumulative-upper-bound style (Prometheus classic): a
// value v lands in the first bucket whose bound is >= v; values above
// every bound land in an implicit +Inf overflow bucket. Quantiles are
// estimated by linear interpolation inside the covering bucket,
// clamped to the observed min/max.
type Histogram struct {
	name   string
	bounds []float64       // sorted upper bounds (seconds for latency use)
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket

	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits
	minBits atomic.Uint64 // float64 bits, +Inf until first Observe
	maxBits atomic.Uint64 // float64 bits, -Inf until first Observe
}

// LatencyBuckets returns the default latency bucket bounds: a 1-2.5-5
// decade ladder from 1µs to 60s (24 buckets), wide enough to cover
// both the sub-millisecond Go inference path and the multi-second
// backlog latencies of the paper's Table VI.
func LatencyBuckets() []float64 {
	// Bounds are spelled out as decimal literals: multiplying a base by
	// 2.5 yields floats like 2.4999999999999998e-06 whose rendering
	// pollutes the /metrics `le` labels.
	return []float64{
		1e-6, 2.5e-6, 5e-6,
		1e-5, 2.5e-5, 5e-5,
		1e-4, 2.5e-4, 5e-4,
		1e-3, 2.5e-3, 5e-3,
		1e-2, 2.5e-2, 5e-2,
		1e-1, 2.5e-1, 5e-1,
		1, 2.5, 5,
		10, 30, 60,
	}
}

// newHistogram builds a histogram with the given bucket upper bounds
// (copied and sorted; duplicates removed).
func newHistogram(name string, bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	dedup := bs[:0]
	for i, b := range bs {
		if i == 0 || b != bs[i-1] {
			dedup = append(dedup, b)
		}
	}
	h := &Histogram{
		name:   name,
		bounds: dedup,
		counts: make([]atomic.Uint64, len(dedup)+1),
	}
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// Observe records one value. Safe for concurrent use; nil-safe so
// uninstrumented call sites cost a single branch.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	addFloat(&h.sumBits, v)
	casFloat(&h.minBits, v, func(cur float64) bool { return v < cur })
	casFloat(&h.maxBits, v, func(cur float64) bool { return v > cur })
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Since records the elapsed wall time from start, in seconds.
func (h *Histogram) Since(start time.Time) { h.ObserveDuration(time.Since(start)) }

// addFloat atomically adds v to a float64 stored as bits.
func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// casFloat atomically replaces the stored float with v while better
// reports v should win against the current value.
func casFloat(bits *atomic.Uint64, v float64, better func(cur float64) bool) {
	for {
		old := bits.Load()
		if !better(math.Float64frombits(old)) {
			return
		}
		if bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	Name   string
	Bounds []float64 // upper bounds; Counts has one extra +Inf slot
	Counts []uint64
	Count  uint64
	Sum    float64
	Min    float64 // +Inf when empty
	Max    float64 // -Inf when empty
}

// Snapshot copies the histogram state. The per-bucket counts are read
// without a global lock, so under concurrent writes the snapshot is a
// consistent-enough view (bucket sums may trail Count by in-flight
// observations).
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Name:   h.name,
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]uint64, len(h.counts)),
		Sum:    math.Float64frombits(h.sumBits.Load()),
		Min:    math.Float64frombits(h.minBits.Load()),
		Max:    math.Float64frombits(h.maxBits.Load()),
	}
	var total uint64
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		total += c
	}
	s.Count = total
	return s
}

// Mean returns the average observation, or NaN when empty.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return math.NaN()
	}
	return s.Sum / float64(s.Count)
}

// Quantile estimates the q-quantile (0 < q <= 1) by linear
// interpolation within the covering bucket, clamped to the observed
// min/max so single-point distributions report exactly. Returns NaN
// when the histogram is empty.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q <= 0 {
		return s.Min
	}
	if q >= 1 {
		return s.Max
	}
	rank := q * float64(s.Count)
	var cum uint64
	lower := s.Min
	for i, c := range s.Counts {
		if c == 0 {
			if i < len(s.Bounds) && s.Bounds[i] > lower {
				lower = s.Bounds[i]
			}
			continue
		}
		if float64(cum+c) >= rank {
			upper := s.Max
			if i < len(s.Bounds) && s.Bounds[i] < upper {
				upper = s.Bounds[i]
			}
			if lower > upper {
				lower = upper
			}
			frac := (rank - float64(cum)) / float64(c)
			v := lower + (upper-lower)*frac
			if v < s.Min {
				v = s.Min
			}
			if v > s.Max {
				v = s.Max
			}
			return v
		}
		cum += c
		if i < len(s.Bounds) && s.Bounds[i] > lower {
			lower = s.Bounds[i]
		}
	}
	return s.Max
}

// HistogramVec is a family of histograms keyed by one label value
// (e.g. per attack type or per pipeline stage). Child lookup takes a
// mutex; cache the child when a call site is hot.
type HistogramVec struct {
	name   string
	label  string
	bounds []float64

	mu   sync.Mutex
	kids map[string]*Histogram
}

func newHistogramVec(name, label string, bounds []float64) *HistogramVec {
	return &HistogramVec{
		name:   name,
		label:  label,
		bounds: append([]float64(nil), bounds...),
		kids:   make(map[string]*Histogram),
	}
}

// With returns the child histogram for the label value, creating it
// on first use. Nil-safe: a nil vec returns a nil (no-op) histogram.
func (v *HistogramVec) With(value string) *Histogram {
	if v == nil {
		return nil
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	h, ok := v.kids[value]
	if !ok {
		h = newHistogram(v.name, v.bounds)
		v.kids[value] = h
	}
	return h
}

// Snapshots returns a snapshot per label value.
func (v *HistogramVec) Snapshots() map[string]HistogramSnapshot {
	if v == nil {
		return nil
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make(map[string]HistogramSnapshot, len(v.kids))
	for val, h := range v.kids {
		out[val] = h.Snapshot()
	}
	return out
}

// labelValues returns the sorted label values present.
func (v *HistogramVec) labelValues() []string {
	v.mu.Lock()
	defer v.mu.Unlock()
	vals := make([]string, 0, len(v.kids))
	for val := range v.kids {
		vals = append(vals, val)
	}
	sort.Strings(vals)
	return vals
}
