// Package flow implements the paper's Data Processor: 5-tuple flow
// identification, per-flow running statistics, and the packet- and
// flow-level feature vectors of Table II that feed the ML models.
//
// A flow record keeps one row per Flow ID, updated in place as new
// packets arrive — packet-level fields are replaced by the newest
// packet while flow-level aggregates accumulate, exactly the record
// semantics Section III-2 describes.
package flow

import "math"

// Stats accumulates a streaming series with Welford's online
// algorithm: last value, sum, mean, and standard deviation in O(1)
// per update with no stored history.
type Stats struct {
	n    int
	last float64
	sum  float64
	mean float64
	m2   float64
}

// Add folds x into the series.
func (s *Stats) Add(x float64) {
	s.n++
	s.last = x
	s.sum += x
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
}

// Last returns the most recent observation, or 0 before any.
func (s *Stats) Last() float64 { return s.last }

// Sum returns the cumulative total.
func (s *Stats) Sum() float64 { return s.sum }

// Mean returns the running mean, or 0 before any observation.
func (s *Stats) Mean() float64 { return s.mean }

// StatsSnapshot is the exported, serializable view of a Stats
// accumulator — every term of Welford's recurrence, so a restored
// series continues bit-identically from where the original left off.
type StatsSnapshot struct {
	N    int
	Last float64
	Sum  float64
	Mean float64
	M2   float64
}

// Snapshot exports the accumulator's full state.
func (s *Stats) Snapshot() StatsSnapshot {
	return StatsSnapshot{N: s.n, Last: s.last, Sum: s.sum, Mean: s.mean, M2: s.m2}
}

// RestoreStats rebuilds an accumulator from a snapshot.
func RestoreStats(sn StatsSnapshot) Stats {
	return Stats{n: sn.N, last: sn.Last, sum: sn.Sum, mean: sn.Mean, m2: sn.M2}
}

// Var returns the population variance, or 0 with fewer than two
// observations.
func (s *Stats) Var() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n)
}

// Std returns the population standard deviation.
func (s *Stats) Std() float64 { return math.Sqrt(s.Var()) }
