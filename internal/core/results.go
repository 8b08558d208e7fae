package core

import (
	"sort"

	"github.com/amlight/intddos/internal/netsim"
)

// TypeResult is one Table VI row: per-attack-type decision accuracy
// and prediction-time statistics.
type TypeResult struct {
	Type          string
	Total         int
	Misclassified int
	Accuracy      float64
	AvgLatency    netsim.Time
	MaxLatency    netsim.Time
	P99Latency    netsim.Time
}

// SummarizeByType groups decisions by generating workload and
// computes the Table VI statistics. Types come back sorted by name
// for stable output.
func SummarizeByType(ds []Decision) []TypeResult {
	byType := make(map[string][]Decision)
	for _, d := range ds {
		byType[d.AttackType] = append(byType[d.AttackType], d)
	}
	names := make([]string, 0, len(byType))
	for name := range byType {
		names = append(names, name)
	}
	sort.Strings(names)

	out := make([]TypeResult, 0, len(names))
	for _, name := range names {
		group := byType[name]
		r := TypeResult{Type: name, Total: len(group)}
		lats := make([]netsim.Time, 0, len(group))
		var sum netsim.Time
		for _, d := range group {
			if !d.Correct() {
				r.Misclassified++
			}
			lats = append(lats, d.Latency)
			sum += d.Latency
			if d.Latency > r.MaxLatency {
				r.MaxLatency = d.Latency
			}
		}
		r.Accuracy = float64(r.Total-r.Misclassified) / float64(r.Total)
		r.AvgLatency = sum / netsim.Time(len(group))
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		r.P99Latency = lats[(len(lats)*99)/100]
		out = append(out, r)
	}
	return out
}
