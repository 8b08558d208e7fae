package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Snapshot is a point-in-time copy of every metric in a registry.
// Vector children appear under `name{label="value"}` keys next to the
// scalar metrics, so a snapshot is a flat, serializable view.
type Snapshot struct {
	Counters   map[string]int64
	Gauges     map[string]float64
	Histograms map[string]HistogramSnapshot
}

// Snapshot captures the registry. Gauge callbacks run on the calling
// goroutine.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, v := range r.counterOfs {
		s.Counters[name] = v.Load()
	}
	for name, fn := range r.counterFns {
		s.Counters[name] = int64(fn())
	}
	for name, v := range r.counterVecs {
		for val, n := range v.Values() {
			s.Counters[childKey(name, v.label, val)] = n
		}
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, fn := range r.gaugeFns {
		s.Gauges[name] = fn()
	}
	for name, v := range r.gaugeVecs {
		for val, g := range v.Values() {
			s.Gauges[childKey(name, v.label, val)] = g
		}
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	for name, v := range r.histVecs {
		for val, hs := range v.Snapshots() {
			s.Histograms[childKey(name, v.label, val)] = hs
		}
	}
	return s
}

func childKey(name, label, value string) string {
	return fmt.Sprintf("%s{%s=%q}", name, label, value)
}

// WritePrometheus renders every metric in the Prometheus text
// exposition format (families sorted by name; label values sorted).
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	type family struct {
		name string
		emit func(io.Writer)
	}
	var fams []family
	for name, c := range r.counters {
		c := c
		fams = append(fams, family{name, func(w io.Writer) {
			fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", c.name, c.name, c.Value())
		}})
	}
	for name, v := range r.counterOfs {
		name, v := name, v
		fams = append(fams, family{name, func(w io.Writer) {
			fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, v.Load())
		}})
	}
	for name, fn := range r.counterFns {
		name, fn := name, fn
		fams = append(fams, family{name, func(w io.Writer) {
			fmt.Fprintf(w, "# TYPE %s counter\n%s %s\n", name, name, formatFloat(fn()))
		}})
	}
	for name, v := range r.counterVecs {
		v := v
		fams = append(fams, family{name, func(w io.Writer) {
			fmt.Fprintf(w, "# TYPE %s counter\n", v.name)
			for _, val := range v.labelValues() {
				fmt.Fprintf(w, "%s{%s=%q} %d\n", v.name, v.label, val, v.With(val).Value())
			}
		}})
	}
	for name, g := range r.gauges {
		g := g
		fams = append(fams, family{name, func(w io.Writer) {
			fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", g.name, g.name, formatFloat(g.Value()))
		}})
	}
	for name, fn := range r.gaugeFns {
		name, fn := name, fn
		fams = append(fams, family{name, func(w io.Writer) {
			fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", name, name, formatFloat(fn()))
		}})
	}
	for name, v := range r.gaugeVecs {
		v := v
		fams = append(fams, family{name, func(w io.Writer) {
			fmt.Fprintf(w, "# TYPE %s gauge\n", v.name)
			for _, val := range v.labelValues() {
				fmt.Fprintf(w, "%s{%s=%q} %s\n", v.name, v.label, val, formatFloat(v.value(val)))
			}
		}})
	}
	for name, h := range r.hists {
		h := h
		fams = append(fams, family{name, func(w io.Writer) {
			writePromHistogram(w, h.name, "", "", h.Snapshot())
		}})
	}
	for name, v := range r.histVecs {
		v := v
		fams = append(fams, family{name, func(w io.Writer) {
			fmt.Fprintf(w, "# TYPE %s histogram\n", v.name)
			for _, val := range v.labelValues() {
				writePromHistogramBody(w, v.name, v.label, val, v.With(val).Snapshot())
			}
		}})
	}
	r.mu.Unlock()

	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	for _, f := range fams {
		f.emit(w)
	}
}

func writePromHistogram(w io.Writer, name, label, value string, s HistogramSnapshot) {
	fmt.Fprintf(w, "# TYPE %s histogram\n", name)
	writePromHistogramBody(w, name, label, value, s)
}

func writePromHistogramBody(w io.Writer, name, label, value string, s HistogramSnapshot) {
	extra := ""
	if label != "" {
		extra = fmt.Sprintf("%s=%q,", label, value)
	}
	var cum uint64
	for i, bound := range s.Bounds {
		cum += s.Counts[i]
		fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", name, extra, formatFloat(bound), cum)
	}
	cum += s.Counts[len(s.Bounds)]
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, extra, cum)
	sel := ""
	if label != "" {
		sel = fmt.Sprintf("{%s=%q}", label, value)
	}
	fmt.Fprintf(w, "%s_sum%s %s\n", name, sel, formatFloat(s.Sum))
	fmt.Fprintf(w, "%s_count%s %d\n", name, sel, s.Count)
}

// formatFloat renders a metric value the way Prometheus expects.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// FormatLatencySummary renders a Table-VI-style percentile table from
// per-label histogram snapshots (label rows sorted by name; values in
// seconds).
func FormatLatencySummary(title string, byLabel map[string]HistogramSnapshot) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-12s %8s %12s %12s %12s %12s %12s\n",
		"Type", "Count", "p50(s)", "p95(s)", "p99(s)", "Max(s)", "Mean(s)")
	names := make([]string, 0, len(byLabel))
	for name := range byLabel {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := byLabel[name]
		if s.Count == 0 {
			fmt.Fprintf(&b, "%-12s %8d %12s %12s %12s %12s %12s\n",
				name, 0, "-", "-", "-", "-", "-")
			continue
		}
		fmt.Fprintf(&b, "%-12s %8d %12.4f %12.4f %12.4f %12.4f %12.4f\n",
			name, s.Count, s.Quantile(0.50), s.Quantile(0.95), s.Quantile(0.99), s.Max, s.Mean())
	}
	return b.String()
}

// FormatSummary renders a snapshot as a compact human-readable block:
// counters and gauges first (sorted), then one percentile line per
// histogram.
func (s Snapshot) FormatSummary() string {
	var b strings.Builder
	names := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "%-48s %d\n", name, s.Counters[name])
	}
	names = names[:0]
	for name := range s.Gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "%-48s %s\n", name, formatFloat(s.Gauges[name]))
	}
	names = names[:0]
	for name := range s.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := s.Histograms[name]
		if h.Count == 0 {
			fmt.Fprintf(&b, "%-48s empty\n", name)
			continue
		}
		fmt.Fprintf(&b, "%-48s count=%d p50=%.6fs p95=%.6fs p99=%.6fs max=%.6fs\n",
			name, h.Count, h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99), h.Max)
	}
	return b.String()
}
