// Package obs is the repository's observability layer: a metrics
// registry (counters, gauges, fixed-bucket latency histograms,
// one-label vectors), a flow-journey sampler that follows one record
// hop by hop through the pipeline, a Prometheus-text/pprof HTTP
// handler, and a Snapshot API for end-of-run summaries. Of the
// pipeline it imports only flow, for the key a journey record keeps.
//
// The paper reports its real-time behaviour post hoc (Table VI:
// average/max prediction time, per-attack misclassification counts);
// obs makes the same quantities continuously readable from the live
// pipeline. Hot-path primitives are lock-free (atomics only) and all
// instrument types are nil-safe, so an uninstrumented component pays
// one branch per event.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. Nil-safe.
type Counter struct {
	name string
	v    atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by n (negative deltas are ignored to
// keep the counter monotone).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable instantaneous value. Nil-safe.
type Gauge struct {
	name string
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(floatBits(v))
}

// Value returns the stored value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return floatFromBits(g.bits.Load())
}

// GaugeVec is a family of gauges keyed by one label value. Children
// are either settable (With) or computed on read (WithFunc) — the
// latter suits values owned elsewhere, like per-shard journal depths.
type GaugeVec struct {
	name  string
	label string

	mu   sync.Mutex
	kids map[string]*Gauge
	fns  map[string]func() float64
}

// With returns the settable child gauge for the label value, creating
// it on first use. Nil-safe: a nil vec returns a nil (no-op) gauge.
func (v *GaugeVec) With(value string) *Gauge {
	if v == nil {
		return nil
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	g, ok := v.kids[value]
	if !ok {
		g = &Gauge{name: v.name}
		v.kids[value] = g
	}
	return g
}

// WithFunc exposes a computed child under the label value. The first
// registration for a value wins; later ones are ignored. Nil-safe.
func (v *GaugeVec) WithFunc(value string, fn func() float64) {
	if v == nil {
		return
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if _, ok := v.fns[value]; !ok {
		v.fns[value] = fn
	}
}

// Values returns the current per-label values, settable and computed
// children merged (computed wins on a value collision).
func (v *GaugeVec) Values() map[string]float64 {
	if v == nil {
		return nil
	}
	v.mu.Lock()
	kids := make(map[string]*Gauge, len(v.kids))
	for val, g := range v.kids {
		kids[val] = g
	}
	fns := make(map[string]func() float64, len(v.fns))
	for val, fn := range v.fns {
		fns[val] = fn
	}
	v.mu.Unlock()
	// Callbacks run outside the vec lock: they may read pipeline state
	// whose owners also register children during scrapes.
	out := make(map[string]float64, len(kids)+len(fns))
	for val, g := range kids {
		out[val] = g.Value()
	}
	for val, fn := range fns {
		out[val] = fn()
	}
	return out
}

func (v *GaugeVec) labelValues() []string {
	v.mu.Lock()
	defer v.mu.Unlock()
	vals := make([]string, 0, len(v.kids)+len(v.fns))
	for val := range v.kids {
		vals = append(vals, val)
	}
	for val := range v.fns {
		if _, dup := v.kids[val]; !dup {
			vals = append(vals, val)
		}
	}
	sort.Strings(vals)
	return vals
}

// value reads one child by label value (computed children win).
func (v *GaugeVec) value(val string) float64 {
	v.mu.Lock()
	fn := v.fns[val]
	g := v.kids[val]
	v.mu.Unlock()
	if fn != nil {
		return fn()
	}
	return g.Value()
}

// CounterVec is a family of counters keyed by one label value.
type CounterVec struct {
	name  string
	label string

	mu   sync.Mutex
	kids map[string]*Counter
}

// With returns the child counter for the label value, creating it on
// first use. Nil-safe: a nil vec returns a nil (no-op) counter.
func (v *CounterVec) With(value string) *Counter {
	if v == nil {
		return nil
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.kids[value]
	if !ok {
		c = &Counter{name: v.name}
		v.kids[value] = c
	}
	return c
}

// Values returns the current per-label counts.
func (v *CounterVec) Values() map[string]int64 {
	if v == nil {
		return nil
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make(map[string]int64, len(v.kids))
	for val, c := range v.kids {
		out[val] = c.Value()
	}
	return out
}

func (v *CounterVec) labelValues() []string {
	v.mu.Lock()
	defer v.mu.Unlock()
	vals := make([]string, 0, len(v.kids))
	for val := range v.kids {
		vals = append(vals, val)
	}
	sort.Strings(vals)
	return vals
}

// Registry names and owns a set of metrics. Registration is
// idempotent: asking for an existing name returns the existing
// instrument (kind mismatches panic — they are programming errors).
// A registry is scoped to one pipeline instance; sharing one between
// two pipelines merges their Counter counts and shows only the first
// pipeline's CounterOf series.
type Registry struct {
	mu          sync.Mutex
	counters    map[string]*Counter
	counterOfs  map[string]*atomic.Int64
	counterFns  map[string]func() float64
	gauges      map[string]*Gauge
	gaugeFns    map[string]func() float64
	gaugeVecs   map[string]*GaugeVec
	counterVecs map[string]*CounterVec
	hists       map[string]*Histogram
	histVecs    map[string]*HistogramVec
	kinds       map[string]string
	healthFn    func() Health

	// Diagnostic surfaces (see events.go, journey.go, bundle.go,
	// and internal/obs/prof for the attribution producer).
	events   *EventLog
	journeys *Journeys
	attribFn func(topN int) string
	bundle   []bundleEntry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:    make(map[string]*Counter),
		counterOfs:  make(map[string]*atomic.Int64),
		counterFns:  make(map[string]func() float64),
		gauges:      make(map[string]*Gauge),
		gaugeFns:    make(map[string]func() float64),
		gaugeVecs:   make(map[string]*GaugeVec),
		counterVecs: make(map[string]*CounterVec),
		hists:       make(map[string]*Histogram),
		histVecs:    make(map[string]*HistogramVec),
		kinds:       make(map[string]string),
	}
}

// claim records name as kind, panicking on cross-kind reuse.
func (r *Registry) claim(name, kind string) bool {
	if prev, ok := r.kinds[name]; ok {
		if prev != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, kind, prev))
		}
		return false
	}
	r.kinds[name] = kind
	return true
}

// Counter registers (or fetches) a counter.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.claim(name, "counter") {
		r.counters[name] = &Counter{name: name}
	}
	return r.counters[name]
}

// CounterOf exposes an atomic its owner already increments as the
// counter name, read on scrape and rendered as an integer — one source
// per fact, no mirror to keep in step. The first registration wins;
// later ones are ignored.
func (r *Registry) CounterOf(name string, v *atomic.Int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.claim(name, "counterof") {
		r.counterOfs[name] = v
	}
}

// CounterFunc exposes an externally maintained monotone value that is
// not an atomic of the caller's own (a runtime/metrics reading, a
// collector's count) under name. The first registration wins; later
// ones are ignored.
func (r *Registry) CounterFunc(name string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.claim(name, "counterfunc") {
		r.counterFns[name] = fn
	}
}

// Gauge registers (or fetches) a settable gauge.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.claim(name, "gauge") {
		r.gauges[name] = &Gauge{name: name}
	}
	return r.gauges[name]
}

// GaugeFunc exposes a computed instantaneous value under name (for
// example a channel depth). The callback runs on the scrape/snapshot
// goroutine and must be safe to call concurrently with the pipeline.
// The first registration wins; later ones are ignored.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.claim(name, "gaugefunc") {
		r.gaugeFns[name] = fn
	}
}

// GaugeVec registers (or fetches) a one-label gauge family.
func (r *Registry) GaugeVec(name, label string) *GaugeVec {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.claim(name, "gaugevec") {
		r.gaugeVecs[name] = &GaugeVec{
			name: name, label: label,
			kids: make(map[string]*Gauge),
			fns:  make(map[string]func() float64),
		}
	}
	return r.gaugeVecs[name]
}

// CounterVec registers (or fetches) a one-label counter family.
func (r *Registry) CounterVec(name, label string) *CounterVec {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.claim(name, "countervec") {
		r.counterVecs[name] = &CounterVec{name: name, label: label, kids: make(map[string]*Counter)}
	}
	return r.counterVecs[name]
}

// Histogram registers (or fetches) a histogram with the given bucket
// upper bounds (nil selects LatencyBuckets).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.claim(name, "histogram") {
		if bounds == nil {
			bounds = LatencyBuckets()
		}
		r.hists[name] = newHistogram(name, bounds)
	}
	return r.hists[name]
}

// HistogramVec registers (or fetches) a one-label histogram family.
func (r *Registry) HistogramVec(name, label string, bounds []float64) *HistogramVec {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.claim(name, "histogramvec") {
		if bounds == nil {
			bounds = LatencyBuckets()
		}
		r.histVecs[name] = newHistogramVec(name, label, bounds)
	}
	return r.histVecs[name]
}

func floatBits(v float64) uint64 { return math.Float64bits(v) }

func floatFromBits(b uint64) float64 { return math.Float64frombits(b) }
