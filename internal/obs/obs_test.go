package obs

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCounterAndGauge(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters are monotone
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if reg.Counter("c_total") != c {
		t.Error("re-registration returned a different counter")
	}
	g := reg.Gauge("g")
	g.Set(2.5)
	if got := g.Value(); got != 2.5 {
		t.Errorf("gauge = %v, want 2.5", got)
	}
}

func TestNilSafety(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var cv *CounterVec
	var hv *HistogramVec
	c.Inc()
	c.Add(3)
	g.Set(1)
	h.Observe(1)
	h.Since(time.Now())
	cv.With("x").Inc()
	hv.With("x").Observe(1)
	if c.Value() != 0 || g.Value() != 0 {
		t.Error("nil instruments produced values")
	}
	if s := h.Snapshot(); s.Count != 0 {
		t.Error("nil histogram snapshot non-empty")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x")
	defer func() {
		if recover() == nil {
			t.Error("no panic on kind mismatch")
		}
	}()
	reg.Gauge("x")
}

func TestCounterVec(t *testing.T) {
	reg := NewRegistry()
	v := reg.CounterVec("decisions_total", "attack_type")
	v.With("synflood").Add(3)
	v.With("benign").Inc()
	v.With("synflood").Inc()
	vals := v.Values()
	if vals["synflood"] != 4 || vals["benign"] != 1 {
		t.Errorf("vec values = %v", vals)
	}
}

func TestHistogramPointMass(t *testing.T) {
	h := newHistogram("h", LatencyBuckets())
	for i := 0; i < 1000; i++ {
		h.Observe(0.0042)
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Min != 0.0042 || s.Max != 0.0042 {
		t.Errorf("min/max = %v/%v", s.Min, s.Max)
	}
	// Every quantile of a point mass is the point: min/max clamping
	// must make this exact despite the wide covering bucket.
	for _, q := range []float64{0.01, 0.5, 0.95, 0.99, 1} {
		if got := s.Quantile(q); got != 0.0042 {
			t.Errorf("q%.2f = %v, want 0.0042", q, got)
		}
	}
	if math.Abs(s.Mean()-0.0042) > 1e-12 {
		t.Errorf("mean = %v", s.Mean())
	}
}

func TestHistogramUniformQuantiles(t *testing.T) {
	// Fine uniform buckets over [0,1): interpolation should recover
	// the true quantiles of a uniform sample to within a bucket width.
	bounds := make([]float64, 100)
	for i := range bounds {
		bounds[i] = float64(i+1) / 100
	}
	h := newHistogram("u", bounds)
	rng := rand.New(rand.NewSource(7))
	const n = 200000
	for i := 0; i < n; i++ {
		h.Observe(rng.Float64())
	}
	s := h.Snapshot()
	for _, q := range []float64{0.10, 0.25, 0.50, 0.75, 0.90, 0.99} {
		got := s.Quantile(q)
		if math.Abs(got-q) > 0.015 {
			t.Errorf("uniform q%.2f = %v (err %v)", q, got, math.Abs(got-q))
		}
	}
}

func TestHistogramExponentialQuantiles(t *testing.T) {
	// Exponential(rate=1) against the latency ladder: quantile error
	// should stay within the covering bucket's width.
	h := newHistogram("e", LatencyBuckets())
	rng := rand.New(rand.NewSource(11))
	const n = 100000
	for i := 0; i < n; i++ {
		h.Observe(rng.ExpFloat64())
	}
	s := h.Snapshot()
	for _, q := range []float64{0.5, 0.9, 0.99} {
		want := -math.Log(1 - q) // true quantile of Exp(1)
		got := s.Quantile(q)
		// Tolerance: one bucket step on the 1-2.5-5 ladder is at most
		// 2.5x, so require the estimate within a factor of 2.5.
		if got < want/2.5 || got > want*2.5 {
			t.Errorf("exp q%.2f = %v, want ~%v", q, got, want)
		}
	}
	if s.Quantile(1) != s.Max {
		t.Errorf("q1 = %v, max = %v", s.Quantile(1), s.Max)
	}
}

func TestHistogramEmptyAndEdgeQuantiles(t *testing.T) {
	h := newHistogram("h", LatencyBuckets())
	if !math.IsNaN(h.Snapshot().Quantile(0.5)) {
		t.Error("empty quantile not NaN")
	}
	h.Observe(123) // beyond the last bound: overflow bucket
	s := h.Snapshot()
	if got := s.Quantile(0.5); got != 123 {
		t.Errorf("overflow-bucket median = %v, want 123 (clamped to max)", got)
	}
	if s.Counts[len(s.Counts)-1] != 1 {
		t.Error("observation not in +Inf bucket")
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := newHistogram("c", LatencyBuckets())
	var wg sync.WaitGroup
	const workers, per = 8, 10000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < per; i++ {
				h.Observe(rng.Float64())
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Errorf("count = %d, want %d", s.Count, workers*per)
	}
	var sumBuckets uint64
	for _, c := range s.Counts {
		sumBuckets += c
	}
	if sumBuckets != s.Count {
		t.Errorf("bucket sum %d != count %d", sumBuckets, s.Count)
	}
}

func TestHistogramVec(t *testing.T) {
	reg := NewRegistry()
	v := reg.HistogramVec("stage_seconds", "stage", nil)
	v.With("ingest").Observe(0.001)
	v.With("ingest").Observe(0.002)
	v.With("vote").Observe(0.1)
	snaps := v.Snapshots()
	if snaps["ingest"].Count != 2 || snaps["vote"].Count != 1 {
		t.Errorf("vec snapshots = %+v", snaps)
	}
}

func TestSnapshotIncludesVecChildren(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("plain_total").Add(2)
	reg.CounterVec("per_type_total", "attack_type").With("synflood").Add(7)
	reg.Gauge("depth").Set(3)
	reg.GaugeFunc("computed", func() float64 { return 9 })
	reg.CounterFunc("mirrored_total", func() float64 { return 11 })
	var owned atomic.Int64
	owned.Store(13)
	reg.CounterOf("owned_total", &owned)
	reg.Histogram("lat_seconds", nil).Observe(0.5)
	reg.HistogramVec("stage_seconds", "stage", nil).With("vote").Observe(0.25)

	s := reg.Snapshot()
	if s.Counters["plain_total"] != 2 {
		t.Error("plain counter missing")
	}
	if s.Counters[`per_type_total{attack_type="synflood"}`] != 7 {
		t.Errorf("vec child missing: %v", s.Counters)
	}
	if s.Gauges["depth"] != 3 || s.Gauges["computed"] != 9 {
		t.Errorf("gauges = %v", s.Gauges)
	}
	if s.Counters["mirrored_total"] != 11 {
		t.Error("counter func missing")
	}
	if s.Counters["owned_total"] != 13 {
		t.Error("counter-of missing")
	}
	if h, ok := s.Histograms["lat_seconds"]; !ok || h.Count != 1 {
		t.Error("histogram missing")
	}
	if h, ok := s.Histograms[`stage_seconds{stage="vote"}`]; !ok || h.Count != 1 {
		t.Error("histogram vec child missing")
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("b_total").Add(3)
	reg.CounterVec("a_total", "kind").With("x").Inc()
	reg.Gauge("depth").Set(4)
	var owned atomic.Int64
	owned.Store(1_000_000) // a float rendering would print 1e+06
	reg.CounterOf("c_total", &owned)
	h := reg.Histogram("lat_seconds", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var b strings.Builder
	reg.WritePrometheus(&b)
	out := b.String()

	for _, want := range []string{
		"# TYPE a_total counter\na_total{kind=\"x\"} 1\n",
		"# TYPE b_total counter\nb_total 3\n",
		"# TYPE c_total counter\nc_total 1000000\n",
		"# TYPE depth gauge\ndepth 4\n",
		"lat_seconds_bucket{le=\"0.1\"} 1\n",
		"lat_seconds_bucket{le=\"1\"} 2\n",
		"lat_seconds_bucket{le=\"+Inf\"} 3\n",
		"lat_seconds_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	// Families must come out sorted for scrape diff stability.
	if strings.Index(out, "a_total") > strings.Index(out, "b_total") {
		t.Error("families not sorted")
	}
}

func TestFormatLatencySummary(t *testing.T) {
	reg := NewRegistry()
	v := reg.HistogramVec("lat", "attack_type", nil)
	for i := 0; i < 100; i++ {
		v.With("synflood").Observe(0.010)
	}
	v.With("empty")
	out := FormatLatencySummary("LATENCY", v.Snapshots())
	if !strings.Contains(out, "synflood") || !strings.Contains(out, "0.0100") {
		t.Errorf("summary = %q", out)
	}
	if !strings.Contains(out, "empty") {
		t.Error("empty label row missing")
	}
}

func TestSnapshotFormatSummary(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("c_total").Add(2)
	reg.Histogram("h_seconds", nil).Observe(0.1)
	out := reg.Snapshot().FormatSummary()
	if !strings.Contains(out, "c_total") || !strings.Contains(out, "p99=") {
		t.Errorf("summary = %q", out)
	}
}

func TestGaugeVec(t *testing.T) {
	reg := NewRegistry()
	gv := reg.GaugeVec("shard_depth", "shard")
	gv.With("0").Set(3)
	gv.With("1").Set(7)
	depth := 11.0
	gv.WithFunc("2", func() float64 { return depth })
	gv.WithFunc("2", func() float64 { return -1 }) // first registration wins

	vals := gv.Values()
	if vals["0"] != 3 || vals["1"] != 7 || vals["2"] != 11 {
		t.Errorf("values = %v", vals)
	}
	if reg.GaugeVec("shard_depth", "shard") != gv {
		t.Error("re-registration returned a different vec")
	}

	snap := reg.Snapshot()
	if got := snap.Gauges[`shard_depth{shard="2"}`]; got != 11 {
		t.Errorf("snapshot child = %v, want 11", got)
	}

	var b strings.Builder
	reg.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE shard_depth gauge",
		`shard_depth{shard="0"} 3`,
		`shard_depth{shard="1"} 7`,
		`shard_depth{shard="2"} 11`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}

	var nilVec *GaugeVec
	nilVec.With("x").Set(1)
	nilVec.WithFunc("y", func() float64 { return 1 })
	if nilVec.Values() != nil {
		t.Error("nil vec produced values")
	}
}
