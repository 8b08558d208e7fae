package core

import (
	"net/netip"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/amlight/intddos/internal/fault"
	"github.com/amlight/intddos/internal/netsim"
	"github.com/amlight/intddos/internal/obs"
	"github.com/amlight/intddos/internal/telemetry"
)

func TestLiveStopTwice(t *testing.T) {
	l := startLive(t, liveConfig(attackDetector()))
	l.Ingest(liveObs(1, 40, true, "synscan"))
	l.Stop()
	l.Stop() // second call must not panic on a closed quit channel
}

func TestLiveConcurrentStop(t *testing.T) {
	l := startLive(t, liveConfig(attackDetector()))
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); l.Stop() }()
	}
	wg.Wait()
}

// TestLiveConcurrentReportsAndDecisions hammers HandleReport, Ingest,
// and Decisions from many goroutines at once; run under -race this is
// the pipeline's concurrency contract test.
func TestLiveConcurrentReportsAndDecisions(t *testing.T) {
	l := startLive(t, liveConfig(attackDetector()))
	defer l.Stop()

	const writers, readers, per = 4, 2, 100
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = l.Decisions()
					_ = l.MetricsSnapshot()
				}
			}
		}()
	}
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if i%2 == 0 {
					l.Ingest(liveObs(uint16(2000+g), 1000, false, "benign"))
				} else {
					rep := &telemetry.Report{
						Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("10.0.0.2"),
						SrcPort: uint16(3000 + g), DstPort: 80, Proto: netsim.TCP, Length: 40,
						Hops:  []telemetry.HopMetadata{{QueueDepth: 1, IngressTS: 10, EgressTS: 20}},
						Truth: telemetry.Truth{Label: true, AttackType: "synscan"},
					}
					l.HandleReport(rep)
				}
			}
		}(g)
	}
	// Wait for the writers, then let readers overlap the drain.
	done := make(chan struct{})
	go func() {
		defer close(done)
		wg.Wait()
	}()
	want := writers * per
	if !waitFor(t, 10*time.Second, func() bool { return len(l.Decisions()) >= want }) {
		close(stop)
		<-done
		t.Fatalf("decisions = %d, want >= %d", len(l.Decisions()), want)
	}
	close(stop)
	<-done
}

func TestLiveWindowEviction(t *testing.T) {
	cfg := liveConfig(attackDetector())
	cfg.FlowIdleTimeout = 50 * time.Millisecond
	cfg.SweepInterval = 10 * time.Millisecond
	l := startLive(t, cfg)
	defer l.Stop()

	for i := 0; i < 8; i++ {
		l.Ingest(liveObs(uint16(100+i), 40, true, "synflood"))
	}
	if !waitFor(t, 2*time.Second, func() bool { return len(l.Decisions()) == 8 }) {
		t.Fatalf("decisions = %d, want 8", len(l.Decisions()))
	}
	if l.windowedFlows() != 8 {
		t.Fatalf("%d of 8 flow records hold a vote window", l.windowedFlows())
	}
	// Idle past the TTL: the records go, and their windows with them.
	if !waitFor(t, 3*time.Second, func() bool { return l.tables.Len() == 0 }) {
		t.Fatalf("not evicted: table=%d", l.tables.Len())
	}
	if l.Evictions.Load() == 0 {
		t.Error("eviction atomic not incremented")
	}
	snap := l.MetricsSnapshot()
	if snap.Counters["intddos_evictions_total"] == 0 {
		t.Error("intddos_evictions_total not incremented")
	}
}

// TestLiveMetricsMirrorPipeline pins the registry to the pipeline. Each
// public atomic is the /metrics series of its name, integer for
// integer, with no mirror in between: a write to the atomic is what
// the next scrape prints. A journey followed 1-in-1 carries all six
// hops with non-negative gaps — the four stages the stage histograms
// time, between ingest and vote.
func TestLiveMetricsMirrorPipeline(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := liveConfig(attackDetector())
	cfg.Registry = reg
	cfg.DedupWindow = 4
	cfg.CheckpointDir = t.TempDir()
	cfg.FlowIdleTimeout, cfg.SweepInterval = 50*time.Millisecond, 10*time.Millisecond
	cfg.Fault = fault.New(fault.Spec{StoreErr: 0.5, WorkerPanic: 0.2}, 7)
	cfg.WorkerRestartBackoff, cfg.StoreRetryBackoff = time.Millisecond, 50*time.Microsecond
	l := newLive(t, cfg)
	if l.Obs() != reg {
		t.Fatal("Obs() does not return the provided registry")
	}
	l.workerRestartBudget = -1
	sampleJourneys(l, 1)
	l.Start()
	defer l.Stop()

	for _, seq := range []uint64{1, 1, 10, 2, 9} { // duplicate, gap of 8, stale, reordered
		l.HandleReport(dedupReport(seq))
	}
	for i := 0; i < 20; i++ {
		l.Ingest(liveObs(uint16(9+i%4), 40, true, "synflood"))
	}
	late := liveObs(20, 40, true, "synflood")
	late.At = now() - netsim.Time(2*shedAfter) // accepted past the shed bound
	l.IngestAsync(late)
	settle(t, l, 10*time.Second)
	if _, _, err := l.WriteCheckpoint(); err != nil {
		t.Fatal(err)
	}
	if !waitFor(t, 5*time.Second, func() bool { return l.Evictions.Load() > 0 }) {
		t.Fatal("no flow evicted past the idle timeout")
	}
	l.Stop()

	// fed: the feed above reaches the series whatever the faults do; the
	// rest depend on where the seeded faults land.
	series := []struct {
		name string
		v    *atomic.Int64
		fed  bool
	}{
		{"intddos_reports_total", &l.Reports, true},
		{"intddos_reports_duplicate_total", &l.Duplicates, true},
		{"intddos_reports_stale_total", &l.StaleReps, true},
		{"intddos_reports_reordered_total", &l.Reordered, true},
		{"intddos_reports_seq_gaps_total", &l.SeqGaps, true},
		{"intddos_snapshots_total", &l.Snapshots, true},
		{"intddos_predictions_total", &l.Predictions, true},
		{"intddos_shed_total", &l.Shed, false},
		{"intddos_evictions_total", &l.Evictions, true},
		{"intddos_records_polled_total", &l.Polled, true},
		{"intddos_store_retries_total", &l.StoreRetries, false},
		{"intddos_store_dropped_total", &l.StoreDropped, false},
		{"intddos_worker_restarts_total", &l.WorkerRestarts, false},
		{"intddos_checkpoints_total", &l.Checkpoints, true},
	}
	scrape := func() map[string]string {
		var b strings.Builder
		reg.WritePrometheus(&b)
		out := make(map[string]string)
		for _, line := range strings.Split(b.String(), "\n") {
			if name, val, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
				out[name] = val
			}
		}
		return out
	}
	check := func(when string) {
		t.Helper()
		got := scrape()
		for _, s := range series {
			if want := strconv.FormatInt(s.v.Load(), 10); got[s.name] != want {
				t.Errorf("%s: %s = %q, atomic = %s", when, s.name, got[s.name], want)
			}
		}
	}
	check("after the run")
	for _, s := range series {
		switch {
		case s.v.Load() > 0:
		case s.fed:
			t.Errorf("%s is zero: the feed did not reach it", s.name)
		default:
			t.Logf("%s stayed zero this run", s.name)
		}
	}
	snap, decided := l.MetricsSnapshot(), l.Predictions.Load()
	// Distinct values a float rendering would print in exponent form:
	// each series reads its own atomic, and prints it as an integer.
	for i, s := range series {
		s.v.Add(1<<20 + int64(i))
	}
	check("after writing the atomics")

	if snap.Counters["intddos_polls_total"] == 0 {
		t.Error("no polls counted")
	}
	// Each decision counts under its own attack type: the Ingest feed
	// is all synflood, the HandleReport feed all synscan.
	byType := make(map[string]int64)
	for _, d := range l.Decisions() {
		byType[d.AttackType]++
	}
	if byType["synflood"] == 0 {
		t.Errorf("decisions by type = %v, want synflood ones", byType)
	}
	for typ, n := range byType {
		if got := snap.Counters[`intddos_decisions_total{attack_type="`+typ+`"}`]; got != n {
			t.Errorf("decisions_total{attack_type=%q} = %d, decisions of that type %d", typ, got, n)
		}
	}
	var perType int64
	for name, n := range snap.Counters {
		if strings.HasPrefix(name, "intddos_decisions_total{") {
			perType += n
		}
	}
	if perType != decided {
		t.Errorf("per-type decisions sum to %d, predictions %d", perType, decided)
	}
	if h, ok := snap.Histogram("intddos_predict_latency_seconds"); !ok || int64(h.Count) != decided {
		t.Errorf("predict latency histogram count = %d, predictions %d", h.Count, decided)
	}
	for _, stage := range []string{"ingest", "journal_wait", "queue_wait", "scale_predict", "vote"} {
		if h, ok := snap.Histogram(`intddos_stage_seconds{stage="` + stage + `"}`); !ok || h.Count == 0 {
			t.Errorf("stage %q histogram empty", stage)
		}
	}
	if got := snap.Gauges["intddos_queue_capacity"]; got != float64(l.cfg.QueueCap) {
		t.Errorf("queue capacity gauge = %v", got)
	}

	hops := []string{"ingest", "journal", "poll", "batch", "predict", "vote"}
	done := 0
	for _, j := range l.Journeys().Recent() {
		if j.Aborted != "" {
			continue
		}
		done++
		if len(j.Hops) != len(hops) {
			t.Errorf("journey %s, want hops %v", j, hops)
			continue
		}
		for i, h := range j.Hops {
			if h.Name != hops[i] {
				t.Errorf("journey %s, want hops %v", j, hops)
			} else if i > 0 && h.At.Before(j.Hops[i-1].At) {
				t.Errorf("journey gap %s − %s is negative: %s", h.Name, hops[i-1], j)
			}
		}
	}
	if done == 0 {
		t.Fatal("no journey completed at 1-in-1")
	}
}

func TestLiveMisclassCounter(t *testing.T) {
	// attackDetector flags small packets; a large benign packet labeled
	// as attack ground truth will be misclassified.
	l := startLive(t, liveConfig(attackDetector()))
	defer l.Stop()
	l.Ingest(liveObs(5, 1500, true, "slowloris")) // big packet → predicted benign, truth attack
	if !waitFor(t, 2*time.Second, func() bool { return len(l.Decisions()) == 1 }) {
		t.Fatal("no decision")
	}
	s := l.MetricsSnapshot()
	if got := s.Counters[`intddos_misclassified_total{attack_type="slowloris"}`]; got != 1 {
		t.Errorf("misclassified counter = %d (counters %v)", got, s.Counters)
	}
}
