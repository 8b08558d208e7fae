package core

import (
	"net/netip"
	"sync"
	"testing"
	"time"

	"github.com/amlight/intddos/internal/flow"
	"github.com/amlight/intddos/internal/ml"
	"github.com/amlight/intddos/internal/netsim"
	"github.com/amlight/intddos/internal/store"
	"github.com/amlight/intddos/internal/telemetry"
)

func liveConfig(models ...ml.Classifier) LiveConfig {
	return LiveConfig{
		Models: models,
		Scaler: identityScaler(len(flow.INTFeatures())),
	}
}

// newLive builds a pipeline that stops when the test ends, however it
// ends: a test that fails with its pipeline started must not leave the
// pipeline's goroutines behind for the next test to count. Stop is
// idempotent, so a test may still stop it itself.
func newLive(t *testing.T, cfg LiveConfig) *Live {
	t.Helper()
	l, err := NewLive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.Stop)
	return l
}

// startLive is newLive, started.
func startLive(t *testing.T, cfg LiveConfig) *Live {
	t.Helper()
	l := newLive(t, cfg)
	l.Start()
	return l
}

// logged reads l's whole prediction log, restored history included,
// in global decision order.
func logged(l *Live) []store.PredictionRecord {
	var out []store.PredictionRecord
	c := l.rawDB.PredictionCursor(0)
	for p, ok := c.Next(); ok; p, ok = c.Next() {
		out = append(out, p)
	}
	return out
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool) bool {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(2 * time.Millisecond)
	}
	return cond()
}

// ingestAsync queues an observation a test built for its shard, as
// HandleReport queues a report.
func (l *Live) ingestAsync(pi flow.PacketInfo) {
	o := l.pack(pi)
	l.enqueue(&o)
}

func liveObs(sport uint16, length int, label bool, typ string) flow.PacketInfo {
	return flow.PacketInfo{
		Key: flow.Key{
			Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("10.0.0.2"),
			SrcPort: sport, DstPort: 80, Proto: netsim.TCP,
		},
		Length: length, HasTelemetry: true,
		Label: label, AttackType: typ,
	}
}

func TestLiveValidatesConfig(t *testing.T) {
	if _, err := NewLive(LiveConfig{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := NewLive(LiveConfig{Models: []ml.Classifier{attackDetector()}}); err == nil {
		t.Error("missing scaler accepted")
	}
}

func TestLiveEndToEnd(t *testing.T) {
	l := startLive(t, liveConfig(attackDetector()))
	defer l.Stop()

	for i := 0; i < 5; i++ {
		l.Ingest(liveObs(7, 40, true, "synflood"))
	}
	if !waitFor(t, 2*time.Second, func() bool { return len(l.Decisions()) == 5 }) {
		t.Fatalf("decisions = %d, want 5", len(l.Decisions()))
	}
	for i, d := range l.Decisions() {
		if d.Label != 1 {
			t.Errorf("decision %d label = %d", i, d.Label)
		}
		if d.Latency <= 0 {
			t.Errorf("decision %d latency = %v", i, d.Latency)
		}
		if !d.Correct() {
			t.Errorf("decision %d incorrect", i)
		}
	}
	if l.Snapshots.Load() != 5 || l.Predictions.Load() != 5 {
		t.Errorf("snapshots=%d predictions=%d", l.Snapshots.Load(), l.Predictions.Load())
	}
}

func TestLiveConcurrentIngest(t *testing.T) {
	l := startLive(t, liveConfig(attackDetector()))
	defer l.Stop()

	const goroutines, per = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				l.Ingest(liveObs(uint16(1000+g), 1000, false, "benign"))
			}
		}(g)
	}
	wg.Wait()
	want := goroutines * per
	if !waitFor(t, 5*time.Second, func() bool { return len(l.Decisions()) == want }) {
		t.Fatalf("decisions = %d, want %d", len(l.Decisions()), want)
	}
	// All benign under the size-threshold stub.
	for _, d := range l.Decisions() {
		if d.Label != 0 {
			t.Fatalf("benign flow flagged: %+v", d)
		}
	}
}

func TestLiveHandleReport(t *testing.T) {
	l := newLive(t, liveConfig(attackDetector()))
	var got []Decision
	var mu sync.Mutex
	l.OnDecision = func(d Decision) { mu.Lock(); got = append(got, d); mu.Unlock() }
	l.Start()
	defer l.Stop()

	rep := &telemetry.Report{
		Src: netip.MustParseAddr("10.0.0.9"), Dst: netip.MustParseAddr("10.0.0.2"),
		SrcPort: 5, DstPort: 80, Proto: netsim.TCP, Length: 40,
		Hops:  []telemetry.HopMetadata{{QueueDepth: 1, IngressTS: 10, EgressTS: 20}},
		Truth: telemetry.Truth{Label: true, AttackType: "synscan"},
	}
	l.HandleReport(rep)
	if !waitFor(t, 2*time.Second, func() bool { mu.Lock(); defer mu.Unlock(); return len(got) == 1 }) {
		t.Fatal("no decision from report")
	}
	mu.Lock()
	defer mu.Unlock()
	if got[0].Label != 1 || got[0].AttackType != "synscan" {
		t.Errorf("decision = %+v", got[0])
	}
}

func dedupReport(seq uint64) *telemetry.Report {
	return &telemetry.Report{
		Seq: seq,
		Src: netip.MustParseAddr("10.0.0.9"), Dst: netip.MustParseAddr("10.0.0.2"),
		SrcPort: 5, DstPort: 80, Proto: netsim.TCP, Length: 40,
		Hops:  []telemetry.HopMetadata{{SwitchID: 3, QueueDepth: 1, IngressTS: 10, EgressTS: 20}},
		Truth: telemetry.Truth{Label: true, AttackType: "synscan"},
	}
}

func TestLiveDedupSuppressesDuplicateAndStaleReports(t *testing.T) {
	cfg := liveConfig(attackDetector())
	cfg.DedupWindow = 4
	l := startLive(t, cfg)
	defer l.Stop()

	l.HandleReport(dedupReport(1))
	l.HandleReport(dedupReport(1))  // duplicate
	l.HandleReport(dedupReport(10)) // forward jump: 8 inferred gaps
	l.HandleReport(dedupReport(2))  // stale: 10-2 >= window 4
	l.HandleReport(dedupReport(9))  // reordered, admitted

	if !waitFor(t, 2*time.Second, func() bool { return len(l.Decisions()) == 3 }) {
		t.Fatalf("decisions = %d, want 3 (dup and stale suppressed)", len(l.Decisions()))
	}
	if l.Duplicates.Load() != 1 || l.StaleReps.Load() != 1 || l.Reordered.Load() != 1 {
		t.Errorf("dup/stale/reordered = %d/%d/%d, want 1/1/1",
			l.Duplicates.Load(), l.StaleReps.Load(), l.Reordered.Load())
	}
	if l.SeqGaps.Load() != 8 {
		t.Errorf("seq gaps = %d, want 8", l.SeqGaps.Load())
	}
	// Report ledger: every report is a suppression or an ingest.
	if got := l.Duplicates.Load() + l.StaleReps.Load() + l.Snapshots.Load(); got != l.Reports.Load() {
		t.Errorf("report ledger open: %d suppressed+ingested != %d reports", got, l.Reports.Load())
	}
}

func TestLiveDedupOffAdmitsDuplicates(t *testing.T) {
	l := startLive(t, liveConfig(attackDetector()))
	defer l.Stop()
	l.HandleReport(dedupReport(1))
	l.HandleReport(dedupReport(1))
	if !waitFor(t, 2*time.Second, func() bool { return len(l.Decisions()) == 2 }) {
		t.Fatalf("decisions = %d, want 2 (dedup disabled by default)", len(l.Decisions()))
	}
	if l.Duplicates.Load() != 0 {
		t.Errorf("duplicates = %d with dedup off", l.Duplicates.Load())
	}
}

// slowModel delays predictions so the queue can fill.
type slowModel struct{ d time.Duration }

func (s slowModel) Name() string                 { return "slow" }
func (s slowModel) Fit([][]float64, []int) error { return nil }
func (s slowModel) Predict([]float64) int        { time.Sleep(s.d); return 0 }

func TestLiveShedsUnderOverload(t *testing.T) {
	cfg := liveConfig(slowModel{d: 20 * time.Millisecond})
	cfg.QueueCap = 4
	l := newLive(t, cfg)
	l.shedAfter = time.Millisecond // below the model's cost: a backlog sheds
	l.Start()
	defer l.Stop()
	for i := 0; i < 100; i++ {
		l.ingestAsync(liveObs(uint16(i), 500, false, "benign"))
	}
	if !waitFor(t, 3*time.Second, func() bool {
		return int(l.Shed.Load())+len(l.Decisions()) >= 20
	}) {
		t.Fatal("pipeline made no progress")
	}
	if l.Shed.Load() == 0 {
		t.Error("no shedding despite tiny queue and slow model")
	}
}

func TestLiveStopIsIdempotentlySafe(t *testing.T) {
	l := startLive(t, liveConfig(attackDetector()))
	l.Ingest(liveObs(1, 40, true, "synscan"))
	l.Stop()
	// Ingest after stop must not panic (goroutines gone, DB still ok).
	l.Ingest(liveObs(2, 40, true, "synscan"))
}
