package core

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/amlight/intddos/internal/fault"
	"github.com/amlight/intddos/internal/ml"
	"github.com/amlight/intddos/internal/netsim"
	"github.com/amlight/intddos/internal/obs"
	"github.com/amlight/intddos/internal/store"
	"github.com/amlight/intddos/internal/telemetry"
)

// assertAccounting checks the pipeline's terminal invariant: every
// record handed off is a decision, a shed, or an abandonment —
// nothing vanished.
func assertAccounting(t *testing.T, l *Live) {
	t.Helper()
	if g := l.Ledger(); !g.Closed() {
		t.Errorf("accounting leak: %s (reasons %v)", g, l.AbandonedByReason())
	}
}

// namedDetector is attackDetector under a distinct name, for tests
// that target ensemble members individually.
func namedDetector(name string) stubModel {
	return stubModel{name: name, index: 1, thresh: 100}
}

// chaosReport builds one INT report for flow sport with ground truth.
func chaosReport(sport uint16, length uint16, label bool, typ string) *telemetry.Report {
	key := liveObs(sport, 0, label, typ).Key
	return &telemetry.Report{
		Src: key.Src, Dst: key.Dst,
		SrcPort: sport, DstPort: 80, Proto: key.Proto,
		Length: length,
		Hops:   []telemetry.HopMetadata{{SwitchID: 1, QueueDepth: 3, IngressTS: 10, EgressTS: 20}},
		Truth:  telemetry.Truth{Label: label, AttackType: typ},
	}
}

// feedChaos pushes nFlows*updates reports through HandleReport, every
// third flow an attack, and returns the per-flow ground truth.
func feedChaos(l *Live, nFlows, updates int) map[string]bool {
	truth := make(map[string]bool, nFlows)
	for u := 0; u < updates; u++ {
		for f := 0; f < nFlows; f++ {
			sport := uint16(2000 + f)
			attack := f%3 == 0
			length := uint16(1000)
			typ := "benign"
			if attack {
				length, typ = 40, "synflood"
			}
			l.HandleReport(chaosReport(sport, length, attack, typ))
			truth[liveObs(sport, 0, attack, typ).Key.String()] = attack
		}
	}
	return truth
}

// settle waits for the ledger to read Settled: the accounting
// invariant holds with nothing in flight.
func settle(t *testing.T, l *Live, d time.Duration) {
	t.Helper()
	if !l.AwaitSettled(d) {
		t.Fatalf("pipeline did not settle: %s", l.Ledger())
	}
}

// flowTrace is the per-flow decision sequence used for bit-identity
// comparison across runs: Seq, Label, and the per-model votes —
// everything about a decision that is not a wall-clock timestamp.
func flowTrace(l *Live) map[string][]string {
	out := make(map[string][]string)
	for _, d := range l.Decisions() {
		key := d.Key.String()
		out[key] = append(out[key], fmt.Sprintf("seq=%d label=%d votes=%v", d.Seq, d.Label, d.Votes))
	}
	return out
}

// TestChaosAccountingCloses runs the full fault surface at once —
// telemetry drop/corrupt/delay, store errors and stalls, shard
// panics, per-model failures, scoring latency — and asserts the
// pipeline neither deadlocks nor loses a single record's accounting.
func TestChaosAccountingCloses(t *testing.T) {
	in, err := fault.Parse(
		"drop=0.05,corrupt=0.05,delay=200us@0.05,store.err=0.1,store.stall=300us@0.05,"+
			"panic=0.02,model.fail=B@0.3,latency=200us@0.1", 1234)
	if err != nil {
		t.Fatal(err)
	}
	cfg := liveConfig(namedDetector("A"), namedDetector("B"), namedDetector("C"))
	cfg.Fault = in
	cfg.Shards = 4
	cfg.WorkerRestartBackoff = time.Millisecond
	cfg.StoreRetryBackoff = 100 * time.Microsecond
	l := newLive(t, cfg)
	l.workerRestartBudget = -1 // restarts unbounded: the run must survive
	l.Start()
	feedChaos(l, 40, 10)
	settle(t, l, 20*time.Second)
	l.Stop()
	assertAccounting(t, l)
	if l.DecisionCount() == 0 {
		t.Error("no decisions under chaos — the pipeline should degrade, not die")
	}
	if len(in.Counts()) == 0 {
		t.Error("no faults fired; the chaos run tested nothing")
	}
	t.Logf("faults: %s; decisions=%d abandoned=%v tainted=%d",
		in.Summary(), l.DecisionCount(), l.AbandonedByReason(), in.TaintCount())
}

// TestChaosStopMidStream stops the pipeline with records still in
// flight; accounting must close either way the drain policy points.
func TestChaosStopMidStream(t *testing.T) {
	for _, drain := range []bool{false, true} {
		in, err := fault.Parse("store.err=0.1,panic=0.05,store.stall=200us@0.1", 99)
		if err != nil {
			t.Fatal(err)
		}
		cfg := liveConfig(namedDetector("A"), namedDetector("B"), namedDetector("C"))
		cfg.Fault = in
		cfg.Shards = 2
		cfg.DrainOnStop = drain
		cfg.WorkerRestartBackoff = time.Millisecond
		cfg.StoreRetryBackoff = 100 * time.Microsecond
		l := startLive(t, cfg)
		feedChaos(l, 20, 5)
		l.Stop() // no settling: records are mid-pipeline
		assertAccounting(t, l)
	}
}

// TestChaosFaultFreeFlowsBitIdentical runs the same input through a
// clean pipeline and a faulted one and asserts every flow the faults
// did not touch decides identically — same Seq, same Label, same
// votes. Faults must not perturb what they do not hit.
func TestChaosFaultFreeFlowsBitIdentical(t *testing.T) {
	run := func(in *fault.Injector) *Live {
		cfg := liveConfig(namedDetector("A"), namedDetector("B"), namedDetector("C"))
		cfg.Fault = in
		l := startLive(t, cfg)
		feedChaos(l, 30, 6)
		settle(t, l, 20*time.Second)
		l.Stop()
		return l
	}
	clean := run(nil)
	in, err := fault.Parse("drop=0.1,corrupt=0.1,delay=500us@0.1,store.err=0.2,store.stall=500us@0.1", 42)
	if err != nil {
		t.Fatal(err)
	}
	faulted := run(in)

	cleanTrace, faultTrace := flowTrace(clean), flowTrace(faulted)
	compared := 0
	for key, want := range cleanTrace {
		if in.IsTainted(key) {
			continue
		}
		compared++
		got := faultTrace[key]
		if len(got) != len(want) {
			t.Errorf("flow %s: %d decisions faulted vs %d clean", key, len(got), len(want))
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("flow %s decision %d: faulted %q != clean %q", key, i, got[i], want[i])
			}
		}
	}
	if compared == 0 {
		t.Fatalf("every flow tainted (%d) — the comparison is vacuous; lower fault rates", in.TaintCount())
	}
	t.Logf("compared %d fault-free flows (tainted: %d; faults: %s)", compared, in.TaintCount(), in.Summary())
}

// TestWorkerPanicSupervisorRestartsAndAccounts drives a shard into
// its restart budget: every batch panics, the shard restarts
// budget-many times, then is declared down and accounts everything it
// takes after that in the worker_down bucket.
func TestWorkerPanicSupervisorRestartsAndAccounts(t *testing.T) {
	in := fault.New(fault.Spec{WorkerPanic: 1}, 7)
	cfg := liveConfig(attackDetector())
	cfg.Fault = in
	cfg.WorkerRestartBackoff = time.Millisecond
	l := newLive(t, cfg)
	l.workerRestartBudget = 2
	l.Start()
	for i := 0; i < 10; i++ {
		l.Ingest(liveObs(uint16(i), 40, true, "synflood"))
	}
	if !waitFor(t, 5*time.Second, func() bool { return l.shardsDown.Load() == 1 }) {
		t.Fatalf("shard not declared down; restarts=%d", l.WorkerRestarts.Load())
	}
	l.Stop()
	if got := l.WorkerRestarts.Load(); got != 2 {
		t.Errorf("worker restarts = %d, want exactly the budget (2)", got)
	}
	if l.DecisionCount() != 0 {
		t.Errorf("decisions = %d with every batch panicking", l.DecisionCount())
	}
	assertAccounting(t, l)
	reasons := l.AbandonedByReason()
	if reasons["panic"] != 3 { // initial run + 2 restarts, one-record batches
		t.Errorf("panic abandonments = %d, want 3 (reasons %v)", reasons["panic"], reasons)
	}
	if reasons["worker_down"] == 0 {
		t.Errorf("no worker_down abandonments; reasons %v", reasons)
	}
	if l.Health() != HealthShedding {
		t.Errorf("health = %v, want shedding with a shard down", l.Health())
	}
	if len(l.HealthTransitions()) == 0 {
		t.Error("no health transitions logged")
	}
}

// TestQuorumDegradesToAvailableMajority kills one of three ensemble
// members and asserts detection keeps deciding at 2-of-2 with the
// dead member's votes marked absent.
func TestQuorumDegradesToAvailableMajority(t *testing.T) {
	in := fault.New(fault.Spec{ModelFail: map[string]float64{"B": 1}}, 7)
	cfg := liveConfig(namedDetector("A"), namedDetector("B"), namedDetector("C"))
	cfg.Fault = in
	l := newLive(t, cfg)
	l.modelProbeAfter = time.Hour // no probes mid-test
	l.Start()
	for i := 0; i < 20; i++ {
		l.Ingest(liveObs(9, 40, true, "synflood"))
	}
	if !waitFor(t, 5*time.Second, func() bool { return l.DecisionCount() == 20 }) {
		t.Fatalf("decisions = %d, want 20", l.DecisionCount())
	}
	l.Stop()
	for i, d := range l.Decisions() {
		if d.Label != 1 {
			t.Errorf("decision %d label = %d; degraded quorum should still detect", i, d.Label)
		}
		if len(d.Votes) != 3 || d.Votes[0] != 1 || d.Votes[1] != VoteAbsent || d.Votes[2] != 1 {
			t.Errorf("decision %d votes = %v, want [1 %d 1]", i, d.Votes, VoteAbsent)
		}
	}
	if l.unhealthyModels() != 1 {
		t.Errorf("unhealthy models = %d, want 1", l.unhealthyModels())
	}
	if l.ModelFailures.Load() < modelFailThreshold {
		t.Errorf("model failures = %d", l.ModelFailures.Load())
	}
	if l.Health() != HealthDegraded {
		t.Errorf("health = %v, want degraded", l.Health())
	}
	rep := l.healthReport()
	if rep.State != obs.StateDegraded {
		t.Errorf("report state = %q", rep.State)
	}
	joined := strings.Join(rep.Detail, "\n")
	if !strings.Contains(joined, "model B: unhealthy") {
		t.Errorf("health detail missing unhealthy model B:\n%s", joined)
	}
	assertAccounting(t, l)
}

// flakyModel fails its first `failures` scoring calls, then recovers —
// the shape of a dependency hiccup, for probe/recovery testing.
type flakyModel struct {
	stubModel
	remaining atomic.Int32
}

func (f *flakyModel) TryPredictBatchInto(dst []int, X [][]float64) ([]int, error) {
	if f.remaining.Add(-1) >= 0 {
		return nil, fmt.Errorf("model %s: transient failure", f.name)
	}
	return ml.PredictBatchInto(f.stubModel, dst, X), nil
}

// TestModelRecoversViaProbe marks a flaky member unhealthy, then
// verifies a later probe re-admits it: full three-vote decisions
// resume.
func TestModelRecoversViaProbe(t *testing.T) {
	flaky := &flakyModel{stubModel: namedDetector("B")}
	flaky.remaining.Store(3)
	cfg := liveConfig(namedDetector("A"), flaky, namedDetector("C"))
	l := newLive(t, cfg)
	l.modelProbeAfter = 20 * time.Millisecond
	l.Start()
	defer l.Stop()
	deadline := time.Now().Add(5 * time.Second)
	i := 0
	fullVotes := func() bool {
		for _, d := range l.Decisions() {
			if len(d.Votes) == 3 && d.Votes[0] == 1 && d.Votes[1] == 1 && d.Votes[2] == 1 {
				return true
			}
		}
		return false
	}
	for time.Now().Before(deadline) && !fullVotes() {
		l.Ingest(liveObs(uint16(100+i%5), 40, true, "synflood"))
		i++
		time.Sleep(2 * time.Millisecond)
	}
	if !fullVotes() {
		t.Fatal("model B never recovered into the vote")
	}
	if l.unhealthyModels() != 0 {
		t.Errorf("unhealthy models = %d after recovery", l.unhealthyModels())
	}
	joined := strings.Join(l.HealthTransitions(), "\n")
	if !strings.Contains(joined, "model B recovered") {
		t.Errorf("transition log missing recovery:\n%s", joined)
	}
}

// TestStoreRetriesSurviveTransientErrors runs a seeded transient-
// error schedule against the prediction log and asserts retries (not
// losses) absorb it: every row is decided unless its log write
// outlasted the retry budget.
func TestStoreRetriesSurviveTransientErrors(t *testing.T) {
	in := fault.New(fault.Spec{StoreErr: 0.3}, 7)
	cfg := liveConfig(attackDetector())
	cfg.Fault = in
	cfg.StoreRetryBackoff = 100 * time.Microsecond
	l := startLive(t, cfg)
	for i := 0; i < 60; i++ {
		l.Ingest(liveObs(uint16(3000+i), 1000, false, "benign"))
	}
	settle(t, l, 20*time.Second)
	l.Stop()
	if l.StoreRetries.Load() == 0 {
		t.Error("no store retries at store.err=0.3")
	}
	if got := int64(l.DecisionCount()) + l.StoreDropped.Load(); got != 60 {
		t.Errorf("decisions+dropped = %d, want every one of 60 snapshots accounted", got)
	}
	if l.Polled.Load() != 60 {
		t.Errorf("polled = %d, want 60", l.Polled.Load())
	}
	assertAccounting(t, l)
	t.Logf("retries=%d dropped=%d", l.StoreRetries.Load(), l.StoreDropped.Load())
}

// TestStoreRetriesSpendOneSequenceAPass: a pass holds its shard's
// run lock and barrier while it sleeps a log-write backoff, so during
// a log outage the retries are the pass's, not each row's: a pass of n
// rows sleeps one retry sequence in all, every row is abandoned as
// store_dropped, and the ledger closes.
func TestStoreRetriesSpendOneSequenceAPass(t *testing.T) {
	const n, backoff = 16, 20 * time.Millisecond
	cfg := liveConfig(attackDetector())
	cfg.Fault = fault.New(fault.Spec{StoreErr: 1}, 1)
	cfg.StoreRetryBackoff = backoff
	l := newLive(t, cfg)
	// Not started: the rows wait in the shard, and Start's first pass
	// decides all n of them.
	for i := 0; i < n; i++ {
		l.Ingest(liveObs(uint16(5000+i), 1000, false, "benign"))
	}
	var sequence time.Duration
	for i := 0; i < storeRetries; i++ {
		sequence += backoff << i
	}
	start := time.Now()
	l.Start()
	settle(t, l, 20*time.Second)
	// One sequence and change; a sequence a row would be n of them.
	if took := time.Since(start); took > 2*sequence {
		t.Errorf("the pass took %v: more than one retry sequence (%v) of sleep", took, sequence)
	}
	if got := l.AbandonedByReason()["store_dropped"]; got != n || l.DecisionCount() != 0 {
		t.Errorf("store_dropped = %d, decided = %d: want all %d rows dropped", got, l.DecisionCount(), n)
	}
	if got := l.StoreRetries.Load(); got != storeRetries+n {
		t.Errorf("failed writes = %d, want %d: the first row's %d retries, then one try a row", got, storeRetries+n, storeRetries)
	}
	assertAccounting(t, l)
}

// TestDrainOnStopPinsBothPolicies pins the two shutdown policies:
// DrainOnStop scores everything still queued; the default abandons it
// under reason "stop" — counted, either way. Reports go through the
// shard queue so a backlog can form behind the slow model. A shard
// checks for Stop between scoring calls, so the rows are scored one a
// call: a whole-burst call would carry a backlog past the Stop.
func TestDrainOnStopPinsBothPolicies(t *testing.T) {
	for _, drain := range []bool{true, false} {
		cfg := liveConfig(slowModel{d: 5 * time.Millisecond})
		cfg.DrainOnStop, cfg.PredictBatch = drain, 1
		l := startLive(t, cfg)
		const n = 40
		for i := 0; i < n; i++ {
			l.IngestAsync(liveObs(uint16(i), 1000, false, "benign"))
		}
		// Everything polled, the shard still grinding.
		if !waitFor(t, 5*time.Second, func() bool { return l.Polled.Load() == n }) {
			t.Fatalf("polled = %d, want %d", l.Polled.Load(), n)
		}
		l.Stop()
		assertAccounting(t, l)
		stops := l.AbandonedByReason()["stop"]
		if drain {
			if l.DecisionCount() != n || stops != 0 {
				t.Errorf("drain: decisions=%d abandoned[stop]=%d, want %d/0", l.DecisionCount(), stops, n)
			}
		} else {
			if stops == 0 {
				t.Error("no-drain: nothing abandoned under reason stop despite a full queue")
			}
			if l.DecisionCount()+int(stops) != n {
				t.Errorf("no-drain: decisions=%d + stops=%d != %d", l.DecisionCount(), stops, n)
			}
		}
	}
}

// sizeGateModel is instant for big packets and slow for small ones,
// so attack-flow shards back up while benign shards stay fast.
type sizeGateModel struct{ d time.Duration }

func (m sizeGateModel) Name() string                 { return "gate" }
func (m sizeGateModel) Fit([][]float64, []int) error { return nil }
func (m sizeGateModel) Predict(x []float64) int {
	if x[1] < 100 { // FPktSize
		time.Sleep(m.d)
		return 1
	}
	return 0
}

// TestShardShedPathIsolatesOverload floods one shard until it sheds
// and asserts the other shard keeps deciding — overload on one stripe
// does not starve the rest of the pipeline. The shed bound is lowered
// below the slow model's cost, so rows queued behind it shed.
func TestShardShedPathIsolatesOverload(t *testing.T) {
	cfg := liveConfig(sizeGateModel{d: 10 * time.Millisecond})
	cfg.Shards = 2
	cfg.QueueCap = 4 // 2 per shard
	l := newLive(t, cfg)
	l.shedAfter = 5 * time.Millisecond
	// Pick one flow per shard.
	var hot, cold uint16
	for p := uint16(1); p < 200; p++ {
		if liveObs(p, 0, false, "").Key.Shard(2) == 0 && hot == 0 {
			hot = p
		}
		if liveObs(p, 0, false, "").Key.Shard(2) == 1 && cold == 0 {
			cold = p
		}
		if hot != 0 && cold != 0 {
			break
		}
	}
	l.Start()
	defer l.Stop()
	const coldN = 30
	for i := 0; i < coldN; i++ {
		for j := 0; j < 8; j++ {
			l.IngestAsync(liveObs(hot, 40, true, "synflood")) // slow path: floods its shard
		}
		l.IngestAsync(liveObs(cold, 1000, false, "benign")) // fast path on the other shard
		// Pace the feed so the healthy shard (instant on big packets)
		// keeps up — only the flooded shard should shed.
		time.Sleep(2 * time.Millisecond)
	}
	coldKey := liveObs(cold, 0, false, "").Key
	coldDecided := func() int {
		n := 0
		for _, d := range l.Decisions() {
			if d.Key == coldKey {
				n++
			}
		}
		return n
	}
	if !waitFor(t, 10*time.Second, func() bool { return l.Shed.Load() > 0 && coldDecided() == coldN }) {
		t.Fatalf("shed=%d coldDecided=%d/%d — overloaded shard starved the healthy one",
			l.Shed.Load(), coldDecided(), coldN)
	}
	for _, d := range l.Decisions() {
		if d.Key == coldKey && d.Label != 0 {
			t.Errorf("cold-shard flow misdecided: %+v", d)
		}
	}
	if l.Health() != HealthShedding {
		t.Errorf("health = %v, want shedding while records are shed", l.Health())
	}
}

// TestHealthzEndpointTracksState drives the pipeline into shedding
// and back and asserts /healthz follows: 503 + "shedding" under loss,
// 200 + "healthy" after the recency window clears.
func TestHealthzEndpointTracksState(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := liveConfig(slowModel{d: 5 * time.Millisecond})
	cfg.Registry = reg
	cfg.QueueCap = 2
	l := newLive(t, cfg)
	l.healthRecency = 50 * time.Millisecond
	l.shedAfter = time.Millisecond
	l.Start()
	defer l.Stop()
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	get := func() (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		buf := make([]byte, 4096)
		n, _ := resp.Body.Read(buf)
		return resp.StatusCode, string(buf[:n])
	}

	code, body := get()
	if code != http.StatusOK || !strings.HasPrefix(body, obs.StateHealthy) {
		t.Fatalf("initial /healthz = %d %q", code, body)
	}
	for i := 0; i < 60; i++ {
		l.IngestAsync(liveObs(uint16(i), 1000, false, "benign"))
	}
	if !waitFor(t, 5*time.Second, func() bool { return l.Shed.Load() > 0 && l.Health() == HealthShedding }) {
		t.Fatalf("never reached shedding; shed=%d", l.Shed.Load())
	}
	code, body = get()
	if code != http.StatusServiceUnavailable || !strings.HasPrefix(body, obs.StateShedding) {
		t.Errorf("shedding /healthz = %d %q, want 503 shedding", code, body)
	}
	if !strings.Contains(body, "transition:") {
		t.Errorf("/healthz missing transition log:\n%s", body)
	}
	// Quiet down: once the backlog drains and the recency window
	// expires, reassessment lowers the state back to healthy.
	if !waitFor(t, 10*time.Second, func() bool { return l.Health() == HealthHealthy }) {
		t.Fatalf("health stuck at %v after quiesce", l.Health())
	}
	code, body = get()
	if code != http.StatusOK || !strings.HasPrefix(body, obs.StateHealthy) {
		t.Errorf("recovered /healthz = %d %q, want 200 healthy", code, body)
	}
}

// TestMalformedSnapshotsAbandonedNotFatal feeds a shard a record
// whose feature vector disagrees with the scaler; it must be
// abandoned under reason "malformed", not panic a kernel.
func TestMalformedSnapshotsAbandonedNotFatal(t *testing.T) {
	cfg := liveConfig(attackDetector())
	l := startLive(t, cfg)
	// Bypass Ingest (which always builds well-formed vectors) and
	// plant a malformed row straight in the shard's pending rows, as a
	// restored journal tail would carry it, under the locks a pass holds.
	l.ckptMu[0].RLock()
	sh := l.shards[0]
	sh.run.Lock()
	sh.pending = append(sh.pending, store.FlowRecord{Key: liveObs(1, 0, false, "").Key,
		Features: []float64{1, 2, 3}, RegisteredAt: 1, UpdatedAt: 1, Updates: 1, AttackType: "benign"})
	sh.run.Unlock()
	l.ckptMu[0].RUnlock()
	l.Ingest(liveObs(2, 40, true, "synflood"))
	if !waitFor(t, 5*time.Second, func() bool {
		return l.AbandonedByReason()["malformed"] == 1 && l.DecisionCount() == 1
	}) {
		t.Fatalf("malformed=%d decisions=%d, want 1/1",
			l.AbandonedByReason()["malformed"], l.DecisionCount())
	}
	l.Stop()
	assertAccounting(t, l)
}

// TestLiveRejectsMismatchedBundle pins the construction-time shape
// check: a model reporting a trained width that disagrees with the
// scaler is a config error, not a runtime panic.
func TestLiveRejectsMismatchedBundle(t *testing.T) {
	wide := shapedModel{stubModel: namedDetector("W"), width: 3}
	if _, err := NewLive(liveConfig(wide)); err == nil {
		t.Error("NewLive accepted a mismatched model width")
	}
	if _, err := New(netsim.NewEngine(), testConfig(wide)); err == nil {
		t.Error("New accepted a mismatched model width")
	}
	// The stage-0 triage model is held to the same width.
	cfg := testConfig(namedDetector("A"))
	cfg.Triage = true
	cfg.TriageModel = shapedProba{probaModel: probaModel{stubModel: namedDetector("T")}, width: 3}
	if _, err := New(netsim.NewEngine(), cfg); err == nil {
		t.Error("New accepted a mismatched triage model width")
	}
}

// shapedProba is a stage-0 model reporting a fixed trained input width.
type shapedProba struct {
	probaModel
	width int
}

func (s shapedProba) Features() int { return s.width }

// shapedModel reports a fixed trained input width.
type shapedModel struct {
	stubModel
	width int
}

func (s shapedModel) Features() int { return s.width }
