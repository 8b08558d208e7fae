package core

import (
	"fmt"
	"testing"
	"time"

	"github.com/amlight/intddos/internal/ml"
	"github.com/amlight/intddos/internal/netsim"
)

// probaModel wraps a stubModel with a probability path so it can serve
// cascade stage 0: conf is the confidence |2p-1| of every answer, so
// conf=1 saturates (exits at any threshold) and conf=0.5 stays below a
// 0.9 threshold (everything falls through).
type probaModel struct {
	stubModel
	conf float64
}

func (p probaModel) Proba(x []float64) float64 {
	if p.Predict(x) == 1 {
		return 0.5 + p.conf/2
	}
	return 0.5 - p.conf/2
}

func (p probaModel) PredictProbaBatch(X [][]float64) []float64 {
	out := make([]float64, len(X))
	for i, x := range X {
		out[i] = p.Proba(x)
	}
	return out
}

func (p probaModel) PredictBatch(X [][]float64) []int {
	out := make([]int, len(X))
	for i, x := range X {
		out[i] = p.Predict(x)
	}
	return out
}

var _ ml.BatchProbaClassifier = probaModel{}

// runMechanismTriage replays the batch_test workload through a
// simulated mechanism with the given triage settings and returns the
// full decision log.
func runMechanismTriage(t *testing.T, predictBatch, shards int, triage bool, threshold, conf float64) (*Mechanism, []Decision) {
	t.Helper()
	eng := netsim.NewEngine()
	cfg := testConfig(attackDetector())
	cfg.PredictBatch = predictBatch
	cfg.Shards = shards
	cfg.Triage = triage
	cfg.TriageThreshold = threshold
	if triage {
		cfg.TriageModel = probaModel{stubModel: attackDetector(), conf: conf}
	}
	m, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	for i := 0; i < 30; i++ {
		at := netsim.Time(i) * 50 * netsim.Microsecond
		var pi = simObs(uint16(7+i%3), at, 40, true, "synflood")
		if i%3 == 2 {
			pi = simObs(uint16(7+i%3), at, 1000, false, "benign")
		}
		eng.Schedule(at, func() { m.Observe(pi) })
	}
	eng.RunUntil(netsim.Second)
	return m, m.Decisions
}

func sameDecisions(t *testing.T, label string, base, got []Decision) {
	t.Helper()
	if len(got) != len(base) {
		t.Fatalf("%s: %d decisions, want %d", label, len(got), len(base))
	}
	for i := range base {
		b, g := base[i], got[i]
		if b.Key != g.Key || b.Seq != g.Seq || b.Label != g.Label ||
			b.At != g.At || b.Latency != g.Latency || b.Stage != g.Stage ||
			fmt.Sprint(b.Votes) != fmt.Sprint(g.Votes) {
			t.Errorf("%s: decision %d diverged:\nbase: %+v\ngot:  %+v", label, i, b, g)
		}
	}
}

// TestMechanismTriageInertBitIdentical pins the exact-mode property:
// with triage off, or wired in with a non-positive threshold (the
// cascade present but inert), the decision log is bit-identical —
// same keys, labels, votes, timestamps, and Stage 0 provenance — at
// every batch size and shard layout.
func TestMechanismTriageInertBitIdentical(t *testing.T) {
	_, base := runMechanismTriage(t, 1, 0, false, 0, 0)
	if len(base) != 30 {
		t.Fatalf("baseline decisions = %d, want 30", len(base))
	}
	for _, d := range base {
		if d.Stage != 0 {
			t.Fatalf("triage-off decision has Stage=%d, want 0", d.Stage)
		}
	}
	for _, batch := range []int{1, 8, 32} {
		for _, shards := range []int{0, 4} {
			m, got := runMechanismTriage(t, batch, shards, true, -1, 1)
			sameDecisions(t, fmt.Sprintf("inert batch=%d shards=%d", batch, shards), base, got)
			if m.TriageExited != 0 {
				t.Errorf("batch=%d shards=%d: inert cascade exited %d rows", batch, shards, m.TriageExited)
			}
			_, off := runMechanismTriage(t, batch, shards, false, 0, 0)
			sameDecisions(t, fmt.Sprintf("off batch=%d shards=%d", batch, shards), base, off)
		}
	}
}

// TestMechanismTriageStageProvenance runs a saturated stage-0 model:
// every row exits at stage 1 with a single-vote slice, and the labels
// match the full-ensemble baseline (the stub agrees with itself).
func TestMechanismTriageStageProvenance(t *testing.T) {
	_, base := runMechanismTriage(t, 8, 0, false, 0, 0)
	m, got := runMechanismTriage(t, 8, 0, true, 0.9, 1)
	if len(got) != len(base) {
		t.Fatalf("decisions = %d, want %d", len(got), len(base))
	}
	if m.TriageExited != len(got) || m.TriageFallthrough != 0 {
		t.Fatalf("exited=%d fallthrough=%d, want %d/0", m.TriageExited, m.TriageFallthrough, len(got))
	}
	for i := range got {
		if got[i].Stage != 1 {
			t.Errorf("decision %d Stage = %d, want 1", i, got[i].Stage)
		}
		if len(got[i].Votes) != 1 {
			t.Errorf("decision %d Votes = %v, want a single stage-0 vote", i, got[i].Votes)
		}
		if got[i].Label != base[i].Label || got[i].Key != base[i].Key {
			t.Errorf("decision %d label/key diverged from baseline", i)
		}
	}
}

// TestMechanismTriageLowConfidenceFallsThrough keeps the cascade below
// threshold: everything falls through to the full ensemble and the
// decision log matches the triage-off baseline exactly.
func TestMechanismTriageLowConfidenceFallsThrough(t *testing.T) {
	_, base := runMechanismTriage(t, 8, 0, false, 0, 0)
	m, got := runMechanismTriage(t, 8, 0, true, 0.9, 0.5)
	sameDecisions(t, "low confidence", base, got)
	if m.TriageExited != 0 || m.TriageFallthrough != len(got) {
		t.Fatalf("exited=%d fallthrough=%d, want 0/%d", m.TriageExited, m.TriageFallthrough, len(got))
	}
}

// TestMechanismTriageSketchVeto floods one flow past the sketch's
// minimum sample: once the stream's entropy collapses, confident
// benign verdicts are vetoed and fall through to the ensemble even at
// a saturated stage-0 confidence.
func TestMechanismTriageSketchVeto(t *testing.T) {
	const n = 900
	eng := netsim.NewEngine()
	cfg := testConfig(attackDetector())
	cfg.PredictBatch = 32
	cfg.Triage = true
	cfg.TriageThreshold = 0.9
	cfg.TriageModel = probaModel{stubModel: attackDetector(), conf: 1}
	m, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	for i := 0; i < n; i++ {
		at := netsim.Time(i) * 50 * netsim.Microsecond
		pi := simObs(7, at, 1000, false, "benign") // single benign flow
		eng.Schedule(at, func() { m.Observe(pi) })
	}
	eng.RunUntil(10 * netsim.Second)
	if len(m.Decisions) != n {
		t.Fatalf("decisions = %d, want %d", len(m.Decisions), n)
	}
	if m.TriageExited+m.TriageFallthrough != n {
		t.Fatalf("exited=%d + fallthrough=%d != %d", m.TriageExited, m.TriageFallthrough, n)
	}
	// The single-flow stream collapses entropy to zero: after the
	// sketch has its minimum sample, benign early-exits must be vetoed.
	if m.TriageFallthrough == 0 {
		t.Fatal("no fall-throughs: the sketch veto never fired on a zero-entropy stream")
	}
	for _, d := range m.Decisions {
		if d.Label != 0 {
			t.Fatalf("benign flow labeled attack: %+v", d)
		}
	}
}

// TestTriageRequiresProbaModel pins the constructor error when triage
// is enabled but no ensemble member exposes the probability path.
func TestTriageRequiresProbaModel(t *testing.T) {
	eng := netsim.NewEngine()
	cfg := testConfig(attackDetector())
	cfg.Triage = true
	if _, err := New(eng, cfg); err == nil {
		t.Error("Mechanism accepted triage without a probability-capable model")
	}
	lcfg := liveConfig(attackDetector())
	lcfg.Triage = true
	if _, err := NewLive(lcfg); err == nil {
		t.Error("Live accepted triage without a probability-capable model")
	}
}

// runLiveTriage replays a fixed multi-flow stream through the
// wall-clock runtime and returns per-flow "label/votes/stage"
// sequences indexed by sequence number — the unit that must be
// invariant across batch sizes, shard layouts, and an inert cascade.
func runLiveTriage(t *testing.T, predictBatch, shards int, triage bool, threshold, conf float64) (*Live, map[string][]string) {
	t.Helper()
	cfg := liveConfig(attackDetector())
	cfg.PredictBatch = predictBatch
	cfg.Shards = shards
	cfg.Triage = triage
	cfg.TriageThreshold = threshold
	if triage {
		cfg.TriageModel = probaModel{stubModel: attackDetector(), conf: conf}
	}
	l, err := NewLive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l.Start()
	defer l.Stop()
	const flows, per = 6, 20
	for u := 0; u < per; u++ {
		for f := 0; f < flows; f++ {
			if f%3 == 0 {
				l.Ingest(liveObs(uint16(3000+f), 40, true, "synflood"))
			} else {
				l.Ingest(liveObs(uint16(3000+f), 1000, false, "benign"))
			}
		}
	}
	if !waitFor(t, 10*time.Second, func() bool { return len(l.Decisions()) == flows*per }) {
		t.Fatalf("decisions = %d, want %d", len(l.Decisions()), flows*per)
	}
	byFlow := make(map[string][]string)
	for _, d := range l.Decisions() {
		k := d.Key.String()
		for len(byFlow[k]) <= d.Seq {
			byFlow[k] = append(byFlow[k], "")
		}
		byFlow[k][d.Seq] = fmt.Sprintf("label=%d votes=%v stage=%d", d.Label, d.Votes, d.Stage)
	}
	return l, byFlow
}

// TestLiveTriageInertBitIdentical is the wall-clock half of the
// exact-mode property: triage off and triage inert produce identical
// per-flow decision sequences at every batch size and shard count.
func TestLiveTriageInertBitIdentical(t *testing.T) {
	_, base := runLiveTriage(t, 1, 0, false, 0, 0)
	for _, batch := range []int{1, 8, 32} {
		for _, shards := range []int{0, 4} {
			_, got := runLiveTriage(t, batch, shards, true, -1, 1)
			if len(got) != len(base) {
				t.Fatalf("batch=%d shards=%d: %d flows, want %d", batch, shards, len(got), len(base))
			}
			for k, want := range base {
				if fmt.Sprint(got[k]) != fmt.Sprint(want) {
					t.Errorf("batch=%d shards=%d flow %s diverged:\nbase: %v\ngot:  %v",
						batch, shards, k, want, got[k])
				}
			}
		}
	}
}

// TestLiveTriageExits runs a saturated cascade: every decision carries
// stage-1 provenance with a single vote, labels match the ensemble
// baseline, and the pipeline's accounting still closes.
func TestLiveTriageExits(t *testing.T) {
	_, base := runLiveTriage(t, 8, 4, false, 0, 0)
	l, got := runLiveTriage(t, 8, 4, true, 0.9, 1)
	if len(got) != len(base) {
		t.Fatalf("%d flows, want %d", len(got), len(base))
	}
	for _, d := range l.Decisions() {
		if d.Stage != 1 {
			t.Errorf("decision Stage = %d, want 1: %+v", d.Stage, d)
		}
		if len(d.Votes) != 1 {
			t.Errorf("decision Votes = %v, want a single stage-0 vote", d.Votes)
		}
	}
	for k, want := range base {
		g := got[k]
		if len(g) != len(want) {
			t.Fatalf("flow %s: %d decisions, want %d", k, len(g), len(want))
			continue
		}
		for i := range want {
			// Same labels; votes/stage legitimately differ.
			wl, gl := want[i][:len("label=x")], g[i][:len("label=x")]
			if wl != gl {
				t.Errorf("flow %s seq %d label diverged: %s vs %s", k, i, want[i], g[i])
			}
		}
	}
	assertAccounting(t, l)
}

// TestLiveTriageCheckpoint pins that the cascade coexists with the
// checkpoint barrier: a snapshot captured mid-stream with triage on
// restores cleanly, and the restored pipeline keeps early-exiting.
func TestLiveTriageCheckpoint(t *testing.T) {
	dir := t.TempDir()
	mk := func() *Live {
		cfg := liveConfig(attackDetector())
		cfg.Shards = 4
		cfg.PredictBatch = 8
		cfg.CheckpointDir = dir
		cfg.Triage = true
		cfg.TriageThreshold = 0.9
		cfg.TriageModel = probaModel{stubModel: attackDetector(), conf: 1}
		l, err := NewLive(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	a := mk()
	a.Start()
	for i := 0; i < 40; i++ {
		a.Ingest(liveObs(uint16(4000+i%4), 40, true, "synflood"))
	}
	if !waitFor(t, 10*time.Second, func() bool { return len(a.Decisions()) == 40 }) {
		t.Fatalf("decisions = %d, want 40", len(a.Decisions()))
	}
	if _, n, err := a.WriteCheckpoint(); err != nil || n == 0 {
		t.Fatalf("checkpoint with triage on: n=%d err=%v", n, err)
	}
	a.Stop()

	b := mk()
	if b.Restore() == nil {
		t.Fatal("restored pipeline reports no checkpoint")
	}
	b.Start()
	defer b.Stop()
	for i := 0; i < 20; i++ {
		b.Ingest(liveObs(uint16(4000+i%4), 40, true, "synflood"))
	}
	if !waitFor(t, 10*time.Second, func() bool { return len(b.Decisions()) == 20 }) {
		t.Fatalf("post-restore decisions = %d, want 20", len(b.Decisions()))
	}
	for _, d := range b.Decisions() {
		if d.Stage != 1 {
			t.Errorf("post-restore decision Stage = %d, want 1", d.Stage)
		}
	}
}
