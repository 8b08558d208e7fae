package core

import (
	"fmt"
	"testing"
	"time"

	"github.com/amlight/intddos/internal/netsim"
)

// runMechanism replays a deterministic mixed workload — two attack
// flows and one benign flow interleaved — through a simulated
// mechanism with the given scoring batch size and returns the full
// decision log.
func runMechanism(t *testing.T, predictBatch int) []Decision {
	t.Helper()
	eng := netsim.NewEngine()
	cfg := testConfig(attackDetector())
	cfg.PredictBatch = predictBatch
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
	return m.Decisions
}

// TestMechanismPredictBatchInvariant pins the scored-prefix design:
// batching the Prediction module's queue scoring must not move a
// single decision — same keys, sequence numbers, labels, votes, and
// timestamps as record-at-a-time scoring, for batch sizes from the
// degenerate 1 through larger than the queue ever gets.
func TestMechanismPredictBatchInvariant(t *testing.T) {
	base := runMechanism(t, 1)
	if len(base) != 30 {
		t.Fatalf("baseline decisions = %d, want 30", len(base))
	}
	for _, k := range []int{0, 2, 32, 1024} {
		got := runMechanism(t, k)
		if len(got) != len(base) {
			t.Fatalf("PredictBatch=%d: %d decisions, want %d", k, len(got), len(base))
		}
		for i := range base {
			b, g := base[i], got[i]
			if b.Key != g.Key || b.Seq != g.Seq || b.Label != g.Label ||
				b.At != g.At || b.Latency != g.Latency ||
				fmt.Sprint(b.Votes) != fmt.Sprint(g.Votes) {
				t.Errorf("PredictBatch=%d decision %d diverged:\nbatch=1: %+v\nbatch=%d: %+v", k, i, b, k, g)
			}
		}
	}
}

// runLiveBatch replays the same deterministic workload through the
// wall-clock runtime and returns each flow's decision labels indexed
// by sequence number. Wall-clock timestamps differ run to run, so the
// invariant under batching is the per-flow label/vote sequence, which
// shard affinity plus in-order batch finishing must preserve.
func runLiveBatch(t *testing.T, predictBatch int) map[string][]int {
	t.Helper()
	cfg := liveConfig(attackDetector())
	cfg.PredictBatch = predictBatch
	l, err := NewLive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l.Start()
	defer l.Stop()
	const per = 40
	for i := 0; i < per; i++ {
		l.Ingest(liveObs(7, 40, true, "synflood"))
		l.Ingest(liveObs(8, 1000, false, "benign"))
	}
	if !waitFor(t, 5*time.Second, func() bool { return len(l.Decisions()) == 2*per }) {
		t.Fatalf("decisions = %d, want %d", len(l.Decisions()), 2*per)
	}
	byFlow := make(map[string][]int)
	for _, d := range l.Decisions() {
		k := d.Key.String()
		for len(byFlow[k]) <= d.Seq {
			byFlow[k] = append(byFlow[k], -1)
		}
		byFlow[k][d.Seq] = d.Label
	}
	return byFlow
}

// TestLivePredictBatchEquivalence requires the micro-batched workers
// to label every flow update exactly as the record-at-a-time pipeline
// does, whatever batches the backlog happens to form.
func TestLivePredictBatchEquivalence(t *testing.T) {
	base := runLiveBatch(t, 1)
	for _, batch := range []int{8, 32} {
		got := runLiveBatch(t, batch)
		if len(got) != len(base) {
			t.Fatalf("batch=%d: %d flows, want %d", batch, len(got), len(base))
		}
		for k, labels := range base {
			if fmt.Sprint(got[k]) != fmt.Sprint(labels) {
				t.Errorf("batch=%d flow %s labels diverged:\nbatch=1: %v\nbatched: %v",
					batch, k, labels, got[k])
			}
		}
	}
}
