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
// wall-clock runtime as one burst — the shard is parked behind its
// barrier while the whole feed queues — and returns each flow's
// decisions (label and votes) indexed by sequence number, plus how many
// scoring calls the burst took. Wall-clock timestamps differ run to
// run, so the invariant under batching is the per-flow label/vote
// sequence, which shard affinity plus in-order batch finishing must
// preserve.
func runLiveBatch(t *testing.T, predictBatch int) (byFlow map[string][]string, calls uint64) {
	t.Helper()
	cfg := liveConfig(attackDetector(), countVoter(20), namedDetector("c"))
	cfg.PredictBatch = predictBatch
	l := startLive(t, cfg)
	defer l.Stop()
	const per = 40
	for s := range l.ckptMu {
		l.ckptMu[s].Lock()
	}
	for i := 0; i < per; i++ {
		l.ingestAsync(liveObs(7, 40, true, "synflood"))
		l.ingestAsync(liveObs(8, 1000, false, "benign"))
	}
	for s := range l.ckptMu {
		l.ckptMu[s].Unlock()
	}
	if !waitFor(t, 5*time.Second, func() bool { return len(l.Decisions()) == 2*per }) {
		t.Fatalf("decisions = %d, want %d", len(l.Decisions()), 2*per)
	}
	byFlow = make(map[string][]string)
	for _, d := range l.Decisions() {
		k := d.Key.String()
		for len(byFlow[k]) <= d.Seq {
			byFlow[k] = append(byFlow[k], "missing")
		}
		byFlow[k][d.Seq] = fmt.Sprint(d.Label, d.Votes)
	}
	return byFlow, l.met.batchSize.Snapshot().Count
}

// TestLivePredictBatchEquivalence requires the micro-batched shards
// to decide every flow update exactly as the record-at-a-time pipeline
// does — same label, same votes, same Seq — whatever batches the burst
// is cut into, including the zero-config default that scores a burst
// maxScoreBatch rows a call.
func TestLivePredictBatchEquivalence(t *testing.T) {
	base, calls := runLiveBatch(t, 1)
	if calls != 80 {
		t.Fatalf("batch=1: %d scoring calls for 80 rows", calls)
	}
	for _, batch := range []int{0, 8, 32} {
		got, calls := runLiveBatch(t, batch)
		size := batch
		if size == 0 {
			size = maxScoreBatch
		}
		if want := uint64((80 + size - 1) / size); calls != want {
			t.Errorf("batch=%d: one 80-row burst took %d scoring calls, want %d", batch, calls, want)
		}
		if len(got) != len(base) {
			t.Fatalf("batch=%d: %d flows, want %d", batch, len(got), len(base))
		}
		for k, decided := range base {
			if fmt.Sprint(got[k]) != fmt.Sprint(decided) {
				t.Errorf("batch=%d flow %s decisions diverged:\nbatch=1: %v\nbatched: %v",
					batch, k, decided, got[k])
			}
		}
	}
}
