package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/amlight/intddos/internal/flow"
	"github.com/amlight/intddos/internal/ml"
	"github.com/amlight/intddos/internal/netsim"
)

// diffObservations draws a seeded observation sequence over a handful
// of flows with preset arrival stamps, so both clock drivers derive the
// same feature snapshots from it.
func diffObservations(seed int64, n int) []flow.PacketInfo {
	rng := rand.New(rand.NewSource(seed))
	sizes := []int{40, 300, 700, 1000}
	out := make([]flow.PacketInfo, n)
	at := netsim.Millisecond
	for i := range out {
		at += netsim.Time(1+rng.Intn(200)) * netsim.Microsecond
		size := sizes[rng.Intn(len(sizes))]
		out[i] = simObs(uint16(100+rng.Intn(12)), at, size, size < 500, "mixed")
	}
	return out
}

// flowVerdicts groups a decision log per flow, keeping the fields the
// two drivers must agree on. At and Latency are the timing-only fields:
// one clock is simulated, the other is the wall's.
func flowVerdicts(ds []Decision) map[string][]string {
	out := make(map[string][]string)
	for _, d := range ds {
		k := d.Key.String()
		out[k] = append(out[k], fmt.Sprintf("seq=%d votes=%v stage=%d label=%d", d.Seq, d.Votes, d.Stage, d.Label))
	}
	return out
}

// TestLiveMatchesMechanism is the differential oracle the shared
// scorer makes possible: the simulated and the wall-clock driver, fed
// one observation sequence, must reach the same per-flow decision
// sequence at any batch size and shard count, with triage off or wired
// in but inert.
func TestLiveMatchesMechanism(t *testing.T) {
	// The votes depend on the current packet, on the flow's running
	// mean, and on its age, so they change over a flow's life.
	models := []ml.Classifier{
		stubModel{name: "size", index: 1, thresh: 500},
		stubModel{name: "avg", index: 3, thresh: 500},
		stubModel{name: "young", index: 12, thresh: 4},
	}
	const n = 600
	obs := diffObservations(20241001, n)
	for _, triage := range []bool{false, true} {
		for _, batch := range []int{1, 32} {
			for _, shards := range []int{0, 4} {
				name := fmt.Sprintf("triage=%t/batch=%d/shards=%d", triage, batch, shards)
				t.Run(name, func(t *testing.T) {
					var stage0 ml.Classifier
					if triage { // threshold 0: the cascade runs, every row falls through
						stage0 = probaModel{stubModel: models[0].(stubModel), conf: 1}
					}

					eng := netsim.NewEngine()
					mcfg := testConfig(models...)
					mcfg.PredictBatch = batch
					mcfg.Triage, mcfg.TriageModel = triage, stage0
					m, err := New(eng, mcfg)
					if err != nil {
						t.Fatal(err)
					}
					m.Start()
					for _, pi := range obs {
						pi := pi
						eng.Schedule(pi.At, func() { m.Observe(pi) })
					}
					eng.RunUntil(10 * netsim.Second)
					if len(m.Decisions) != n {
						t.Fatalf("mechanism decided %d of %d", len(m.Decisions), n)
					}

					lcfg := liveConfig(models...)
					lcfg.PredictBatch, lcfg.Shards = batch, shards
					lcfg.Triage, lcfg.TriageModel = triage, stage0
					lcfg.DrainOnStop = true
					lcfg.QueueCap = 4 * n // nothing sheds
					l := startLive(t, lcfg)
					for _, pi := range obs {
						l.Ingest(pi)
					}
					waitFor(t, 10*time.Second, func() bool { return l.DecisionCount() == n })
					l.Stop()
					if got := l.DecisionCount(); got != n || l.Shed.Load() != 0 || l.Abandoned.Load() != 0 {
						t.Fatalf("live decided %d of %d (shed=%d abandoned=%d)", got, n, l.Shed.Load(), l.Abandoned.Load())
					}

					want, got := flowVerdicts(m.Decisions), flowVerdicts(l.Decisions())
					if len(got) != len(want) {
						t.Fatalf("live saw %d flows, mechanism %d", len(got), len(want))
					}
					for k, w := range want {
						g := got[k]
						if len(g) != len(w) {
							t.Errorf("flow %s: live made %d decisions, mechanism %d", k, len(g), len(w))
							continue
						}
						for i := range w {
							if g[i] != w[i] {
								t.Errorf("flow %s decision %d:\n live      %s\n mechanism %s", k, i, g[i], w[i])
								break
							}
						}
					}
				})
			}
		}
	}
}
