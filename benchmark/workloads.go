package main

import (
	"time"

	"github.com/amlight/intddos/internal/core"
)

// workload is one offered load and the pipeline configuration it runs
// against. Every workload is open loop and paced below half of one
// core: on a shared box that is the only regime in which time-based
// numbers repeated within a tenth (see README.md, "Rejected workloads").
type workload struct {
	name string
	// rate is rows per second, a multiple of 1000: the generator sends
	// rate/1000 rows at each 1 ms tick.
	rate int
	// churn opens a new five-tuple every two rows, half of them
	// attack-labelled, instead of replaying steadyFlows long-lived flows
	// at 95 % benign.
	churn bool
	// minAccuracy is the floor below which the run is reported as
	// incorrect: about 0.02 under the lowest accuracy seen over seeds
	// 1–10 (README.md, noise table).
	minAccuracy float64
	// configure sets the knobs under test on a zero LiveConfig.
	configure func(*core.LiveConfig)
}

func tuned(c *core.LiveConfig) {
	c.Shards, c.Workers, c.PredictBatch = 4, 2, 32
	// The default QueueCap of 4096 is divided across workers: 2048 rows
	// each, 0.2 s of this load. One run in about 130 here, a worker's
	// vCPU stalled for longer than that while the pollers kept running,
	// and 3 942 rows were shed. With 0.8 s of room the same stall delays
	// rows in one window instead of failing them; the queues are near
	// empty otherwise, so nothing else moves.
	c.QueueCap = 16384
}

var workloads = []workload{
	// Every knob at its zero value, what intddos -live runs: one store,
	// one worker, record-at-a-time scoring. ml is the largest busy layer
	// here, with no batch amortisation.
	// At 20 000 rows/s its one worker ran 0.64 of a core here and
	// the 1 s windows' p90 age ranged 5.5–60 ms, so it is paced at 10 000.
	{name: "default", rate: 10000, minAccuracy: 0.97, configure: func(*core.LiveConfig) {}},
	// Batches form from each poll's burst, so ml shrinks and core
	// plumbing plus store dominate.
	{name: "tuned", rate: 20000, minAccuracy: 0.97, configure: tuned},
	// The same bytes as tuned, through the sketch and cascade exit
	// instead of the full ensemble: a gain for one scoring path that
	// costs the other shows as a split between the two rows.
	{
		name: "tuned-triage", rate: 20000, minAccuracy: 0.97,
		configure: func(c *core.LiveConfig) {
			tuned(c)
			c.Triage, c.TriageThreshold = true, core.DefaultTriageThreshold
		},
	},
	// The spoofed-source flood shape: flow create, store insert,
	// vote-window create, sweep and delete do most of the work, and ml
	// sees only immature features.
	{
		name: "churn", rate: 10000, churn: true, minAccuracy: 0.91,
		configure: func(c *core.LiveConfig) {
			tuned(c)
			c.FlowIdleTimeout, c.SweepInterval = 2*time.Second, 500*time.Millisecond
		},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// liveConfig is the LiveConfig workload w runs with models from p.
func liveConfig(w workload, p *pool) core.LiveConfig {
	cfg := core.LiveConfig{Models: p.models, Scaler: p.scaler}
	w.configure(&cfg)
	return cfg
}
