package experiment

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"github.com/amlight/intddos/internal/core"
	"github.com/amlight/intddos/internal/fault"
	"github.com/amlight/intddos/internal/ml"
	"github.com/amlight/intddos/internal/netsim"
	"github.com/amlight/intddos/internal/telemetry"
	"github.com/amlight/intddos/internal/testbed"
	"github.com/amlight/intddos/internal/traffic"
)

// SoakConfig parameterizes a long-running resilience run: the live
// pipeline fed for several passes over the diurnal workload's INT
// reports, with the report wire impaired (netem), the feed scrambled
// (duplicates, bounded reordering, stale stragglers), and a fault
// schedule firing inside the pipeline — all deterministic under the
// seeds.
type SoakConfig struct {
	Scale string
	Seed  int64
	// Passes is how many times the workload's reports replay through
	// the pipeline (default 3). Each pass offsets the sequence space
	// far enough that the dedup tracker re-seeds cleanly, as a
	// restarted exporter would.
	Passes int
	// PacketsPerType bounds each pass (default 500 reports per flow
	// type).
	PacketsPerType int

	// Netem is the sub-clause impairment for the agent→collector
	// report wire during materialization (default
	// "loss=1%,dup=0.1%,delay=20us,jitter=40us"; "-" disables).
	Netem     string
	NetemSeed int64

	// FaultSpec fires inside the pipeline (default
	// "drop=0.005,store.err=0.02"; "-" disables). FaultSeed seeds it.
	FaultSpec string
	FaultSeed int64

	// DedupWindow is the pipeline's per-source window (default 16).
	DedupWindow int
	// Shards sizes the pipeline (default 4).
	Shards int

	// MaxAccuracyLossPP is the soak invariant: the scrambled run's
	// decision accuracy may trail the clean run's by at most this many
	// percentage points (default 10).
	MaxAccuracyLossPP float64
}

// SoakResult summarizes the run and its two closure invariants.
type SoakResult struct {
	Ensemble []string
	Passes   int

	// Ledger is the soak pipeline's accounting after Stop; the run's
	// two invariants are its ReportsClosed and Closed.
	Ledger             core.Ledger
	Reordered, SeqGaps int64

	// LinkStats is the materialization wire's impairment ledger.
	LinkStats map[string]netsim.ImpairStats

	// Accuracy of the scrambled soak vs an unimpaired single-pass
	// feed of the same pipeline configuration.
	CleanAccuracy float64
	SoakAccuracy  float64
	DeltaPP       float64

	Health       string
	FaultSummary string
}

// soakScrambler injects feed-side adversity deterministically: a
// bounded reorder buffer, immediate duplicate re-emissions, and deep
// stale re-emissions from a history ring.
type soakScrambler struct {
	rng     *rand.Rand
	window  []*telemetry.Report
	history []*telemetry.Report
	emit    func(*telemetry.Report)
}

func (s *soakScrambler) feed(r *telemetry.Report) {
	s.window = append(s.window, r)
	if len(s.window) < 4 {
		return
	}
	i := s.rng.Intn(len(s.window))
	out := s.window[i]
	s.window = append(s.window[:i], s.window[i+1:]...)
	s.out(out)
}

func (s *soakScrambler) out(r *telemetry.Report) {
	s.emit(r)
	s.history = append(s.history, r)
	if len(s.history) > 64 {
		s.history = s.history[1:]
	}
	switch roll := s.rng.Float64(); {
	case roll < 0.02: // duplicate: same report again, back to back
		s.emit(r)
	case roll < 0.04 && len(s.history) == 64: // stale straggler from deep history
		s.emit(s.history[0])
	}
}

func (s *soakScrambler) flush() {
	for len(s.window) > 0 {
		i := s.rng.Intn(len(s.window))
		out := s.window[i]
		s.window = append(s.window[:i], s.window[i+1:]...)
		s.out(out)
	}
}

// RunSoak trains the stage-2 ensemble once, then drives two pipelines
// with it: a clean single-pass baseline, and the soak — several
// passes of netem-impaired, feed-scrambled reports under an internal
// fault schedule — asserting that accounting still closes and
// accuracy degrades gracefully.
func RunSoak(cfg SoakConfig) (*SoakResult, error) {
	if cfg.Passes <= 0 {
		cfg.Passes = 3
	}
	if cfg.PacketsPerType <= 0 {
		cfg.PacketsPerType = 500
	}
	switch cfg.Netem {
	case "":
		cfg.Netem = "loss=1%,dup=0.1%,delay=20us,jitter=40us"
	case "-":
		cfg.Netem = ""
	}
	switch cfg.FaultSpec {
	case "":
		cfg.FaultSpec = "drop=0.005,store.err=0.02"
	case "-":
		cfg.FaultSpec = ""
	}
	if cfg.DedupWindow <= 0 {
		cfg.DedupWindow = 16
	}
	if cfg.Shards == 0 {
		cfg.Shards = 4
	}
	if cfg.MaxAccuracyLossPP <= 0 {
		cfg.MaxAccuracyLossPP = 10
	}

	lcfg := LiveConfig{Scale: cfg.Scale, Seed: cfg.Seed, PacketsPerType: cfg.PacketsPerType}
	lcfg.fillDefaults()
	w := traffic.Build(traffic.ConfigForScale(cfg.Scale, cfg.Seed))
	models, scaler, names, _, err := trainStageTwo(lcfg, w)
	if err != nil {
		return nil, err
	}

	maxReports := (len(traffic.AttackTypes) + 1) * cfg.PacketsPerType
	cleanReports, _, err := materializeReports(w, maxReports, "", 0)
	if err != nil {
		return nil, err
	}
	impReports, linkStats, err := materializeReports(w, maxReports, cfg.Netem, cfg.NetemSeed)
	if err != nil {
		return nil, err
	}

	res := &SoakResult{Ensemble: names, Passes: cfg.Passes, LinkStats: linkStats}

	// Clean baseline: one unimpaired pass, no scrambling, no faults.
	res.CleanAccuracy, _, err = soakFeed(models, scaler, cfg, nil, func(emit func(*telemetry.Report)) {
		for _, r := range cleanReports {
			emit(r)
		}
	})
	if err != nil {
		return nil, err
	}

	// The soak: Passes × impaired reports, scrambled, under faults.
	injector, err := fault.Parse(cfg.FaultSpec, cfg.FaultSeed)
	if err != nil {
		return nil, err
	}
	var live *core.Live
	res.SoakAccuracy, live, err = soakFeed(models, scaler, cfg, injector, func(emit func(*telemetry.Report)) {
		sc := &soakScrambler{rng: rand.New(rand.NewSource(cfg.Seed + 7)), emit: emit}
		for pass := 0; pass < cfg.Passes; pass++ {
			// Each pass jumps the sequence space like a restarted
			// exporter; the dedup tracker absorbs it as a stream reset.
			offset := uint64(pass) << 32
			for _, r := range impReports {
				r2 := *r
				r2.Seq += offset
				sc.feed(&r2)
			}
			sc.flush()
		}
	})
	if err != nil {
		return nil, err
	}
	res.Ledger = live.Ledger()
	res.Reordered = live.Reordered.Load()
	res.SeqGaps = live.SeqGaps.Load()
	res.Health = live.Health().String()
	res.FaultSummary = injector.Summary()
	res.DeltaPP = (res.SoakAccuracy - res.CleanAccuracy) * 100
	return res, nil
}

// materializeReports replays the workload through the testbed
// (optionally netem-impaired on the report wire) and returns the
// sink's reports, for a live loop to replay at wall-clock pace.
func materializeReports(w *traffic.Workload, maxReports int, netem string, netemSeed int64) ([]*telemetry.Report, map[string]netsim.ImpairStats, error) {
	tcfg := testbed.Config{NetemSeed: netemSeed}
	if netem != "" {
		spec, err := fault.ParseNetem(
			fmt.Sprintf("netem[link=%s]:%s", testbed.LinkAgentCollector, netem))
		if err != nil {
			return nil, nil, err
		}
		tcfg.Netem = spec
	}
	tb := testbed.New(tcfg)
	var reports []*telemetry.Report
	tb.Collector.OnReport = func(r *telemetry.Report, _ netsim.Time) {
		if len(reports) < maxReports {
			reports = append(reports, r)
		}
	}
	rp := tb.Replayer(w.Records)
	rp.MaxPackets = maxReports
	rp.Start()
	tb.Run()
	if len(reports) == 0 {
		return nil, nil, fmt.Errorf("experiment: no INT reports collected")
	}
	return reports, tb.ImpairedStats(), nil
}

// feedLive builds and starts a pipeline, replays the feed through
// HandleReport at wall-clock pace, and waits — bounded, because a
// harness must not hang — for its ledger to settle. The caller stops
// the returned pipeline.
func feedLive(cfg core.LiveConfig, feed func(emit func(*telemetry.Report))) (*core.Live, error) {
	live, err := core.NewLive(cfg)
	if err != nil {
		return nil, err
	}
	live.Start()
	fed := 0
	feed(func(r *telemetry.Report) {
		live.HandleReport(r)
		if fed++; fed%128 == 127 {
			time.Sleep(time.Millisecond) // a paced feed, not one burst past the shard queues
		}
	})
	live.AwaitSettled(30 * time.Second)
	return live, nil
}

// soakFeed runs one pipeline configuration over the feed and returns
// its decision accuracy against ground truth plus the (stopped)
// pipeline for ledger inspection.
func soakFeed(models []ml.Classifier, scaler *ml.StandardScaler, cfg SoakConfig, injector *fault.Injector, feed func(emit func(*telemetry.Report))) (float64, *core.Live, error) {
	live, err := feedLive(core.LiveConfig{
		Models:               models,
		Scaler:               scaler,
		Shards:               cfg.Shards,
		Fault:                injector,
		DedupWindow:          cfg.DedupWindow,
		WorkerRestartBackoff: time.Millisecond,
		StoreRetryBackoff:    200 * time.Microsecond,
	}, feed)
	if err != nil {
		return 0, nil, err
	}
	live.Stop()
	decs := live.Decisions()
	if len(decs) == 0 {
		return 0, nil, fmt.Errorf("soak: pipeline produced no decisions")
	}
	correct := 0
	for _, d := range decs {
		if d.Correct() {
			correct++
		}
	}
	return float64(correct) / float64(len(decs)), live, nil
}

// FormatSoak renders a soak run's summary.
func FormatSoak(r *SoakResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "SOAK RUN: ensemble %s, %d passes\n", strings.Join(r.Ensemble, "+"), r.Passes)
	for name, ls := range r.LinkStats {
		fmt.Fprintf(&b, "  wire %s: sent=%d delivered=%d lost=%d dup=%d reordered=%d\n",
			name, ls.Sent, ls.Delivered, ls.Lost, ls.Duplicated, ls.Reordered)
	}
	fmt.Fprintf(&b, "  %s\n  report side closed: %t; reordered=%d gaps=%d\n",
		r.Ledger, r.Ledger.ReportsClosed(), r.Reordered, r.SeqGaps)
	fmt.Fprintf(&b, "  accuracy: clean=%.2f%% soak=%.2f%% (Δ %+.2f pp)\n",
		r.CleanAccuracy*100, r.SoakAccuracy*100, r.DeltaPP)
	fmt.Fprintf(&b, "  faults fired: %s; final health: %s\n", r.FaultSummary, r.Health)
	return b.String()
}
