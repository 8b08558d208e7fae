package experiment

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"github.com/amlight/intddos/internal/core"
	"github.com/amlight/intddos/internal/fault"
	"github.com/amlight/intddos/internal/ml"
	"github.com/amlight/intddos/internal/ml/bayes"
	"github.com/amlight/intddos/internal/ml/forest"
	"github.com/amlight/intddos/internal/ml/knn"
	"github.com/amlight/intddos/internal/ml/neural"
	"github.com/amlight/intddos/internal/telemetry"
	"github.com/amlight/intddos/internal/traffic"
)

// Every ensemble member reports its trained input width, so the live
// runtime can reject a model/scaler bundle whose shapes disagree at
// construction instead of panicking a shard at the first batch.
var (
	_ ml.FeatureCounter = (*forest.Forest)(nil)
	_ ml.FeatureCounter = (*bayes.GaussianNB)(nil)
	_ ml.FeatureCounter = (*knn.KNN)(nil)
	_ ml.FeatureCounter = (*neural.Network)(nil)
)

// ChaosConfig parameterizes a chaos replay: the Table VI training
// setup, driven through the wall-clock runtime under a deterministic
// fault schedule.
type ChaosConfig struct {
	Scale string
	Seed  int64
	// PacketsPerType bounds the replay (default 1000 INT reports per
	// flow type).
	PacketsPerType int
	// FaultSpec is the schedule, in the fault clause grammar
	// ("drop=0.01,store.err=0.1,panic=0.02", ...).
	FaultSpec string
	// FaultSeed seeds the schedule for deterministic replay.
	FaultSeed int64
	// Shards sizes the pipeline (default 4).
	Shards int
	// DrainOnStop selects the shutdown policy under test.
	DrainOnStop bool
	// CheckpointDir, when set, makes the run crash-recoverable: the
	// pipeline resumes from the newest checkpoint in the directory and
	// snapshots into it every CheckpointEvery (plus once on Stop when
	// periodic checkpointing is off). CheckpointFullEvery sets the
	// full-snapshot cadence — every Nth checkpoint is full, the rest
	// incremental deltas (0/1: every checkpoint full).
	CheckpointDir       string
	CheckpointEvery     time.Duration
	CheckpointFullEvery int

	// DiagBundleDir, when set, captures a diagnostic bundle (profiles,
	// metrics, health, events — see obs.Registry.WriteBundle) into the
	// directory when the run fails its accounting invariant, so a
	// flaky chaos failure leaves its evidence behind.
	DiagBundleDir string
}

// ChaosResult summarizes how the live pipeline degraded — and what it
// still delivered — under an injected fault schedule.
type ChaosResult struct {
	Ensemble []string

	// Ledger is the pipeline's accounting after Stop. Its Closed is the
	// chaos invariant: every record handed off ended as a decision, a
	// shed, or a reasoned abandonment.
	Ledger            core.Ledger
	AbandonedByReason map[string]int64

	StoreRetries                  int64
	WorkerRestarts, ModelFailures int64
	Health                        string
	Transitions                   []string
	FaultSummary                  string
	TaintedFlows                  int
	// Checkpoints counts snapshots written; Restored describes the
	// checkpoint the run resumed from (nil on a fresh boot).
	Checkpoints int64
	Restored    *core.RestoreSummary
	// DiagBundle is the path of the diagnostic bundle captured when
	// the invariant failed (empty otherwise).
	DiagBundle string
}

// RunChaos trains the stage-2 ensemble, replays the mixed workload's
// INT reports through the wall-clock runtime under the given fault
// schedule, and reports the degradation summary. With an empty
// FaultSpec it is a clean run (useful as the comparison baseline).
func RunChaos(cfg ChaosConfig) (*ChaosResult, error) {
	if cfg.PacketsPerType <= 0 {
		cfg.PacketsPerType = 1000
	}
	if cfg.Shards == 0 {
		cfg.Shards = 4
	}
	injector, err := fault.Parse(cfg.FaultSpec, cfg.FaultSeed)
	if err != nil {
		return nil, err
	}

	lcfg := LiveConfig{Scale: cfg.Scale, Seed: cfg.Seed, PacketsPerType: cfg.PacketsPerType}
	lcfg.fillDefaults()
	w := traffic.Build(traffic.ConfigForScale(cfg.Scale, cfg.Seed))
	models, scaler, names, _, err := trainStageTwo(lcfg, w)
	if err != nil {
		return nil, err
	}

	// Materialize the sink's INT reports once; the live loop replays
	// them at wall-clock pace.
	maxReports := (len(traffic.AttackTypes) + 1) * cfg.PacketsPerType
	reports, _, err := materializeReports(w, maxReports, "", 0)
	if err != nil {
		return nil, err
	}
	live, err := feedLive(core.LiveConfig{
		Models:               models,
		Scaler:               scaler,
		Shards:               cfg.Shards,
		Fault:                injector,
		DrainOnStop:          cfg.DrainOnStop,
		WorkerRestartBackoff: time.Millisecond,
		StoreRetryBackoff:    200 * time.Microsecond,
		CheckpointDir:        cfg.CheckpointDir,
		CheckpointEvery:      cfg.CheckpointEvery,
		CheckpointFullEvery:  cfg.CheckpointFullEvery,
	}, func(emit func(*telemetry.Report)) {
		for _, r := range reports {
			emit(r)
		}
	})
	if err != nil {
		return nil, err
	}
	if cfg.CheckpointDir != "" && cfg.CheckpointEvery <= 0 {
		// No periodic checkpointer: take the final snapshot explicitly
		// so a follow-up run resumes from the end of this one.
		if _, _, err := live.WriteCheckpoint(); err != nil {
			return nil, err
		}
	}
	live.Stop()

	res := &ChaosResult{
		Ensemble:          names,
		Ledger:            live.Ledger(),
		AbandonedByReason: live.AbandonedByReason(),
		StoreRetries:      live.StoreRetries.Load(),
		WorkerRestarts:    live.WorkerRestarts.Load(),
		ModelFailures:     live.ModelFailures.Load(),
		Health:            live.Health().String(),
		Transitions:       live.HealthTransitions(),
		FaultSummary:      injector.Summary(),
		TaintedFlows:      injector.TaintCount(),
		Checkpoints:       live.Checkpoints.Load(),
		Restored:          live.Restore(),
	}
	if !res.Ledger.Closed() && cfg.DiagBundleDir != "" {
		if path, err := writeDiagBundle(cfg.DiagBundleDir, live); err == nil {
			res.DiagBundle = path
		}
	}
	return res, nil
}

// writeDiagBundle captures the pipeline's diagnostic bundle into dir,
// returning the file written. Filenames carry the pid and a sequence
// suffix instead of a timestamp so repeated failures in one process
// never overwrite each other.
func writeDiagBundle(dir string, live *core.Live) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	seq := diagBundleSeq.Add(1)
	path := filepath.Join(dir, fmt.Sprintf("chaos-%d-%03d.tar.gz", os.Getpid(), seq))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := live.Obs().WriteBundle(f); err != nil {
		f.Close()
		os.Remove(path)
		return "", err
	}
	return path, f.Close()
}

var diagBundleSeq atomic.Int64

// FormatChaos renders a chaos run's degradation summary.
func FormatChaos(r *ChaosResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "CHAOS RUN: ensemble %s\n", strings.Join(r.Ensemble, "+"))
	fmt.Fprintf(&b, "  %s\n", r.Ledger)
	if len(r.AbandonedByReason) > 0 {
		reasons := make([]string, 0, len(r.AbandonedByReason))
		for reason, n := range r.AbandonedByReason {
			reasons = append(reasons, fmt.Sprintf("%s=%d", reason, n))
		}
		sort.Strings(reasons)
		fmt.Fprintf(&b, "  abandoned by reason: %s\n", strings.Join(reasons, ", "))
	}
	fmt.Fprintf(&b, "  store: retries=%d; shards: restarts=%d; models: failures=%d\n",
		r.StoreRetries, r.WorkerRestarts, r.ModelFailures)
	fmt.Fprintf(&b, "  faults fired: %s; tainted flows: %d\n", r.FaultSummary, r.TaintedFlows)
	if rs := r.Restored; rs != nil {
		fmt.Fprintf(&b, "  restored: seq=%d flows=%d store_flows=%d journal_pending=%d windows=%d predictions=%d\n",
			rs.Seq, rs.Flows, rs.StoreFlows, rs.JournalPending, rs.Windows, rs.Predictions)
	}
	if r.Checkpoints > 0 {
		fmt.Fprintf(&b, "  checkpoints written: %d\n", r.Checkpoints)
	}
	fmt.Fprintf(&b, "  final health: %s\n", r.Health)
	for _, tr := range r.Transitions {
		fmt.Fprintf(&b, "    transition: %s\n", tr)
	}
	if r.DiagBundle != "" {
		fmt.Fprintf(&b, "  diagnostic bundle: %s\n", r.DiagBundle)
	}
	return b.String()
}
