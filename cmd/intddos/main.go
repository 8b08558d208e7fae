// Command intddos runs the automated DDoS detection mechanism live
// on the simulated Figure 6 testbed: it pre-trains the MLP+RF+GNB
// ensemble (SlowLoris held out as a zero-day attack), replays traffic
// through the INT pipeline, and streams per-flow decisions.
//
// Usage:
//
//	intddos [-scale small] [-seed 42] [-packets 2500] [-trace file.amtr] [-v]
//	intddos -live [-obs-addr :9090] [-live-for 1m] [-checkpoint-dir dir] [-diag-bundle out.tar.gz]
//	intddos -live [-netem "netem[link=agent->collector]:loss=1%,dup=0.1%"] [-dedup-window 16]
//
// With -trace the replayed traffic comes from a capture written by
// datagen instead of a generated workload. With -live the pipeline
// runs as concurrent goroutines on the wall clock (the deployment
// mode) and -obs-addr serves /metrics (Prometheus text), /healthz,
// /traces/flow, and /debug/pprof while it does.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/amlight/intddos"
)

func main() {
	scale := flag.String("scale", intddos.ScaleSmall, "workload scale: tiny, small, or full")
	seed := flag.Int64("seed", 42, "experiment seed")
	packets := flag.Int("packets", 2500, "packets replayed per flow type")
	tracePath := flag.String("trace", "", "optional .amtr trace to replay instead of the built-in workload")
	saveBundle := flag.String("save-bundle", "", "train the ensemble and write it to this bundle file, then exit")
	bundlePath := flag.String("bundle", "", "detect over -trace using a pre-trained bundle instead of training")
	obsAddr := flag.String("obs-addr", "", "serve /metrics, /healthz, /traces/flow and pprof on this address (e.g. :9090)")
	liveMode := flag.Bool("live", false, "run the wall-clock concurrent pipeline instead of the simulated replay")
	liveFor := flag.Duration("live-for", 0, "keep the -live replay looping for this long (0: one pass; implies looping until SIGINT when negative)")
	shards := flag.Int("shards", 0, "stripe the flow table, database, and dispatch over N shards (0: the paper's single-lock layout)")
	predictBatch := flag.Int("predict-batch", 0, "scoring micro-batch size (0/1: the paper's record-at-a-time prediction; results are identical at any size)")
	faultSpec := flag.String("fault-spec", "", "inject faults into the -live pipeline, e.g. \"drop=0.01,store.err=0.1,panic=0.02\" (see README: fault tolerance)")
	faultSeed := flag.Int64("fault-seed", 1, "seed for the deterministic fault schedule")
	netemSpec := flag.String("netem", "", "impair the -live replay's report wire, e.g. \"netem[link=agent->collector]:loss=1%,dup=0.1%\" (see README: adverse networks)")
	netemSeed := flag.Int64("netem-seed", 0, "seed for the -netem impairment RNGs (0: the experiment seed)")
	dedupWindow := flag.Int("dedup-window", 0, "per-source dedup/reorder window for the -live pipeline (0: admit every report, the paper's behavior)")
	checkpointDir := flag.String("checkpoint-dir", "", "make -live crash-recoverable: resume from the newest checkpoint in this directory and snapshot into it")
	checkpointEvery := flag.Duration("checkpoint-every", 10*time.Second, "periodic checkpoint interval for -live (0: only the final snapshot on exit)")
	checkpointFullEvery := flag.Int("checkpoint-full-every", 16, "write a self-contained full snapshot every Nth checkpoint and incremental deltas between (0/1: every checkpoint full)")
	checkpointCompress := flag.Bool("checkpoint-compress", false, "flate-compress checkpoint sections (smaller files, more CPU outside the capture barrier)")
	diagBundle := flag.String("diag-bundle", "", "write a diagnostic bundle (tar.gz of profiles, metrics, health, config, events) to this path when the -live run ends")
	profileDir := flag.String("profile-dir", "", "capture periodic CPU/mutex/block/goroutine/heap profiles into this directory during -live")
	profileEvery := flag.Duration("profile-every", 0, "profile capture period for -profile-dir (0: 30s)")
	triage := flag.Bool("triage", false, "enable tiered inference: sketch triage + stage-0 early exit before the full ensemble (off: the paper's exact pipeline)")
	triageThreshold := flag.Float64("triage-threshold", intddos.DefaultTriageThreshold, "stage-0 confidence |2p-1| required to early-exit a record")
	triageModel := flag.String("triage-model", "rf", "ensemble member serving cascade stage 0 (mlp, rf, or gnb; rf's calibrated probabilities gate best)")
	verbose := flag.Bool("v", false, "print every decision")
	flag.Parse()

	// The observability registry is shared by whichever pipeline runs;
	// serving it costs nothing when no metrics are registered yet.
	reg := intddos.NewObsRegistry()
	if *obsAddr != "" {
		srv, err := reg.ListenAndServe(*obsAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "intddos: obs:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Printf("observability endpoints on http://%s (/metrics /healthz /traces/flow /debug/pprof)\n", srv.Addr())
	}

	if *saveBundle != "" {
		trainAndSave(*saveBundle, *scale, *seed)
		return
	}
	if *liveMode {
		injector, err := intddos.ParseFaultSpec(*faultSpec, *faultSeed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "intddos:", err)
			os.Exit(1)
		}
		netem, err := intddos.ParseNetem(*netemSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "intddos:", err)
			os.Exit(1)
		}
		nseed := *netemSeed
		if nseed == 0 {
			nseed = *seed
		}
		runLive(*scale, *seed, *packets, *liveFor, *shards, *predictBatch, injector, netem, nseed, *dedupWindow, *checkpointDir, *checkpointEvery, *checkpointFullEvery, *checkpointCompress, *diagBundle, *profileDir, *profileEvery, *triage, *triageThreshold, *triageModel, reg, *verbose)
		return
	}
	if *faultSpec != "" {
		fmt.Fprintln(os.Stderr, "intddos: -fault-spec only applies to the -live pipeline")
		os.Exit(1)
	}
	if *netemSpec != "" || *dedupWindow != 0 {
		fmt.Fprintln(os.Stderr, "intddos: -netem and -dedup-window only apply to the -live pipeline")
		os.Exit(1)
	}
	if *checkpointDir != "" {
		fmt.Fprintln(os.Stderr, "intddos: -checkpoint-dir only applies to the -live pipeline")
		os.Exit(1)
	}
	if *diagBundle != "" || *profileDir != "" {
		fmt.Fprintln(os.Stderr, "intddos: -diag-bundle and -profile-dir only apply to the -live pipeline")
		os.Exit(1)
	}
	if *tracePath != "" {
		runTrace(*tracePath, *bundlePath, *seed, *verbose)
		return
	}

	live, err := intddos.RunTableVI(intddos.LiveConfig{
		Scale: *scale, Seed: *seed, PacketsPerType: *packets, Shards: *shards,
		PredictBatch: *predictBatch,
		Triage:       *triage, TriageThreshold: *triageThreshold, TriageModel: strings.ToUpper(*triageModel),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "intddos:", err)
		os.Exit(1)
	}
	if *verbose {
		for typ, ds := range live.Decisions {
			for _, d := range ds {
				status := "ok"
				if !d.Correct() {
					status = "MISS"
				}
				fmt.Printf("%-10s %-40s label=%d latency=%v %s\n", typ, d.Key, d.Label, d.Latency, status)
			}
		}
	}
	fmt.Print(intddos.FormatTableVI(live))
}

// runLive drives the wall-clock concurrent runtime (core.Live): it
// pre-trains an RF offline, replays the simulated sink's INT reports
// through the pipeline at wall-clock pace, and leaves the obs
// registry continuously scrapeable while doing so. A final metrics
// summary — counters, queue gauges, per-stage latency percentiles —
// is printed on exit.
func runLive(scale string, seed int64, packets int, liveFor time.Duration, shards, predictBatch int, injector *intddos.FaultInjector, netem intddos.NetemSpec, netemSeed int64, dedupWindow int, checkpointDir string, checkpointEvery time.Duration, checkpointFullEvery int, checkpointCompress bool, diagBundle, profileDir string, profileEvery time.Duration, triage bool, triageThreshold float64, triageModel string, reg *intddos.ObsRegistry, verbose bool) {
	capture, err := intddos.Collect(intddos.DataConfig{Scale: scale, Seed: seed})
	if err != nil {
		fmt.Fprintln(os.Stderr, "intddos:", err)
		os.Exit(1)
	}
	train, _ := capture.INT.Split(0.1, seed)
	model, scaler, err := intddos.FitModel(intddos.StageTwoModels()[1], train.Subsample(40000, seed), seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "intddos:", err)
		os.Exit(1)
	}
	// Stage-0 model for -triage: train the requested member when it is
	// not the RF already serving the ensemble. Trained on the same
	// subsample, its scaler coefficients match the pipeline's.
	var stageZero intddos.Classifier
	if triage && !strings.EqualFold(triageModel, model.Name()) {
		var spec *intddos.ModelSpec
		for _, s := range intddos.StageTwoModels() {
			if strings.EqualFold(s.Name, triageModel) {
				spec = &s
				break
			}
		}
		if spec == nil {
			fmt.Fprintf(os.Stderr, "intddos: unknown -triage-model %q (want mlp, rf, or gnb)\n", triageModel)
			os.Exit(1)
		}
		stageZero, _, err = intddos.FitModel(*spec, train.Subsample(40000, seed), seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "intddos:", err)
			os.Exit(1)
		}
	}

	live, err := intddos.NewLiveRuntime(intddos.LiveRuntimeConfig{
		Models:              []intddos.Classifier{model},
		Scaler:              scaler,
		Registry:            reg,
		FlowIdleTimeout:     30 * time.Second,
		Shards:              shards,
		PredictBatch:        predictBatch,
		Fault:               injector,
		CheckpointDir:       checkpointDir,
		CheckpointEvery:     checkpointEvery,
		CheckpointFullEvery: checkpointFullEvery,
		CheckpointCompress:  checkpointCompress,
		ProfileDir:          profileDir,
		ProfileInterval:     profileEvery,
		Triage:              triage,
		TriageThreshold:     triageThreshold,
		TriageModel:         stageZero,
		DedupWindow:         dedupWindow,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "intddos:", err)
		os.Exit(1)
	}
	if r := live.Restore(); r != nil {
		fmt.Printf("restored from %s: seq=%d flows=%d journal_pending=%d windows=%d predictions=%d\n",
			r.Path, r.Seq, r.Flows, r.JournalPending, r.Windows, r.Predictions)
	}
	if verbose {
		live.OnDecision = func(d intddos.Decision) {
			fmt.Printf("%-40s label=%d latency=%v\n", d.Key, d.Label, time.Duration(d.Latency))
		}
	}

	// Materialize the sink's reports once; the live loop replays them.
	// -netem impairs this rig's wires, so the replayed stream carries
	// real loss/dup/reorder; unset it leaves the rig on the exact
	// unimpaired path.
	maxReports := 5 * packets
	var reports []*intddos.Report
	tb := intddos.NewTestbed(intddos.TestbedConfig{Netem: netem, NetemSeed: netemSeed})
	tb.Collector.OnReport = func(r *intddos.Report, _ intddos.Time) {
		if len(reports) < maxReports {
			reports = append(reports, r)
		}
	}
	rp := tb.Replayer(capture.Workload.Records)
	rp.MaxPackets = maxReports
	rp.Start()
	tb.Run()
	if len(reports) == 0 {
		fmt.Fprintln(os.Stderr, "intddos: no INT reports collected")
		os.Exit(1)
	}

	live.Start()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	deadline := time.Time{}
	if liveFor > 0 {
		deadline = time.Now().Add(liveFor)
	}
	fmt.Printf("live pipeline running: %d reports per pass", len(reports))
	if liveFor != 0 {
		fmt.Printf(", looping for %v", liveFor)
	}
	fmt.Println(" (Ctrl-C to stop)")

	passes := 0
replay:
	for {
		for i, r := range reports {
			live.HandleReport(r)
			// Pace in small batches: a wall-clock feed, so queue-depth
			// metrics show realistic occupancy.
			if i%64 == 63 {
				select {
				case <-sig:
					break replay
				case <-time.After(2 * time.Millisecond):
				}
			}
		}
		passes++
		if liveFor == 0 || (!deadline.IsZero() && time.Now().After(deadline)) {
			break
		}
		select {
		case <-sig:
			break replay
		default:
		}
	}

	// Let what was fed settle — briefly — then stop and summarize.
	live.AwaitSettled(5 * time.Second)
	if checkpointDir != "" {
		// Final snapshot: a clean shutdown leaves the directory exactly
		// where a restart should pick up.
		if path, n, err := live.WriteCheckpoint(); err != nil {
			fmt.Fprintln(os.Stderr, "intddos: final checkpoint:", err)
		} else {
			fmt.Printf("final checkpoint: %s (%d bytes)\n", path, n)
		}
	}
	live.Stop()
	if diagBundle != "" {
		// The bundle is written after Stop so it carries the full run:
		// lifecycle events, final health, and the last profile state.
		if err := writeDiagBundle(diagBundle, reg); err != nil {
			fmt.Fprintln(os.Stderr, "intddos: diag bundle:", err)
		} else {
			fmt.Printf("diagnostic bundle: %s\n", diagBundle)
		}
	}

	fmt.Printf("\n%d passes, %d reports, %d decisions, %d shed, %d evicted\n",
		passes, live.Reports.Load(), live.DecisionCount(), live.Shed.Load(), live.Evictions.Load())
	if dedupWindow > 0 {
		fmt.Printf("dedup (window %d): %d duplicates, %d stale, %d reordered, %d sequence gaps\n",
			dedupWindow, live.Duplicates.Load(), live.StaleReps.Load(), live.Reordered.Load(), live.SeqGaps.Load())
	}
	for name, ls := range tb.ImpairedStats() {
		fmt.Printf("netem %s: sent=%d delivered=%d lost=%d dup=%d reordered=%d rate_dropped=%d\n",
			name, ls.Sent, ls.Delivered, ls.Lost, ls.Duplicated, ls.Reordered, ls.RateDropped)
	}
	ledger := live.Ledger()
	fmt.Println(ledger)
	if injector != nil {
		fmt.Printf("health: %s; abandoned: %v; faults fired: %s; tainted flows: %d\n",
			live.Health(), live.AbandonedByReason(), injector.Summary(), injector.TaintCount())
		for _, tr := range live.HealthTransitions() {
			fmt.Println("  transition:", tr)
		}
	}
	fmt.Println("\n# metrics snapshot")
	fmt.Print(live.MetricsSnapshot().FormatSummary())
	if !ledger.Closed() || !ledger.ReportsClosed() {
		fmt.Fprintln(os.Stderr, "intddos: ledger open after Stop")
		os.Exit(1)
	}
}

// writeDiagBundle snapshots the registry's diagnostic bundle to path.
func writeDiagBundle(path string, reg *intddos.ObsRegistry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.WriteBundle(f); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	return f.Close()
}

// trainAndSave trains an RF on a generated workload and writes it as
// a bundle the Prediction module can load later.
func trainAndSave(path, scale string, seed int64) {
	capture, err := intddos.Collect(intddos.DataConfig{Scale: scale, Seed: seed})
	if err != nil {
		fmt.Fprintln(os.Stderr, "intddos:", err)
		os.Exit(1)
	}
	train, _ := capture.INT.Split(0.1, seed)
	model, scaler, err := intddos.FitModel(intddos.StageTwoModels()[1], train.Subsample(40000, seed), seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "intddos:", err)
		os.Exit(1)
	}
	if err := intddos.SaveEnsemble(path, []intddos.Classifier{model}, scaler, capture.INT.Names); err != nil {
		fmt.Fprintln(os.Stderr, "intddos:", err)
		os.Exit(1)
	}
	fmt.Printf("trained RF on %d rows, wrote bundle to %s\n", min(train.Len(), 40000), path)
}

// runTrace detects over the user-provided capture, training a model
// first unless a pre-trained bundle is supplied.
func runTrace(path, bundlePath string, seed int64, verbose bool) {
	recs, err := intddos.ReadTrace(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "intddos:", err)
		os.Exit(1)
	}
	var models []intddos.Classifier
	var scaler *intddos.StandardScaler
	if bundlePath != "" {
		bundle, err := intddos.LoadEnsemble(bundlePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "intddos:", err)
			os.Exit(1)
		}
		models = bundle.Classifiers()
		scaler = bundle.Scaler
	} else {
		capture, err := intddos.Collect(intddos.DataConfig{Scale: intddos.ScaleSmall, Seed: seed})
		if err != nil {
			fmt.Fprintln(os.Stderr, "intddos:", err)
			os.Exit(1)
		}
		train, _ := capture.INT.Split(0.1, seed)
		model, sc, err := intddos.FitModel(intddos.StageTwoModels()[1], train.Subsample(40000, seed), seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "intddos:", err)
			os.Exit(1)
		}
		models, scaler = []intddos.Classifier{model}, sc
	}

	tb := intddos.NewTestbed(intddos.TestbedConfig{})
	mech, err := intddos.NewMechanism(tb, intddos.MechanismConfig{
		Models: models,
		Scaler: scaler,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "intddos:", err)
		os.Exit(1)
	}
	tb.Collector.OnReport = mech.HandleReport
	if verbose {
		mech.OnDecision = func(d intddos.Decision) {
			fmt.Printf("%v %-40s label=%d latency=%v\n", d.At, d.Key, d.Label, d.Latency)
		}
	}
	mech.Start()
	rp := tb.Replayer(recs)
	rp.Start()
	// Drain: run until the backlog clears.
	for tb.Eng.Pending() > 0 && len(mech.Decisions) < len(recs) {
		tb.RunUntil(tb.Eng.Now() + intddos.Second)
	}

	attacks := 0
	for _, d := range mech.Decisions {
		if d.Label == 1 {
			attacks++
		}
	}
	fmt.Printf("replayed %d packets, %d decisions, %d flagged as attack\n",
		rp.Sent(), len(mech.Decisions), attacks)
}
