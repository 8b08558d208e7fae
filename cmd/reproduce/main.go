// Command reproduce regenerates every table and figure of the
// paper's evaluation section on the simulated substrate and prints
// them in the paper's layout.
//
// Usage:
//
//	reproduce [-scale tiny|small|full] [-seed N] [-only table3,figure5,...]
//
// With no -only filter every artifact is produced: Tables I–VI and
// Figures 3, 4, 5, and 7, plus the episode-coverage analysis and the
// queue-feature ablation.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"github.com/amlight/intddos"
)

func main() {
	scale := flag.String("scale", intddos.ScaleSmall, "workload scale: tiny, small, or full")
	seed := flag.Int64("seed", 42, "experiment seed")
	only := flag.String("only", "", "comma-separated subset: table1..table6, figure3, figure4, figure5, figure7, coverage, ablation (on request: roc, mitigation, scaling, chaos, triage, impair, soak)")
	packets := flag.Int("packets", 2500, "packets per flow type in the live (Table VI) replays")
	predictBatch := flag.Int("predict-batch", 0, "scoring micro-batch size for the live (Table VI) replays (0/1: the paper's record-at-a-time prediction; results are identical at any size)")
	triage := flag.Bool("triage", false, "enable tiered inference in the live (Table VI) replays: sketch triage + stage-0 early exit (off: the paper's exact pipeline)")
	triageThreshold := flag.Float64("triage-threshold", intddos.DefaultTriageThreshold, "stage-0 confidence |2p-1| required to early-exit a record")
	triageModel := flag.String("triage-model", "rf", "ensemble member serving cascade stage 0 (mlp, rf, or gnb; rf's calibrated probabilities gate best)")
	faultSpec := flag.String("fault-spec", "", "fault schedule for the chaos artifact (e.g. \"drop=0.05,store.err=0.1,panic=0.02\"; empty: clean baseline)")
	faultSeed := flag.Int64("fault-seed", 1, "seed for the chaos artifact's fault schedule")
	netemSpec := flag.String("netem", "", "impair the capture's links, e.g. \"netem[link=agent->collector]:loss=1%,dup=0.1%\" (empty: exact unimpaired captures)")
	netemSeed := flag.Int64("netem-seed", 0, "seed for the -netem impairment RNGs (0: the experiment seed)")
	impairOut := flag.String("impair-out", "", "also write the impairment-sweep artifact (-only impair) as JSON to this path")
	impairQuick := flag.Bool("impair-quick", false, "trim the impairment sweep to baseline + the acceptance point (CI smoke)")
	checkpointDir := flag.String("checkpoint-dir", "", "resume the chaos artifact from (and snapshot into) this checkpoint directory")
	checkpointEvery := flag.Duration("checkpoint-every", 0, "periodic checkpoint interval for the chaos artifact (0: one snapshot at the end of the run)")
	checkpointFullEvery := flag.Int("checkpoint-full-every", 0, "full-snapshot cadence for the chaos artifact: every Nth checkpoint full, deltas between (0/1: every checkpoint full)")
	csvDir := flag.String("csv", "", "also write machine-readable CSVs into this directory")
	flag.Parse()

	want := map[string]bool{}
	if *only != "" {
		for _, k := range strings.Split(*only, ",") {
			want[strings.TrimSpace(strings.ToLower(k))] = true
		}
	}
	sel := func(k string) bool { return len(want) == 0 || want[k] }

	// -netem impairs every capture below; unset it stays nil and the
	// captures are byte-identical to an unimpaired run.
	netem, err := intddos.ParseNetem(*netemSpec)
	fail(err)

	fmt.Printf("# Reproduction run: scale=%s seed=%d\n\n", *scale, *seed)
	start := time.Now()

	needTables := sel("table1") || sel("table3") || sel("table4") || sel("table5") ||
		sel("figure3") || sel("figure4") || sel("ablation") || (sel("roc") && len(want) > 0)
	needCoverage := sel("figure5") || sel("coverage")

	var tablesCap, coverageCap *intddos.Capture
	if needTables {
		tablesCap, err = intddos.Collect(intddos.DataConfig{
			Scale: *scale, Seed: *seed, Netem: netem, NetemSeed: *netemSeed,
		})
		fail(err)
		fmt.Printf("capture (tables rate 1/%d): %d packets, %d INT rows, %d sFlow rows\n\n",
			tablesCap.Config.SFlowRate, len(tablesCap.Workload.Records), tablesCap.INT.Len(), tablesCap.SFlow.Len())
	}
	if needCoverage {
		coverageCap, err = intddos.Collect(intddos.DataConfig{
			Scale: *scale, Seed: *seed, SFlowRate: intddos.CoverageSFlowRate(*scale),
			Netem: netem, NetemSeed: *netemSeed,
		})
		fail(err)
	}

	if sel("table1") {
		rows := intddos.RunTableI(tablesCap)
		fmt.Println(intddos.FormatTableI(rows))
		writeCSV(*csvDir, "table1.csv", func(w io.Writer) error { return intddos.WriteTableICSV(w, rows) })
	}
	if sel("table2") {
		fmt.Println(intddos.FormatTableII(intddos.RunTableII()))
	}
	if sel("table3") || sel("figure3") || sel("figure4") {
		t3, err := intddos.RunTableIII(tablesCap, *seed)
		fail(err)
		if sel("table3") {
			fmt.Println(intddos.FormatEvalRows(
				"TABLE III: ML model performance, INT vs sFlow (90:10 split)", t3.Rows))
			writeCSV(*csvDir, "table3.csv", func(w io.Writer) error { return intddos.WriteEvalCSV(w, t3.Rows) })
		}
		if sel("figure3") {
			fmt.Println(intddos.FormatConfusion("FIGURE 3: Confusion matrix, RF on INT", t3.RFConfusionINT))
		}
		if sel("figure4") {
			fmt.Println(intddos.FormatConfusion("FIGURE 4: Confusion matrix, RF on sFlow", t3.RFConfusionSFlow))
		}
	}
	if sel("table4") {
		t4, err := intddos.RunTableIV(tablesCap, *seed)
		fail(err)
		fmt.Println(intddos.FormatEvalRows(
			"TABLE IV: Zero-day performance (train: June 6-10, test: June 11, SlowLoris unseen)", t4))
		writeCSV(*csvDir, "table4.csv", func(w io.Writer) error { return intddos.WriteEvalCSV(w, t4) })
	}
	if sel("table5") {
		t5, err := intddos.RunTableV(tablesCap, *seed)
		fail(err)
		fmt.Println(intddos.FormatTableVMatrix(t5))
		fmt.Println(intddos.FormatTableV(t5))
	}
	if sel("figure5") {
		fig, err := intddos.RunFigure5(coverageCap, 240, *seed)
		fail(err)
		fmt.Println(intddos.FormatFigure5(fig))
		writeCSV(*csvDir, "figure5.csv", func(w io.Writer) error { return intddos.WriteFigure5CSV(w, fig) })
	}
	if sel("coverage") {
		fmt.Println(intddos.FormatEpisodeCoverage(
			intddos.RunEpisodeCoverage(coverageCap), coverageCap.Config.SFlowRate))
	}
	if sel("ablation") {
		withQ, withoutQ, err := intddos.FeatureAblation(tablesCap, *seed)
		fail(err)
		fmt.Println(intddos.FormatEvalRows(
			"ABLATION: RF with vs without queue-occupancy features",
			[]intddos.EvalResult{withQ, withoutQ}))
		withH, withoutH, err := intddos.HopLatencyAblation(
			intddos.DataConfig{Scale: *scale, Seed: *seed}, *seed)
		fail(err)
		fmt.Println(intddos.FormatEvalRows(
			"ABLATION: RF with vs without the hop-latency features the paper excluded",
			[]intddos.EvalResult{withH, withoutH}))
	}
	if sel("roc") && len(want) > 0 {
		// Extension artifact; produced on request.
		rows, err := intddos.RunROC(tablesCap, *seed)
		fail(err)
		fmt.Println(intddos.FormatROC(rows))
	}
	if sel("mitigation") && len(want) > 0 {
		// Extension artifact; produced on request.
		rows, err := intddos.RunMitigation(intddos.LiveConfig{
			Scale: *scale, Seed: *seed, PacketsPerType: *packets,
		})
		fail(err)
		fmt.Println(intddos.FormatMitigation(rows))
	}
	if sel("scaling") && len(want) > 0 {
		// Not part of the default artifact set; produced on request.
		points, err := intddos.RunScalingStudy(intddos.ScalingConfig{Scale: *scale, Seed: *seed})
		fail(err)
		fmt.Println(intddos.FormatScaling(points))
		writeCSV(*csvDir, "scaling.csv", func(w io.Writer) error { return intddos.WriteScalingCSV(w, points) })
	}
	if sel("chaos") && len(want) > 0 {
		// Robustness artifact; produced on request. Replays the
		// workload through the wall-clock runtime under the -fault-spec
		// schedule and reports how gracefully the pipeline degraded.
		res, err := intddos.RunChaos(intddos.ChaosConfig{
			Scale: *scale, Seed: *seed, PacketsPerType: *packets,
			FaultSpec: *faultSpec, FaultSeed: *faultSeed,
			CheckpointDir: *checkpointDir, CheckpointEvery: *checkpointEvery,
			CheckpointFullEvery: *checkpointFullEvery,
		})
		fail(err)
		fmt.Println(intddos.FormatChaos(res))
	}
	if sel("impair") && len(want) > 0 {
		// Adverse-network artifact; produced on request. Re-runs the
		// Table III/IV protocols across a grid of report-wire
		// impairments and reports accuracy deltas plus per-row
		// accounting closure.
		sweep, err := intddos.RunImpairmentSweep(intddos.ImpairConfig{
			Scale: *scale, Seed: *seed, NetemSeed: *netemSeed, Quick: *impairQuick,
		})
		fail(err)
		fmt.Println(intddos.FormatImpairmentSweep(sweep))
		if *impairOut != "" {
			fail(intddos.WriteImpairJSON(*impairOut, sweep))
			fmt.Printf("impairment artifact: %s\n\n", *impairOut)
		}
	}
	if sel("soak") && len(want) > 0 {
		// Adverse-network soak; produced on request. Feeds the live
		// pipeline a multi-pass scrambled report stream materialized
		// through an impaired wire and checks both closure ledgers.
		// (The soak's wire profile is its own default; -netem shapes
		// the capture artifacts, not this run.)
		res, err := intddos.RunSoak(intddos.SoakConfig{
			Scale: *scale, Seed: *seed, NetemSeed: *netemSeed,
			FaultSpec: *faultSpec, FaultSeed: *faultSeed,
		})
		fail(err)
		fmt.Println(intddos.FormatSoak(res))
	}
	if sel("triage") && len(want) > 0 {
		// Tiered-inference artifact; produced on request. Sweeps benign
		// fraction × stage-0 threshold and reports exit rate plus the
		// accuracy delta against triage-off baselines.
		sweep, err := intddos.RunTriageSweep(intddos.TriageSweepConfig{
			Live: intddos.LiveConfig{Scale: *scale, Seed: *seed, PacketsPerType: *packets,
				PredictBatch: *predictBatch, TriageModel: strings.ToUpper(*triageModel)},
		})
		fail(err)
		fmt.Println(intddos.FormatTriageSweep(sweep))
	}
	if sel("table6") || sel("figure7") {
		live, err := intddos.RunTableVI(intddos.LiveConfig{
			Scale: *scale, Seed: *seed, PacketsPerType: *packets,
			PredictBatch: *predictBatch,
			Triage:       *triage, TriageThreshold: *triageThreshold, TriageModel: strings.ToUpper(*triageModel),
		})
		fail(err)
		if sel("table6") {
			fmt.Println(intddos.FormatTableVI(live))
			writeCSV(*csvDir, "table6.csv", func(w io.Writer) error { return intddos.WriteTableVICSV(w, live) })
		}
		if sel("table6") {
			// Table-VI companion: detection latency distribution per
			// attack type, summarized from every live decision.
			reg := intddos.NewObsRegistry()
			hv := reg.HistogramVec("intddos_predict_latency_seconds", "attack_type", intddos.LatencyBuckets())
			for typ, ds := range live.Decisions {
				h := hv.With(typ)
				for _, d := range ds {
					h.Observe(d.Latency.Seconds())
				}
			}
			fmt.Println(intddos.FormatLatencySummary(
				"TABLE VI companion: detection latency percentiles by attack type", hv.Snapshots()))
		}
		if sel("figure7") {
			fmt.Println(intddos.FormatFigure7(live, intddos.Benign, 100))
			fmt.Println(intddos.FormatFigure7(live, intddos.SlowLoris, 100))
			writeCSV(*csvDir, "figure7_benign.csv", func(w io.Writer) error {
				return intddos.WriteFigure7CSV(w, live, intddos.Benign)
			})
			writeCSV(*csvDir, "figure7_slowloris.csv", func(w io.Writer) error {
				return intddos.WriteFigure7CSV(w, live, intddos.SlowLoris)
			})
		}
	}

	fmt.Printf("# done in %.1fs\n", time.Since(start).Seconds())
}

// writeCSV writes one CSV artifact when -csv is set.
func writeCSV(dir, name string, fn func(io.Writer) error) {
	if dir == "" {
		return
	}
	fail(intddos.WriteCSVFile(dir, name, fn))
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "reproduce:", err)
		os.Exit(1)
	}
}
