package intddos

import (
	"strings"
	"sync"
	"testing"

	"github.com/amlight/intddos/internal/experiment"
	"github.com/amlight/intddos/internal/flow"
	"github.com/amlight/intddos/internal/traffic"
)

// Facade-level tests exercise the public API end to end at tiny
// scale; the -short flag skips the heavier small-scale integration
// test that asserts the paper's headline shapes.

var (
	facadeOnce sync.Once
	facadeCap  *Capture
	facadeErr  error
)

func facadeCapture(t *testing.T) *Capture {
	t.Helper()
	facadeOnce.Do(func() {
		facadeCap, facadeErr = Collect(DataConfig{Scale: ScaleTiny, Seed: 42})
	})
	if facadeCap == nil {
		t.Fatal(facadeErr)
	}
	return facadeCap
}

func TestFacadeBuildWorkload(t *testing.T) {
	w := BuildWorkload(ScaleTiny, 1)
	if len(w.Records) == 0 {
		t.Fatal("empty workload")
	}
	if len(w.Schedule) != 11 {
		t.Errorf("schedule = %d episodes", len(w.Schedule))
	}
	counts := make(map[string]int)
	for i := range w.Records {
		counts[w.Records[i].AttackType]++
	}
	for _, typ := range []string{traffic.Benign, traffic.SYNScan, traffic.UDPScan, traffic.SYNFlood, traffic.SlowLoris} {
		if counts[typ] == 0 {
			t.Errorf("no %s traffic", typ)
		}
	}
}

func TestFacadePaperSchedule(t *testing.T) {
	s := PaperSchedule(Second, Millisecond)
	if len(s) != 11 {
		t.Fatalf("episodes = %d", len(s))
	}
	if s.ActiveAt(s[0].Start) != s[0].Type {
		t.Error("ActiveAt broken through facade")
	}
}

func TestFacadeFeatureSets(t *testing.T) {
	if len(flow.INTFeatures()) != 15 {
		t.Errorf("INT features = %d", len(flow.INTFeatures()))
	}
	if len(flow.SFlowFeatures()) != 12 {
		t.Errorf("sFlow features = %d", len(flow.SFlowFeatures()))
	}
}

func TestFacadeSamplingRates(t *testing.T) {
	for _, scale := range []string{traffic.ScaleTiny, traffic.ScaleSmall, traffic.ScaleFull} {
		if experiment.TablesSFlowRate(scale) >= CoverageSFlowRate(scale) {
			t.Errorf("%s: tables rate %d not below coverage rate %d",
				scale, experiment.TablesSFlowRate(scale), CoverageSFlowRate(scale))
		}
	}
}

func TestFacadeCollectAndModels(t *testing.T) {
	c := facadeCapture(t)
	if c.INT.Len() == 0 || c.SFlow.Len() == 0 {
		t.Fatal("empty datasets")
	}
	if len(StageOneModels()) != 4 || len(StageTwoModels()) != 3 {
		t.Error("model zoo sizes wrong")
	}
	train, test := c.INT.Split(0.1, 42)
	res, err := TrainEval(StageOneModels()[0], train, test, 42)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scores.Accuracy < 0.97 {
		t.Errorf("facade RF accuracy = %v", res.Scores.Accuracy)
	}
}

func TestFacadeMechanism(t *testing.T) {
	c := facadeCapture(t)
	train, _ := c.INT.Split(0.1, 42)
	model, scaler, err := FitModel(StageOneModels()[0], train.Subsample(5000, 42), 42)
	if err != nil {
		t.Fatal(err)
	}
	tb := NewTestbed(TestbedConfig{})
	mech, err := NewMechanism(tb, MechanismConfig{
		Models: []Classifier{model},
		Scaler: scaler,
	})
	if err != nil {
		t.Fatal(err)
	}
	tb.Collector.OnReport = mech.HandleReport
	mech.Start()
	rp := tb.Replayer(c.Workload.Records[:2000])
	rp.Start()
	for tb.Eng.Pending() > 0 && len(mech.Decisions) < 2000 {
		tb.RunUntil(tb.Eng.Now() + Second)
	}
	if len(mech.Decisions) != 2000 {
		t.Fatalf("decisions = %d, want 2000", len(mech.Decisions))
	}
	correct := 0
	for _, d := range mech.Decisions {
		if d.Correct() {
			correct++
		}
	}
	if frac := float64(correct) / 2000; frac < 0.9 {
		t.Errorf("live accuracy = %v", frac)
	}
}

func TestFacadeMitigationFlow(t *testing.T) {
	gen := NewRuleGenerator(MitigateConfig{})
	w := BuildWorkload(ScaleTiny, 42)
	// Flag the first ten synscan packets as attacks.
	n := 0
	for i := range w.Records {
		r := &w.Records[i]
		if r.AttackType != SYNScan {
			continue
		}
		key := FlowKey{Src: r.Src, Dst: r.Dst, SrcPort: r.SrcPort, DstPort: r.DstPort, Proto: r.Proto}
		gen.HandleDecision(Decision{Key: key, Label: 1, At: r.At})
		n++
		if n == 10 {
			break
		}
	}
	if gen.Escalated == 0 {
		t.Error("scan decisions never escalated to a source rule")
	}
}

func TestFacadeMicroburstDetector(t *testing.T) {
	w := BuildWorkload(ScaleTiny, 42)
	tb := NewTestbed(TestbedConfig{})
	det := NewMicroburstDetector(8, 2*Millisecond)
	tb.Collector.OnReport = det.Observe
	rp := tb.Replayer(w.Records)
	rp.Start()
	tb.Run()
	det.Flush()
	if len(det.Bursts) == 0 {
		t.Fatal("no microbursts from flood workload")
	}
	inEpisode := 0
	for _, b := range det.Bursts {
		if w.Schedule.ActiveAt(b.Start) == SYNFlood {
			inEpisode++
		}
	}
	if inEpisode == 0 {
		t.Error("no burst aligned with a flood episode")
	}
}

// TestIntegrationSmallScale asserts the paper's headline shapes at
// the default experiment scale. It is the repository's acceptance
// test and takes ~1 minute; skipped under -short.
func TestIntegrationSmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("small-scale integration skipped in -short mode")
	}
	seed := int64(42)
	tables, err := Collect(DataConfig{Scale: ScaleSmall, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}

	t3, err := RunTableIII(tables, seed)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]EvalResult{}
	for _, r := range t3.Rows {
		byKey[r.Data+"/"+r.Model] = r
	}
	// Table III shapes: INT RF/KNN/NN ≥ 0.99; GNB the weakest model on
	// both sources.
	for _, k := range []string{"INT/RF", "INT/KNN", "INT/NN"} {
		if a := byKey[k].Scores.Accuracy; a < 0.99 {
			t.Errorf("%s accuracy = %v, want ≥0.99", k, a)
		}
	}
	if byKey["INT/GNB"].Scores.F1 >= byKey["INT/RF"].Scores.F1 {
		t.Error("GNB should be the weakest INT model")
	}
	if byKey["sFlow/GNB"].Scores.F1 >= byKey["sFlow/RF"].Scores.F1 {
		t.Error("GNB should be the weakest sFlow model")
	}

	// Table IV shapes: INT stays ≥0.99 on RF/KNN/NN; sFlow NN
	// degenerates (recall 0) against the zero-day split; sFlow GNB
	// precision drops.
	t4, err := RunTableIV(tables, seed)
	if err != nil {
		t.Fatal(err)
	}
	by4 := map[string]EvalResult{}
	for _, r := range t4 {
		by4[r.Data+"/"+r.Model] = r
	}
	for _, k := range []string{"INT/RF", "INT/KNN", "INT/NN"} {
		if a := by4[k].Scores.Accuracy; a < 0.99 {
			t.Errorf("zero-day %s accuracy = %v, want ≥0.99", k, a)
		}
	}
	// The paper's sFlow NN collapses to recall 0 against the zero-day
	// split; ours collapses to well under half the INT NN's recall.
	if r, ir := by4["sFlow/NN"].Scores.Recall, by4["INT/NN"].Scores.Recall; r > ir/2 || r > 0.5 {
		t.Errorf("zero-day sFlow NN recall = %v (INT NN %v), want a collapse", r, ir)
	}
	if p := by4["sFlow/GNB"].Scores.Precision; p > by4["INT/GNB"].Scores.Precision {
		t.Errorf("zero-day sFlow GNB precision %v should drop below INT GNB %v",
			p, by4["INT/GNB"].Scores.Precision)
	}

	// Figure 5 shape: at the production-proportional sampling rate,
	// sFlow captures nothing inside the SlowLoris episodes while INT
	// covers all four attack types.
	coverage, err := Collect(DataConfig{
		Scale: ScaleSmall, Seed: seed, SFlowRate: CoverageSFlowRate(ScaleSmall),
	})
	if err != nil {
		t.Fatal(err)
	}
	fig, err := RunFigure5(coverage, 240, seed)
	if err != nil {
		t.Fatal(err)
	}
	if got := fig.CoverageOfType(fig.SFlow, SlowLoris); got != 0 {
		t.Errorf("sFlow captured %d SlowLoris observations, want 0 (Figure 5)", got)
	}
	for _, typ := range []string{traffic.SYNScan, traffic.UDPScan, traffic.SYNFlood, traffic.SlowLoris} {
		if fig.CoverageOfType(fig.INT, typ) == 0 {
			t.Errorf("INT missed %s entirely", typ)
		}
	}

	// Table VI shapes: every attack ≥0.97, zero-day SlowLoris ≥0.95,
	// benign prediction latency far above every attack's.
	live, err := RunTableVI(LiveConfig{Scale: ScaleSmall, Seed: seed, PacketsPerType: 1500})
	if err != nil {
		t.Fatal(err)
	}
	var benignAvg, attackMax float64
	for _, r := range live.Rows {
		switch r.Type {
		case Benign:
			benignAvg = r.AvgLatency.Seconds()
		case SlowLoris:
			if r.Accuracy < 0.95 {
				t.Errorf("zero-day SlowLoris accuracy = %v", r.Accuracy)
			}
		default:
			if r.Accuracy < 0.97 {
				t.Errorf("%s accuracy = %v", r.Type, r.Accuracy)
			}
		}
		if r.Type != Benign && r.AvgLatency.Seconds() > attackMax {
			attackMax = r.AvgLatency.Seconds()
		}
	}
	if benignAvg < 5*attackMax {
		t.Errorf("benign avg latency %.2fs not ≫ attack max %.2fs", benignAvg, attackMax)
	}
}

func TestFormatHelpersThroughFacade(t *testing.T) {
	if !strings.Contains(FormatTableII(RunTableII()), "TABLE II") {
		t.Error("FormatTableII broken")
	}
}
