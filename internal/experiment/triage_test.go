package experiment

import (
	"math"
	"strings"
	"testing"

	"github.com/amlight/intddos/internal/ml"
)

// TestCascadeTableIIIDelta is the offline (Table III) half of the
// accuracy bound: on the 90:10 INT split, gating the MLP+RF+GNB vote
// behind an RF stage 0 at the default 0.95 threshold must stay within
// 2 percentage points of the full ensemble's accuracy while exiting a
// substantial share of the test rows.
func TestCascadeTableIIIDelta(t *testing.T) {
	c := capture(t)
	train, test := c.INT.Split(0.1, 42)
	train = train.Subsample(40000, 42)
	scaler := &ml.StandardScaler{}
	Z, err := scaler.FitTransform(train.X)
	if err != nil {
		t.Fatal(err)
	}
	var models []ml.Classifier
	var stage0 ml.BatchProbaClassifier
	for _, spec := range StageTwoModels() {
		m := spec.New(42)
		if err := m.Fit(Z, train.Y); err != nil {
			t.Fatalf("fit %s: %v", spec.Name, err)
		}
		models = append(models, m)
		if spec.Name == "RF" {
			stage0 = m.(ml.BatchProbaClassifier)
		}
	}
	X := scaler.Transform(test.X)

	// Full ensemble: 2-of-3 majority vote, the Table VI quorum.
	_, ones := ml.EnsembleVotesInto(nil, models, X)
	full := make([]int, len(X))
	for i, n := range ones {
		if n >= 2 {
			full[i] = 1
		}
	}

	// Cascade: RF stage 0 at the default threshold; fall-through rows
	// keep the full-ensemble verdict.
	cas := &ml.Cascade{Stages: []ml.CascadeStage{{Name: "RF", Model: stage0, Threshold: 0.95}}}
	stage, label := cas.TriageBatch(X, nil, nil)
	tiered := make([]int, len(X))
	exited := 0
	for i := range X {
		if stage[i] > 0 {
			tiered[i] = label[i]
			exited++
		} else {
			tiered[i] = full[i]
		}
	}

	accFull := ml.Score(test.Y, full).Accuracy
	accTiered := ml.Score(test.Y, tiered).Accuracy
	delta := (accTiered - accFull) * 100
	t.Logf("ensemble %.4f, cascade %.4f (%+.2f pp), exit %d/%d (%.1f%%)",
		accFull, accTiered, delta, exited, len(X), 100*float64(exited)/float64(len(X)))
	if math.Abs(delta) > 2.0 {
		t.Errorf("cascade accuracy moved %.2f pp from the ensemble, bound is ±2.0 pp", delta)
	}
	if float64(exited) < 0.5*float64(len(X)) {
		t.Errorf("cascade exited only %d/%d rows; the tier is not earning its keep", exited, len(X))
	}
}

// TestTriageModelResolution pins the name matching and the unknown-
// name error path.
func TestTriageModelResolution(t *testing.T) {
	cfg := LiveConfig{Triage: true, TriageModel: "NOPE"}
	cfg.fillDefaults()
	w := capture(t).Workload
	models, _, _, _, err := trainStageTwo(LiveConfig{Scale: "tiny", Seed: 42, PacketsPerType: 250}, w)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := triageModelFor(cfg, models); err == nil || !strings.Contains(err.Error(), "NOPE") {
		t.Errorf("unknown triage model accepted: %v", err)
	}
	cfg.TriageModel = "GNB"
	m, err := triageModelFor(cfg, models)
	if err != nil || m == nil || m.Name() != "GNB" {
		t.Errorf("triageModelFor(GNB) = %v, %v", m, err)
	}
	cfg.Triage = false
	if m, err := triageModelFor(cfg, models); m != nil || err != nil {
		t.Errorf("triage off should resolve to nil, got %v, %v", m, err)
	}
}

// TestTriageSweepTiny smoke-tests the sweep grid end to end and checks
// its invariants: one baseline per benign fraction, followed by a cell
// per threshold; baselines exit nothing, triage cells report exit rates
// in [0, 1], and the formatter renders one line per cell.
func TestTriageSweepTiny(t *testing.T) {
	sweep, err := RunTriageSweep(TriageSweepConfig{
		Live: LiveConfig{Scale: "tiny", Seed: 42, PacketsPerType: 200},
	})
	if err != nil {
		t.Fatal(err)
	}
	perFrac := 1 + len(triageThresholds)
	if want := len(triageBenignFracs) * perFrac; len(sweep.Cells) != want {
		t.Fatalf("cells = %d, want %d (a baseline + %d thresholds per fraction)",
			len(sweep.Cells), want, len(triageThresholds))
	}
	for i, c := range sweep.Cells {
		if i%perFrac == 0 {
			if c.Threshold != 0 || c.ExitRate != 0 {
				t.Errorf("baseline cell = %+v, want threshold 0 and no exits", c)
			}
			continue
		}
		if c.Rows == 0 || c.ExitRate < 0 || c.ExitRate > 1 {
			t.Errorf("triage cell = %+v", c)
		}
	}
	out := FormatTriageSweep(sweep)
	if lines, want := strings.Count(out, "\n"), 2+len(sweep.Cells); lines != want {
		t.Errorf("formatted sweep has %d lines, want %d (title + header + a line per cell):\n%s", lines, want, out)
	}
}
