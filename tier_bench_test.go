// BenchmarkTieredScoring: throughput of the tiered-inference cascade
// on a benign-heavy stream through the scoring stack in isolation. The
// end-to-end cost of triage is the ledger's `tuned-triage` workload
// (benchmark/).
package intddos

import (
	"testing"

	"github.com/amlight/intddos/internal/ml"
)

// tierBenchConfigs is the sweep grid: the untiered baseline
// plus representative stage-0 model × threshold points.
var tierBenchConfigs = []struct {
	name      string
	model     string // "" = baseline (triage off)
	threshold float64
}{
	{"baseline", "", 0},
	{"rf-0.95", "RF", 0.95},
	{"gnb-0.95", "GNB", 0.95},
	{"gnb-0.90", "GNB", 0.90},
}

// tierBenchModels trains the stage-two ensemble on the shared capture
// and returns it with its scaler and a by-name index.
func tierBenchModels(b *testing.B) ([]Classifier, map[string]Classifier, *StandardScaler) {
	b.Helper()
	c := benchSetup(b)
	train, _ := c.INT.Split(0.1, 42)
	sub := train.Subsample(20000, 42)
	scaler := &StandardScaler{}
	Z, err := scaler.FitTransform(sub.X)
	if err != nil {
		b.Fatal(err)
	}
	var models []Classifier
	byName := map[string]Classifier{}
	for _, spec := range StageTwoModels() {
		m := spec.New(42)
		if err := m.Fit(Z, sub.Y); err != nil {
			b.Fatal(err)
		}
		models = append(models, m)
		byName[spec.Name] = m
	}
	return models, byName, scaler
}

// BenchmarkTieredScoring isolates the layer the cascade actually
// shortens: standardized features of a 95%-benign stream pushed
// through the voting stack, untiered versus triaged. The live pipeline
// wraps tens of microseconds of per-row transport around this ~1.4µs
// ensemble call, so a speedup here says nothing about the end-to-end
// figure — compare the ledger's `tuned` and `tuned-triage` rows for that.
func BenchmarkTieredScoring(b *testing.B) {
	c := benchSetup(b)
	models, byName, scaler := tierBenchModels(b)
	_, test := c.INT.Split(0.1, 42)
	var benignX, attackX [][]float64
	for i, y := range test.Y {
		if y == 0 {
			benignX = append(benignX, test.X[i])
		} else {
			attackX = append(attackX, test.X[i])
		}
	}
	if len(benignX) == 0 || len(attackX) == 0 {
		b.Fatalf("test rows: %d benign, %d attack", len(benignX), len(attackX))
	}
	const rows = 8192
	mix := make([][]float64, 0, rows)
	for i, bi, ai := 0, 0, 0; i < rows; i++ {
		if i%20 != 0 {
			mix = append(mix, benignX[bi%len(benignX)])
			bi++
		} else {
			mix = append(mix, attackX[ai%len(attackX)])
			ai++
		}
	}
	X := scaler.Transform(mix)

	var baselineNs float64
	for _, cfg := range tierBenchConfigs {
		b.Run(cfg.name, func(b *testing.B) {
			var cas *ml.Cascade
			if cfg.model != "" {
				cas = &ml.Cascade{Stages: []ml.CascadeStage{{
					Name:      cfg.model,
					Model:     byName[cfg.model].(ml.BatchProbaClassifier),
					Threshold: cfg.threshold,
				}}}
			}
			vs := &ml.VoteScratch{}
			cs := &ml.CascadeScratch{}
			sub := make([][]float64, 0, len(X))
			exited := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if cas == nil {
					ml.EnsembleVotesInto(vs, models, X)
					continue
				}
				stage, _ := cas.TriageBatch(X, nil, cs)
				sub = sub[:0]
				for j := range X {
					if stage[j] == 0 {
						sub = append(sub, X[j])
					}
				}
				if i == 0 {
					exited = len(X) - len(sub)
				}
				if len(sub) > 0 {
					ml.EnsembleVotesInto(vs, models, sub)
				}
			}
			b.StopTimer()
			nsPerRow := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(len(X))
			b.ReportMetric(nsPerRow, "ns/row")
			b.ReportMetric(100*float64(exited)/float64(len(X)), "exit%")
			if cfg.name == "baseline" {
				baselineNs = nsPerRow
			} else if baselineNs > 0 {
				b.ReportMetric(baselineNs/nsPerRow, "speedup")
			}
		})
	}
}
