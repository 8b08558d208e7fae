// Benchmarks for the batched-inference contract: per-model
// PredictBatch throughput against the sequential sample loop, and the
// ensemble scoring sweep across micro-batch sizes. What batching buys
// the live runtime end to end is the ledger's business (benchmark/,
// `default` vs `tuned`).
package intddos

import (
	"fmt"
	"sync"
	"testing"

	"github.com/amlight/intddos/internal/ml"
)

// batchFixture is the shared scoring workload: the stage-2 ensemble
// plus a KNN, one shared scaler, and a block of raw test rows.
type batchFixture struct {
	ensemble []Classifier // MLP, RF, GNB — the Table VI members
	knn      Classifier
	scaler   *StandardScaler
	rows     [][]float64 // raw (unscaled) feature rows
	scaled   [][]float64 // pre-scaled copy for the per-model benches
}

var (
	batchFixOnce sync.Once
	batchFix     *batchFixture
	batchFixErr  error
)

func batchSetup(b *testing.B) *batchFixture {
	b.Helper()
	batchFixOnce.Do(func() {
		c, err := Collect(DataConfig{Scale: ScaleTiny, Seed: 42})
		if err != nil {
			batchFixErr = err
			return
		}
		train, test := c.INT.Split(0.1, 42)
		base := train.Subsample(20000, 42)
		scaler := &StandardScaler{}
		Z, err := scaler.FitTransform(base.X)
		if err != nil {
			batchFixErr = err
			return
		}
		fix := &batchFixture{scaler: scaler}
		for _, spec := range StageTwoModels() {
			m := spec.New(42)
			if err := m.Fit(Z, base.Y); err != nil {
				batchFixErr = err
				return
			}
			fix.ensemble = append(fix.ensemble, m)
		}
		// KNN trains on the paper's heavy subsample; prediction cost is
		// what the batch path amortizes.
		knnBase := train.Subsample(3000, 42)
		kZ := scaler.Transform(knnBase.X)
		km := StageOneModels()[2].New(42)
		if err := km.Fit(kZ, knnBase.Y); err != nil {
			batchFixErr = err
			return
		}
		fix.knn = km
		n := len(test.X)
		if n > 2048 {
			n = 2048
		}
		fix.rows = test.X[:n]
		fix.scaled = scaler.Transform(fix.rows)
		batchFix = fix
	})
	if batchFix == nil {
		b.Fatal(batchFixErr)
	}
	return batchFix
}

// BenchmarkPredictBatch contrasts every model family's amortized batch
// path against the reference sample loop on the same pre-scaled rows.
func BenchmarkPredictBatch(b *testing.B) {
	fix := batchSetup(b)
	models := append([]Classifier{}, fix.ensemble...)
	models = append(models, fix.knn)
	for _, m := range models {
		m := m
		bc := m.(ml.BatchClassifier)
		rows := float64(len(fix.scaled))
		b.Run(m.Name()+"/sequential", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ml.SequentialPredict(m, fix.scaled)
			}
			b.ReportMetric(rows*float64(b.N)/b.Elapsed().Seconds(), "rows/sec")
		})
		b.Run(m.Name()+"/batch", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bc.PredictBatch(fix.scaled)
			}
			b.ReportMetric(rows*float64(b.N)/b.Elapsed().Seconds(), "rows/sec")
		})
	}
}

// BenchmarkEnsembleBatchScaling sweeps the full scoring pipeline —
// standardization plus 2-of-3 ensemble votes — across micro-batch
// sizes. batch-1 is the true record-at-a-time path (TransformRow and
// per-model Predict), not PredictBatch with unit slices, so the sweep
// measures exactly what the live pipeline trades.
func BenchmarkEnsembleBatchScaling(b *testing.B) {
	fix := batchSetup(b)
	width := len(fix.rows[0])
	for _, k := range []int{1, 8, 32, 128} {
		k := k
		b.Run(fmt.Sprintf("batch-%d", k), func(b *testing.B) {
			b.ReportAllocs()
			if k == 1 {
				scaled := make([]float64, width)
				for i := 0; i < b.N; i++ {
					for _, row := range fix.rows {
						fix.scaler.TransformRow(scaled, row)
						ones := 0
						for _, m := range fix.ensemble {
							ones += m.Predict(scaled)
						}
						_ = ones
					}
				}
			} else {
				var dst [][]float64
				for i := 0; i < b.N; i++ {
					for lo := 0; lo < len(fix.rows); lo += k {
						hi := lo + k
						if hi > len(fix.rows) {
							hi = len(fix.rows)
						}
						dst = fix.scaler.TransformBatch(dst, fix.rows[lo:hi])
						ml.EnsembleVotes(fix.ensemble, dst)
					}
				}
			}
			rows := float64(len(fix.rows)) * float64(b.N)
			b.ReportMetric(rows/b.Elapsed().Seconds(), "rows/sec")
		})
	}
}
