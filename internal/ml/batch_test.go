// Property tests for the batched-inference contract: for every model
// family, PredictBatchInto(dst, X) must equal [Predict(x) for x in X]
// exactly — same labels, and for probabilistic models the same float64
// bits — across random seeds, batch sizes that exercise the blocked
// kernels' remainders, reused and garbage-filled label buffers, and the
// degenerate zero-variance-feature scaler case.
package ml_test

import (
	"math"
	"math/rand"
	"testing"

	"github.com/amlight/intddos/internal/ml"
	"github.com/amlight/intddos/internal/ml/bayes"
	"github.com/amlight/intddos/internal/ml/forest"
	"github.com/amlight/intddos/internal/ml/knn"
	"github.com/amlight/intddos/internal/ml/neural"
)

// synth builds a learnable two-cluster dataset: class 1 rows are the
// class 0 distribution shifted by one unit in every feature, with
// enough noise that models disagree near the boundary — exactly where
// a batch kernel that reorders float math would diverge from the
// scalar path.
func synth(seed int64, n, w int) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		row := make([]float64, w)
		label := rng.Intn(2)
		for j := range row {
			row[j] = rng.NormFloat64() + float64(label)
		}
		X[i] = row
		y[i] = label
	}
	return X, y
}

// batchModels builds one freshly fitted instance of every model family
// on the given training set.
func batchModels(t *testing.T, seed int64, X [][]float64, y []int) []ml.BatchClassifier {
	t.Helper()
	models := []ml.BatchClassifier{
		forest.New(forest.Default(seed)),
		bayes.New(),
		knn.New(5),
		neural.New(neural.ShallowNN(seed)),
	}
	for _, m := range models {
		if err := m.Fit(X, y); err != nil {
			t.Fatalf("fit %s: %v", m.Name(), err)
		}
	}
	return models
}

// treeOuterMinNodes mirrors the forest's arena size past which its
// batch paths vote tree-outer.
const treeOuterMinNodes = 8 << 10

// treeOuterForest fits a forest large enough to take the tree-outer
// batch path: fully grown trees over label noise split down to
// near-singleton leaves.
func treeOuterForest(t *testing.T, seed int64) *forest.Forest {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	X, _ := synth(seed, 2000, 9)
	y := make([]int, len(X))
	for i := range y {
		y[i] = rng.Intn(2)
	}
	f := forest.New(forest.Config{Trees: 12, MaxDepth: 40, MinSamplesSplit: 2, MinSamplesLeaf: 1, Seed: seed})
	if err := f.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if n := f.Summary().Nodes; n < treeOuterMinNodes {
		t.Fatalf("tree-outer fixture has %d nodes, want at least %d", n, treeOuterMinNodes)
	}
	return f
}

// TestPredictBatchMatchesSequential is the core batch contract: for
// every model family (the forest on both of its paths), every seed,
// batch sizes straddling the four-row block boundary and the live
// runtime's 32-row scoring call, and a dst that is nil, too short, or
// longer and full of garbage, PredictBatchInto must agree
// label-for-label with the sample loop. The garbage case catches a
// kernel that accumulates into dst without zeroing it first.
func TestPredictBatchMatchesSequential(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		X, y := synth(seed, 400, 9)
		train, test := X[:300], X[300:]
		models := append(batchModels(t, seed, train, y[:300]), treeOuterForest(t, seed))
		for _, m := range models {
			// Sizes 0..5 cover the empty batch, the scalar remainder
			// alone, and a partial block; 32 and 33 the scoring call and
			// one past it; the full test set many blocks plus remainder.
			for _, n := range []int{0, 1, 2, 3, 4, 5, 32, 33, len(test)} {
				want := ml.SequentialPredict(m, test[:n])
				garbage := make([]int, n+7)
				for i := range garbage {
					garbage[i] = 7 - i%3
				}
				for dname, dst := range map[string][]int{"nil": nil, "short": make([]int, n/2), "garbage": garbage} {
					got := m.PredictBatchInto(dst, test[:n])
					if len(got) != n {
						t.Fatalf("seed %d %s %s dst: PredictBatchInto(%d rows) returned %d labels", seed, m.Name(), dname, n, len(got))
					}
					if dname == "garbage" && n > 0 && &got[0] != &garbage[0] {
						t.Errorf("seed %d %s: PredictBatchInto reallocated a dst long enough for %d rows", seed, m.Name(), n)
					}
					for i := range got {
						if got[i] != want[i] {
							t.Errorf("seed %d %s %s dst row %d/%d: PredictBatchInto=%d Predict=%d", seed, m.Name(), dname, i, n, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestPredictProbaBatchMatchesSequential requires bit-equal attack
// scores from the batch path, not merely equal labels: the blocked
// kernels must preserve per-row accumulation order exactly.
func TestPredictProbaBatchMatchesSequential(t *testing.T) {
	for _, seed := range []int64{3, 42} {
		X, y := synth(seed, 400, 9)
		train, test := X[:300], X[300:]
		models := append(batchModels(t, seed, train, y[:300]), treeOuterForest(t, seed))
		for _, m := range models {
			bp, ok := m.(ml.BatchProbaClassifier)
			if !ok {
				continue // KNN has no probability surface
			}
			got := bp.PredictProbaBatch(test)
			for i, x := range test {
				want := bp.Proba(x)
				if math.Float64bits(got[i]) != math.Float64bits(want) {
					t.Errorf("seed %d %s row %d: PredictProbaBatch=%v Proba=%v (not bit-identical)", seed, m.Name(), i, got[i], want)
				}
			}
		}
	}
}

// TestPredictBatchDispatch checks the free helpers' two paths: a
// BatchClassifier goes through its amortized implementation, anything
// else through the reference loop, and both agree — PredictBatch and
// PredictBatchInto alike.
func TestPredictBatchDispatch(t *testing.T) {
	X, y := synth(11, 200, 6)
	g := bayes.New()
	if err := g.Fit(X[:150], y[:150]); err != nil {
		t.Fatal(err)
	}
	want := ml.SequentialPredict(g, X[150:])
	for name, c := range map[string]ml.Classifier{
		"batch": g,
		"plain": struct{ ml.Classifier }{g},
	} {
		for _, got := range [][]int{ml.PredictBatch(c, X[150:]), ml.PredictBatchInto(c, make([]int, 3, 64), X[150:])} {
			if len(got) != len(want) {
				t.Fatalf("%s: %d labels, want %d", name, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s row %d: dispatch=%d sequential=%d", name, i, got[i], want[i])
				}
			}
		}
	}
}

// TestTransformBatchZeroVariance pins the degenerate scaler case: a
// constant feature gets Std 1 at fit time, and the batch transform
// must reproduce TransformRow on it bit-for-bit, including when the
// destination buffers are reused across calls.
func TestTransformBatchZeroVariance(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	X := make([][]float64, 64)
	for i := range X {
		X[i] = []float64{rng.NormFloat64(), 3.25, rng.NormFloat64() * 10}
	}
	s := &ml.StandardScaler{}
	if err := s.Fit(X); err != nil {
		t.Fatal(err)
	}
	if s.Std[1] != 1 {
		t.Fatalf("zero-variance feature Std = %v, want 1", s.Std[1])
	}
	var dst [][]float64
	for pass := 0; pass < 2; pass++ { // second pass reuses dst's row buffers
		dst = s.TransformBatch(dst, X)
		for i, row := range X {
			want := s.TransformRow(nil, row)
			for j := range want {
				if math.Float64bits(dst[i][j]) != math.Float64bits(want[j]) {
					t.Fatalf("pass %d row %d col %d: TransformBatch=%v TransformRow=%v", pass, i, j, dst[i][j], want[j])
				}
			}
			if dst[i][1] != row[1]-s.Mean[1] {
				t.Fatalf("zero-variance column should be a pure shift, got %v", dst[i][1])
			}
		}
	}
}

// TestEnsembleVotesMatchesPerModelPredict checks the vote fan-out the
// live pipeline and the simulated mechanism both consume: votes[i][m]
// must equal model m's Predict on row i, and ones[i] its row sum.
func TestEnsembleVotesMatchesPerModelPredict(t *testing.T) {
	X, y := synth(42, 400, 9)
	train, test := X[:300], X[300:]
	batch := batchModels(t, 42, train, y[:300])
	models := make([]ml.Classifier, len(batch))
	for i, m := range batch {
		models[i] = m
	}
	votes, ones := ml.EnsembleVotesInto(nil, models, test)
	for i, x := range test {
		sum := 0
		for mi, m := range models {
			want := m.Predict(x)
			if votes[i][mi] != want {
				t.Errorf("row %d model %s: vote=%d Predict=%d", i, m.Name(), votes[i][mi], want)
			}
			sum += want
		}
		if ones[i] != sum {
			t.Errorf("row %d: ones=%d want %d", i, ones[i], sum)
		}
	}
}
