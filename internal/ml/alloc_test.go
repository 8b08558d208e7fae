//go:build !race

package ml_test

import (
	"testing"

	"github.com/amlight/intddos/internal/ml"
	"github.com/amlight/intddos/internal/ml/bayes"
	"github.com/amlight/intddos/internal/ml/forest"
	"github.com/amlight/intddos/internal/ml/neural"
)

// The race detector makes sync.Pool drop a share of its Puts on
// purpose (the MLP's activation buffers), so allocation counts are
// pinned only without it.

// TestPredictBatchIntoAllocs pins the scoring call at no allocation
// once its label buffer is warm: the forest on both of its paths, the
// MLP on its scalar path, a partial block and whole blocks, Gaussian NB,
// the panic-containing TryPredictBatchInto around a plain model, and
// EnsembleVotesInto on a warm scratch.
func TestPredictBatchIntoAllocs(t *testing.T) {
	X, y := synth(3, 400, 9)
	train, test := X[:300], X[300:]
	small := forest.New(forest.Default(3))
	nn := neural.New(neural.ShallowNN(3))
	nb := bayes.New()
	for _, m := range []ml.Classifier{small, nn, nb} {
		if err := m.Fit(train, y[:300]); err != nil {
			t.Fatal(err)
		}
	}
	if n := small.Summary().Nodes; n >= treeOuterMinNodes {
		t.Fatalf("row-outer fixture has %d nodes, want fewer than %d", n, treeOuterMinNodes)
	}
	cases := []struct {
		name  string
		model ml.Classifier
		sizes []int
	}{
		{"forest/row-outer", small, []int{1, 32}},
		{"forest/tree-outer", treeOuterForest(t, 3), []int{1, 32}},
		{"neural", nn, []int{1, 3, 32}},
		{"bayes", nb, []int{1, 3, 32}},
	}
	for _, c := range cases {
		for _, n := range c.sizes {
			dst := make([]int, n)
			batch := test[:n]
			if got := testing.AllocsPerRun(100, func() { dst = ml.PredictBatchInto(c.model, dst, batch) }); got != 0 {
				t.Errorf("%s at batch %d: %v allocations a call, want 0", c.name, n, got)
			}
		}
	}
	var plain ml.Classifier = struct{ ml.Classifier }{nb} // no batch path: the sequential loop
	dst := make([]int, 32)
	if got := testing.AllocsPerRun(100, func() { dst, _ = ml.TryPredictBatchInto(plain, dst, test[:32]) }); got != 0 {
		t.Errorf("TryPredictBatchInto: %v allocations a call, want 0", got)
	}
	var vs ml.VoteScratch
	models := []ml.Classifier{nn, small, nb}
	ml.EnsembleVotesInto(&vs, models, test[:32])
	if got := testing.AllocsPerRun(100, func() { ml.EnsembleVotesInto(&vs, models, test[:32]) }); got != 0 {
		t.Errorf("EnsembleVotesInto on a warm scratch: %v allocations a call, want 0", got)
	}
}
