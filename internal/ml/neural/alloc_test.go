//go:build !race

package neural

import "testing"

// The race detector makes sync.Pool drop a share of its Puts on
// purpose, so allocation counts are pinned only without it.

// TestPredictBatchAllocsPerCall pins what a scoring call allocates to
// its two result slices: the activation buffers come from the pool, at
// batch 1 (the scalar path) as at batch 32 (the block path).
func TestPredictBatchAllocsPerCall(t *testing.T) {
	X, y := blobs(64, 23)
	n := New(MLP(1))
	n.cfg.Epochs = 1
	if err := n.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{1, 32} {
		batch := X[:size]
		if got := testing.AllocsPerRun(200, func() { n.PredictBatch(batch) }); got > 2 {
			t.Errorf("PredictBatch at batch %d: %v allocations per call, want at most 2", size, got)
		}
	}
}
