//go:build !race

package neural

import "testing"

// The race detector makes sync.Pool drop a share of its Puts on
// purpose, so allocation counts are pinned only without it.

// TestPredictBatchAllocsPerCall pins a scoring call with a warm label
// buffer at no allocation: the activation buffers come from the pool
// and the labels go straight into dst, at batch 1 (the scalar path),
// 3 (a partial block) and 32 (the block path).
func TestPredictBatchAllocsPerCall(t *testing.T) {
	X, y := blobs(64, 23)
	n := New(MLP(1))
	n.cfg.Epochs = 1
	if err := n.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{1, 3, 32} {
		batch, dst := X[:size], make([]int, size)
		if got := testing.AllocsPerRun(200, func() { dst = n.PredictBatchInto(dst, batch) }); got != 0 {
			t.Errorf("PredictBatchInto at batch %d: %v allocations per call, want 0", size, got)
		}
	}
}
