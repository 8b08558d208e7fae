//go:build !race

package neural

import "testing"

// The race detector makes sync.Pool drop a share of its Puts on
// purpose, so allocation counts are pinned only without it.

// TestPredictBatchAllocsPerCall pins a scoring call with a warm label
// buffer at no allocation: the activation buffers come from the pool
// and the labels go straight into dst, at batch 1 and 3 (one padded
// block) and 32 (eight full blocks).
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

// TestFitAllocsFlat pins Fit's allocations to the network's shape: the
// count is the same at 1 000 and 4 000 rows and at 10 and 30 epochs, so
// no buffer is made per mini-batch or per row.
func TestFitAllocsFlat(t *testing.T) {
	allocs := func(rows, epochs int) float64 {
		X, y := wideData(rows, 15, 11)
		cfg := MLP(42)
		cfg.Epochs = epochs
		return testing.AllocsPerRun(1, func() {
			if err := New(cfg).Fit(X, y); err != nil {
				t.Fatal(err)
			}
		})
	}
	base := allocs(1000, 10)
	if more := allocs(4000, 10); more != base {
		t.Errorf("Fit allocations: %v at 1 000 rows, %v at 4 000", base, more)
	}
	if longer := allocs(1000, 30); longer != base {
		t.Errorf("Fit allocations: %v at 10 epochs, %v at 30", base, longer)
	}
}
