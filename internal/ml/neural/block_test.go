package neural

import (
	"math"
	"math/rand"
	"testing"
)

// TestLayerBlock4MatchesGo checks the platform layerBlock4 kernel
// against the portable reference bit-for-bit across layer shapes,
// including odd output counts (the kernel's single-output tail) and
// negative values, in the forward call shape scoring makes and in the
// backward one training makes.
func TestLayerBlock4MatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, in := range []int{1, 2, 3, 12, 15, 64} {
		for _, out := range []int{1, 2, 3, 5, 16, 33} {
			w := make([]float64, in*out)
			for i := range w {
				w[i] = rng.NormFloat64()
			}
			b := make([]float64, out)
			for i := range b {
				b[i] = rng.NormFloat64()
			}
			xt := make([]float64, 4*in)
			for i := range xt {
				xt[i] = rng.NormFloat64() * 3
			}
			checkLayerBlock4(t, "forward", w, b, xt, in)

			// The backward call shape: the transposed weights (in
			// outputs of out inputs each), a zero bias and packed
			// deltas holding ±0 beside ReLU′-masked and signed values.
			wt := make([]float64, in*out)
			for o := 0; o < out; o++ {
				for i := 0; i < in; i++ {
					wt[i*out+o] = w[o*in+i]
				}
			}
			dt := make([]float64, 4*out)
			for i := range dt {
				switch rng.Intn(4) {
				case 0:
					dt[i] = 0
				case 1:
					dt[i] = math.Copysign(0, -1)
				default:
					dt[i] = rng.NormFloat64()
				}
			}
			checkLayerBlock4(t, "backward", wt, make([]float64, in), dt, out)
		}
	}
}

// checkLayerBlock4 runs one layerBlock4 call on the platform kernel and
// on the portable one and fails on the first output whose bits differ.
func checkLayerBlock4(t *testing.T, shape string, w, b, xt []float64, in int) {
	t.Helper()
	got := make([]float64, 4*len(b))
	want := make([]float64, 4*len(b))
	layerBlock4(w, b, xt, got, in)
	layerBlock4Go(w, b, xt, want, in)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s in=%d out=%d: yt[%d] = %x, want %x", shape, in, len(b), i, got[i], want[i])
		}
	}
}
