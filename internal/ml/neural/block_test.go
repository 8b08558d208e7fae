package neural

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLayerBlock4MatchesGo checks the platform layerBlock4 kernel
// against the portable reference bit-for-bit across layer shapes,
// including output counts that are not a multiple of four (the
// kernel's one-output tail) and negative values, in the forward call
// shape scoring makes, in padded blocks, and in the backward call
// shape training makes.
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

			// Padded blocks: m real rows, the spare lanes repeating
			// row m-1, whose outputs must repeat row m-1's bits.
			for m := 1; m < blockRows; m++ {
				pt := make([]float64, len(xt))
				for j := 0; j < in; j++ {
					for r := range blockRows {
						pt[4*j+r] = xt[4*j+min(r, m-1)]
					}
				}
				yt := checkLayerBlock4(t, "padded", w, b, pt, in)
				for o := range out {
					for r := m; r < blockRows; r++ {
						if math.Float64bits(yt[4*o+r]) != math.Float64bits(yt[4*o+m-1]) {
							t.Fatalf("padded in=%d out=%d m=%d: lane %d of output %d differs from lane %d", in, out, m, r, o, m-1)
						}
					}
				}
			}

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
				dt[i] = signedValue(rng, false)
			}
			checkLayerBlock4(t, "backward", wt, make([]float64, in), dt, out)
		}
	}
}

// checkLayerBlock4 runs one layerBlock4 call on the platform kernel and
// on the portable one, fails on the first output whose bits differ,
// and returns the platform kernel's outputs.
func checkLayerBlock4(t *testing.T, shape string, w, b, xt []float64, in int) []float64 {
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
	return got
}

// signedValue draws +0 or -0 one time in four, ±Inf one time in
// sixteen when inf is set, and a signed normal value otherwise.
func signedValue(rng *rand.Rand, inf bool) float64 {
	switch v := rng.Intn(16); {
	case v < 2:
		return 0
	case v < 4:
		return math.Copysign(0, -1)
	case inf && v == 4:
		return math.Inf(1 - 2*rng.Intn(2))
	default:
		return rng.NormFloat64()
	}
}

// TestGradStepMatchesGo checks the platform gradStep kernel against
// the portable reference bit-for-bit: input counts on both sides of
// the 16-input chunk and of its four-input groups (the masked tail),
// output counts with and without a partial block of deltas, every row
// count of a mini-batch, and operands holding ±0 and ±Inf.
func TestGradStepMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, in := range []int{1, 2, 3, 5, 15, 16, 64} {
		for _, out := range []int{1, 3, 16, 33} {
			for rows := 1; rows <= batchSize; rows++ {
				w := make([]float64, in*out)
				b := make([]float64, out)
				for i := range w {
					w[i] = signedValue(rng, false)
				}
				for i := range b {
					b[i] = signedValue(rng, false)
				}
				x := make([]float64, rows*in)
				for i := range x {
					x[i] = signedValue(rng, true)
				}
				d := make([]float64, (rows+blockRows-1)/blockRows*blockRows*out)
				for i := range d {
					d[i] = signedValue(rng, true)
				}
				lr := rng.Float64() / float64(rows)
				gotW, gotB := append([]float64(nil), w...), append([]float64(nil), b...)
				gradStep(gotW, gotB, x, d, in, rows, lr)
				gradStepGo(w, b, x, d, in, rows, lr)
				for i := range w {
					if math.Float64bits(gotW[i]) != math.Float64bits(w[i]) {
						t.Fatalf("in=%d out=%d rows=%d: w[%d] = %x, want %x", in, out, rows, i, gotW[i], w[i])
					}
				}
				for i := range b {
					if math.Float64bits(gotB[i]) != math.Float64bits(b[i]) {
						t.Fatalf("in=%d out=%d rows=%d: b[%d] = %x, want %x", in, out, rows, i, gotB[i], b[i])
					}
				}
			}
		}
	}
}

// TestPortableKernels runs the portable Go kernels where the AVX2 ones
// would run: the pinned weight digests and the batch-against-Predict
// labels must come out the same through either kernel set.
func TestPortableKernels(t *testing.T) {
	defer func(saved bool) { useAVX2 = saved }(useAVX2)
	useAVX2 = false
	checkFitDigests(t)
	checkBatchMatchesPredict(t)
}

// TestNoFusedMultiplyAdd fails on any assembly file in the module that
// uses a fused multiply-add: the kernels' bit-identity to the portable
// Go ones rests on every product being rounded before it is added.
func TestNoFusedMultiplyAdd(t *testing.T) {
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			t.Fatal("no go.mod above the package")
		}
		root = parent
	}
	files := 0
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".s" {
			return err
		}
		files++
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(src), "\n") {
			code, _, _ := strings.Cut(line, "//")
			for _, op := range []string{"VFMADD", "VFNMADD", "VFMSUB", "VFNMSUB"} {
				if strings.Contains(strings.ToUpper(code), op) {
					t.Errorf("%s:%d: fused multiply-add %s", path, i+1, strings.TrimSpace(code))
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 {
		t.Error("no assembly file found: the scan is not looking where the kernels are")
	}
}
