package neural

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/amlight/intddos/internal/ml"
)

func blobs(n int, seed int64) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		y[i] = i % 2
		X[i] = []float64{rng.NormFloat64() + float64(y[i])*4, rng.NormFloat64() - float64(y[i])*2}
	}
	return X, y
}

func xorData(n int, seed int64) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		a, b := rng.Intn(2), rng.Intn(2)
		X[i] = []float64{float64(a)*2 - 1 + rng.NormFloat64()*0.1, float64(b)*2 - 1 + rng.NormFloat64()*0.1}
		y[i] = a ^ b
	}
	return X, y
}

func TestNetworkSeparatesBlobs(t *testing.T) {
	// Standardize as the detection pipeline always does before the NN.
	X, y := blobs(600, 1)
	var sc ml.StandardScaler
	Z, err := sc.FitTransform(X)
	if err != nil {
		t.Fatal(err)
	}
	n := New(ShallowNN(7))
	if err := n.Fit(Z, y); err != nil {
		t.Fatal(err)
	}
	Xt, yt := blobs(300, 2)
	m := ml.Confusion(yt, ml.PredictBatch(n, sc.Transform(Xt)))
	if m.Accuracy() < 0.97 {
		t.Errorf("accuracy = %v, want ≥0.97", m.Accuracy())
	}
}

func TestNetworkLearnsXOR(t *testing.T) {
	X, y := xorData(1200, 3)
	n := New(Config{Hidden: []int{16, 8}, Epochs: 120, Seed: 5})
	n.lr = 0.05
	if err := n.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	Xt, yt := xorData(400, 4)
	m := ml.Confusion(yt, ml.PredictBatch(n, Xt))
	if m.Accuracy() < 0.95 {
		t.Errorf("XOR accuracy = %v — the hidden layers must matter", m.Accuracy())
	}
}

func TestNetworkDeterministicUnderSeed(t *testing.T) {
	X, y := blobs(300, 6)
	Xt, _ := blobs(100, 7)
	n1, n2 := New(ShallowNN(9)), New(ShallowNN(9))
	n1.Fit(X, y)
	n2.Fit(X, y)
	for i, x := range Xt {
		if math.Abs(n1.Proba(x)-n2.Proba(x)) > 1e-12 {
			t.Fatalf("probas differ at row %d", i)
		}
	}
}

func TestNetworkProbaRange(t *testing.T) {
	X, y := blobs(300, 8)
	n := New(ShallowNN(1))
	n.Fit(X, y)
	for _, x := range X {
		p := n.Proba(x)
		if p < 0 || p > 1 || math.IsNaN(p) {
			t.Fatalf("proba = %v", p)
		}
	}
}

func TestNetworkConfigs(t *testing.T) {
	s := ShallowNN(1)
	if len(s.Hidden) != 3 || s.Hidden[0] != 32 || s.Hidden[1] != 16 || s.Hidden[2] != 8 {
		t.Errorf("ShallowNN hidden = %v", s.Hidden)
	}
	if s.DisplayName != "NN" {
		t.Errorf("ShallowNN name = %q", s.DisplayName)
	}
	m := MLP(1)
	if len(m.Hidden) != 3 || m.Hidden[0] != 64 || m.Hidden[1] != 32 || m.Hidden[2] != 16 {
		t.Errorf("MLP hidden = %v", m.Hidden)
	}
	if m.DisplayName != "MLP" {
		t.Errorf("MLP name = %q", m.DisplayName)
	}
	if New(Config{}).Name() != "NN" {
		t.Error("default display name")
	}
}

func TestNetworkErrors(t *testing.T) {
	n := New(ShallowNN(1))
	if err := n.Fit(nil, nil); err == nil {
		t.Error("empty fit accepted")
	}
	if err := n.Fit([][]float64{{1}}, []int{0, 1}); err == nil {
		t.Error("mismatched fit accepted")
	}
}

// TestFitRejectsRaggedRows checks that Fit names the first row whose
// width differs from row 0's, shorter or longer, instead of training on
// what a previous row left in the buffers.
func TestFitRejectsRaggedRows(t *testing.T) {
	for _, c := range []struct {
		name string
		bad  []float64
		want string
	}{
		{"shorter", []float64{1}, "neural: row 5 has 1 features, row 0 has 2"},
		{"longer", []float64{1, 2, 3}, "neural: row 5 has 3 features, row 0 has 2"},
	} {
		X, y := blobs(12, 3)
		X[5] = c.bad
		X[9] = c.bad
		err := New(ShallowNN(1)).Fit(X, y)
		if err == nil || err.Error() != c.want {
			t.Errorf("%s row: Fit error %v, want %q", c.name, err, c.want)
		}
	}
}

func TestNetworkUntrainedDefaults(t *testing.T) {
	n := New(ShallowNN(1))
	if n.Proba([]float64{1, 2}) != 0 || n.Predict([]float64{1, 2}) != 0 {
		t.Error("untrained network should default to benign")
	}
}

func TestNetworkLossDecreases(t *testing.T) {
	// Train twice with different epoch budgets; more epochs must not
	// be worse on the training set for this easy problem.
	rawX, y := blobs(400, 10)
	var sc ml.StandardScaler
	X, err := sc.FitTransform(rawX)
	if err != nil {
		t.Fatal(err)
	}
	short := New(Config{Hidden: []int{8}, Epochs: 1, Seed: 2})
	long := New(Config{Hidden: []int{8}, Epochs: 40, Seed: 2})
	short.Fit(X, y)
	long.Fit(X, y)
	accShort := ml.Confusion(y, ml.PredictBatch(short, X)).Accuracy()
	accLong := ml.Confusion(y, ml.PredictBatch(long, X)).Accuracy()
	if accLong+1e-9 < accShort {
		t.Errorf("long training (%v) worse than short (%v)", accLong, accShort)
	}
	if accLong < 0.95 {
		t.Errorf("converged accuracy = %v", accLong)
	}
}

func TestNetworkSerializeRoundTrip(t *testing.T) {
	X, y := blobs(300, 41)
	var sc ml.StandardScaler
	Z, _ := sc.FitTransform(X)
	n := New(MLP(5))
	if err := n.Fit(Z, y); err != nil {
		t.Fatal(err)
	}
	blob, err := n.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	m := New(Config{})
	if err := m.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if m.Name() != "MLP" {
		t.Errorf("name = %q after round trip", m.Name())
	}
	for i, x := range Z {
		if math.Abs(n.Proba(x)-m.Proba(x)) > 1e-12 {
			t.Fatalf("proba differs at %d", i)
		}
	}
}

func TestNetworkUnmarshalRejectsCorruption(t *testing.T) {
	X, y := blobs(100, 43)
	n := New(ShallowNN(1))
	n.Fit(X, y)
	blob, _ := n.MarshalBinary()
	if err := New(Config{}).UnmarshalBinary(blob[:20]); err == nil {
		t.Error("truncated blob accepted")
	}
	if _, err := New(ShallowNN(1)).MarshalBinary(); err == nil {
		t.Error("untrained marshal accepted")
	}
}

// TestPredictBatchConcurrentMatchesPredict pins the pooled scratch
// under the sharing the live pipeline has: prediction workers call one
// Network at once, each with its own batch, and every label must equal
// the single-row Predict — at sizes on both sides of the four-row
// block, so full and padded blocks share the packed planes.
func TestPredictBatchConcurrentMatchesPredict(t *testing.T) {
	checkBatchMatchesPredict(t)
}

// checkBatchMatchesPredict fits a small network and has eight
// goroutines score it in batches of 1, 3, 4, 7 and 32, each label
// checked against Predict, all through the kernels useAVX2 selects.
func checkBatchMatchesPredict(t *testing.T) {
	t.Helper()
	X, y := blobs(400, 17)
	var sc ml.StandardScaler
	Z, _ := sc.FitTransform(X)
	n := New(Config{Hidden: []int{16, 8}, Epochs: 5, Seed: 3})
	if err := n.Fit(Z, y); err != nil {
		t.Fatal(err)
	}
	want := make([]int, len(Z))
	for i, x := range Z {
		want[i] = n.Predict(x)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			size := []int{1, 3, 4, 7, 32}[g%5]
			var dst []int
			for round := 0; round < 20; round++ {
				for lo := 0; lo+size <= len(Z); lo += size {
					dst = n.PredictBatchInto(dst, Z[lo:lo+size])
					for i, got := range dst {
						if got != want[lo+i] {
							t.Errorf("goroutine %d batch %d row %d: PredictBatchInto %d, Predict %d",
								g, size, lo+i, got, want[lo+i])
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
