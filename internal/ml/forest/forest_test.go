package forest

import (
	"math/rand"
	"strings"
	"testing"

	"github.com/amlight/intddos/internal/ml"
)

// blobs builds a linearly separable 2-class problem with noise
// features.
func blobs(n int, noise int, seed int64) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		y[i] = i % 2
		row := make([]float64, 2+noise)
		row[0] = rng.NormFloat64() + float64(y[i])*5
		row[1] = rng.NormFloat64() - float64(y[i])*3
		for j := 2; j < len(row); j++ {
			row[j] = rng.NormFloat64()
		}
		X[i] = row
	}
	return X, y
}

// xorData builds the classic non-linearly-separable XOR problem.
func xorData(n int, seed int64) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		a, b := rng.Intn(2), rng.Intn(2)
		X[i] = []float64{float64(a) + rng.NormFloat64()*0.1, float64(b) + rng.NormFloat64()*0.1}
		y[i] = a ^ b
	}
	return X, y
}

func TestForestSeparatesBlobs(t *testing.T) {
	X, y := blobs(600, 3, 1)
	f := New(Default(7))
	if err := f.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	m := ml.Confusion(y, ml.PredictBatch(f, X))
	if m.Accuracy() < 0.99 {
		t.Errorf("train accuracy = %v, want ≥0.99", m.Accuracy())
	}
	Xt, yt := blobs(300, 3, 2)
	mt := ml.Confusion(yt, ml.PredictBatch(f, Xt))
	if mt.Accuracy() < 0.98 {
		t.Errorf("test accuracy = %v, want ≥0.98", mt.Accuracy())
	}
}

func TestForestLearnsXOR(t *testing.T) {
	X, y := xorData(800, 3)
	f := New(Config{Trees: 30, MaxDepth: 8, Seed: 1, MaxFeatures: 2})
	if err := f.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	Xt, yt := xorData(200, 4)
	m := ml.Confusion(yt, ml.PredictBatch(f, Xt))
	if m.Accuracy() < 0.95 {
		t.Errorf("XOR accuracy = %v — trees must capture interactions", m.Accuracy())
	}
}

func TestForestDeterministicUnderSeed(t *testing.T) {
	X, y := blobs(300, 2, 5)
	Xt, _ := blobs(100, 2, 6)
	f1 := New(Default(11))
	f2 := New(Default(11))
	f1.Fit(X, y)
	f2.Fit(X, y)
	for i, x := range Xt {
		if f1.Predict(x) != f2.Predict(x) {
			t.Fatalf("row %d differs between same-seed forests", i)
		}
	}
}

func TestForestImportancesFavorSignal(t *testing.T) {
	X, y := blobs(600, 4, 9)
	f := New(Default(3))
	f.Fit(X, y)
	imp := f.Importances()
	if len(imp) != 6 {
		t.Fatalf("importances = %d", len(imp))
	}
	var sum float64
	for _, v := range imp {
		if v < 0 {
			t.Errorf("negative importance %v", v)
		}
		sum += v
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("importances sum = %v, want 1", sum)
	}
	// Signal features 0 and 1 dominate noise 2..5.
	for j := 2; j < 6; j++ {
		if imp[j] > imp[0]+imp[1] {
			t.Errorf("noise feature %d importance %v above signal", j, imp[j])
		}
	}
	if imp[0]+imp[1] < 0.7 {
		t.Errorf("signal importance share = %v, want ≥0.7", imp[0]+imp[1])
	}
}

func TestForestErrorCases(t *testing.T) {
	f := New(Default(1))
	if err := f.Fit(nil, nil); err == nil {
		t.Error("empty fit accepted")
	}
	if err := f.Fit([][]float64{{1}}, []int{0, 1}); err == nil {
		t.Error("mismatched fit accepted")
	}
}

func TestForestSingleClassTraining(t *testing.T) {
	X := [][]float64{{1}, {2}, {3}}
	y := []int{1, 1, 1}
	f := New(Config{Trees: 5, Seed: 1})
	if err := f.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if f.Predict([]float64{1.5}) != 1 {
		t.Error("pure-class forest should predict that class")
	}
}

func TestForestProbaMonotoneWithVotes(t *testing.T) {
	X, y := blobs(400, 0, 13)
	f := New(Default(2))
	f.Fit(X, y)
	pPos := f.Proba([]float64{5, -3})
	pNeg := f.Proba([]float64{0, 0})
	if pPos <= pNeg {
		t.Errorf("proba(pos)=%v not above proba(neg)=%v", pPos, pNeg)
	}
	if pPos < 0 || pPos > 1 || pNeg < 0 || pNeg > 1 {
		t.Error("proba out of [0,1]")
	}
}

func TestForestRespectsMaxDepth(t *testing.T) {
	X, y := xorData(500, 17)
	f := New(Config{Trees: 10, MaxDepth: 3, Seed: 1})
	f.Fit(X, y)
	for i, tr := range f.trees {
		if d := tr.depth(); d > 3 {
			t.Errorf("tree %d depth %d exceeds max 3", i, d)
		}
	}
}

func TestForestTreesCount(t *testing.T) {
	X, y := blobs(100, 0, 21)
	f := New(Config{Trees: 17, Seed: 1})
	f.Fit(X, y)
	if len(f.trees) != 17 {
		t.Errorf("trees = %d, want 17", len(f.trees))
	}
}

func TestGiniFunction(t *testing.T) {
	if g := gini(0, 0); g != 0 {
		t.Errorf("gini(0,0) = %v", g)
	}
	if g := gini(10, 0); g != 0 {
		t.Errorf("pure gini = %v, want 0", g)
	}
	if g := gini(5, 5); g != 0.5 {
		t.Errorf("balanced gini = %v, want 0.5", g)
	}
}

func TestTreeConstantFeaturesMakeLeaf(t *testing.T) {
	// All rows identical: no valid split exists; must terminate.
	X := [][]float64{{1, 1}, {1, 1}, {1, 1}, {1, 1}}
	y := []int{0, 1, 0, 1}
	f := New(Config{Trees: 3, Seed: 1})
	if err := f.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	// Prediction is the majority of bootstrap labels; just ensure no
	// panic and a valid label.
	if p := f.Predict([]float64{1, 1}); p != 0 && p != 1 {
		t.Errorf("prediction = %d", p)
	}
}

func TestForestDumpAndSummary(t *testing.T) {
	X, y := blobs(200, 1, 31)
	f := New(Config{Trees: 3, MaxDepth: 4, Seed: 1})
	if err := f.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	out := f.Dump(0, []string{"sig1", "sig2"})
	if !strings.Contains(out, "if ") || !strings.Contains(out, "→") {
		t.Errorf("dump = %q", out)
	}
	if !strings.Contains(out, "sig1") && !strings.Contains(out, "sig2") && !strings.Contains(out, "f2") {
		t.Error("dump names no features")
	}
	if got := f.Dump(99, nil); !strings.Contains(got, "no tree 99") {
		t.Errorf("out-of-range dump = %q", got)
	}
	s := f.Summary()
	if s.Trees != 3 || s.Nodes == 0 || s.Leaves == 0 {
		t.Errorf("summary = %+v", s)
	}
	if s.MaxDepth > 4 {
		t.Errorf("summary depth %d exceeds configured max", s.MaxDepth)
	}
	// Leaves + internal = nodes; a binary tree has internal+1 leaves
	// per tree.
	if s.Leaves != (s.Nodes-s.Leaves)+s.Trees {
		t.Errorf("leaf/node structure inconsistent: %+v", s)
	}
}

func TestForestSerializeRoundTripPredictions(t *testing.T) {
	X, y := blobs(300, 2, 33)
	f := New(Config{Trees: 7, Seed: 3})
	f.Fit(X, y)
	blob, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	g := New(Config{})
	if err := g.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	Xt, _ := blobs(100, 2, 34)
	for i, x := range Xt {
		if f.Predict(x) != g.Predict(x) {
			t.Fatalf("prediction differs at %d after round trip", i)
		}
	}
	// Importances survive too.
	fi, gi := f.Importances(), g.Importances()
	for j := range fi {
		if fi[j] != gi[j] {
			t.Fatalf("importance %d differs", j)
		}
	}
}

func TestForestUnmarshalRejectsCorruption(t *testing.T) {
	X, y := blobs(100, 0, 35)
	f := New(Config{Trees: 2, Seed: 1})
	f.Fit(X, y)
	blob, _ := f.MarshalBinary()
	for _, cut := range []int{0, 8, len(blob) / 2} {
		g := New(Config{})
		if err := g.UnmarshalBinary(blob[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	bad := append([]byte(nil), blob...)
	bad[0] ^= 0xFF
	g := New(Config{})
	if err := g.UnmarshalBinary(bad); err == nil {
		t.Error("bad magic accepted")
	}
}
