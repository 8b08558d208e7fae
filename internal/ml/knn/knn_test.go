package knn

import (
	"math/rand"
	"testing"

	"github.com/amlight/intddos/internal/ml"
)

func blobs(n int, seed int64) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		y[i] = i % 2
		X[i] = []float64{rng.NormFloat64() + float64(y[i])*6, rng.NormFloat64()}
	}
	return X, y
}

func TestKNNExactNeighbors(t *testing.T) {
	X := [][]float64{{0}, {1}, {2}, {10}, {11}, {12}}
	y := []int{0, 0, 0, 1, 1, 1}
	k := New(3)
	if err := k.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if k.Predict([]float64{1.2}) != 0 {
		t.Error("point near cluster 0 misclassified")
	}
	if k.Predict([]float64{10.7}) != 1 {
		t.Error("point near cluster 1 misclassified")
	}
	// Decision flips across the midpoint.
	if k.Predict([]float64{5.9}) != k.Predict([]float64{2}) {
		t.Error("point left of midpoint should vote with cluster 0")
	}
}

func TestKNNK1MemorizesTraining(t *testing.T) {
	X, y := blobs(200, 1)
	k := New(1)
	k.Fit(X, y)
	for i, x := range X {
		if k.Predict(x) != y[i] {
			t.Fatalf("1-NN failed to memorize row %d", i)
		}
	}
}

func TestKNNSeparatesBlobs(t *testing.T) {
	X, y := blobs(500, 2)
	k := New(5)
	k.Fit(X, y)
	Xt, yt := blobs(200, 3)
	m := ml.Confusion(yt, ml.PredictBatch(k, Xt))
	if m.Accuracy() < 0.98 {
		t.Errorf("accuracy = %v", m.Accuracy())
	}
}

func TestKNNBatchMatchesSingle(t *testing.T) {
	X, y := blobs(300, 4)
	k := New(7)
	k.Fit(X, y)
	Xt, _ := blobs(100, 5)
	batch := k.PredictBatchInto(make([]int, 3), Xt)
	for i, x := range Xt {
		if batch[i] != k.Predict(x) {
			t.Fatalf("batch and single disagree at %d", i)
		}
	}
}

func TestKNNKLargerThanTrainingSet(t *testing.T) {
	X := [][]float64{{0}, {10}, {11}}
	y := []int{0, 1, 1}
	k := New(50)
	k.Fit(X, y)
	if k.Predict([]float64{100}) != 1 {
		t.Error("majority of entire set should win when K exceeds n")
	}
}

func TestKNNErrors(t *testing.T) {
	k := New(3)
	if err := k.Fit(nil, nil); err == nil {
		t.Error("empty fit accepted")
	}
	if err := k.Fit([][]float64{{1}}, []int{0, 1}); err == nil {
		t.Error("mismatched fit accepted")
	}
}

func TestKNNDefaultK(t *testing.T) {
	if New(0).K != 5 {
		t.Error("default K should be 5")
	}
	if New(3).Name() != "KNN" {
		t.Error("name")
	}
}

func TestKNNTieGoesToBenign(t *testing.T) {
	// Even K with a 1-1 split: strict majority required for attack.
	X := [][]float64{{0}, {10}}
	y := []int{0, 1}
	k := New(2)
	k.Fit(X, y)
	if k.Predict([]float64{5}) != 0 {
		t.Error("tie should resolve to benign")
	}
}

func TestKNNSerializeRoundTrip(t *testing.T) {
	X, y := blobs(200, 21)
	k := New(7)
	k.Fit(X, y)
	blob, err := k.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	k2 := New(0)
	if err := k2.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if k2.K != 7 {
		t.Errorf("K = %d after round trip", k2.K)
	}
	Xt, _ := blobs(80, 22)
	for i, x := range Xt {
		if k.Predict(x) != k2.Predict(x) {
			t.Fatalf("prediction differs at %d", i)
		}
	}
}

func TestKNNUnmarshalRejectsCorruption(t *testing.T) {
	X, y := blobs(50, 23)
	k := New(3)
	k.Fit(X, y)
	blob, _ := k.MarshalBinary()
	if err := New(0).UnmarshalBinary(blob[:16]); err == nil {
		t.Error("truncated blob accepted")
	}
	if _, err := New(3).MarshalBinary(); err == nil {
		t.Error("untrained marshal accepted")
	}
}
