package ml

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func toyDataset(n int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &Dataset{Names: []string{"a", "b"}}
	for i := 0; i < n; i++ {
		y := i % 2
		x := []float64{rng.NormFloat64() + float64(y)*4, rng.NormFloat64()}
		d.Append(x, y, RowMeta{At: int64(i), Type: "t"})
	}
	return d
}

func TestDatasetValidate(t *testing.T) {
	d := toyDataset(10, 1)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := &Dataset{X: [][]float64{{1}}, Y: []int{0, 1}}
	if bad.Validate() == nil {
		t.Error("row/label mismatch accepted")
	}
	bad2 := &Dataset{X: [][]float64{{1}, {1, 2}}, Y: []int{0, 1}}
	if bad2.Validate() == nil {
		t.Error("ragged matrix accepted")
	}
	bad3 := &Dataset{X: [][]float64{{1}}, Y: []int{7}}
	if bad3.Validate() == nil {
		t.Error("non-binary label accepted")
	}
}

func TestDatasetSplitProportions(t *testing.T) {
	d := toyDataset(1000, 2)
	train, test := d.Split(0.1, 99)
	if test.Len() != 100 || train.Len() != 900 {
		t.Errorf("split sizes %d/%d, want 900/100", train.Len(), test.Len())
	}
	// No row lost or duplicated: count total feature sums.
	sum := func(ds *Dataset) float64 {
		var s float64
		for _, r := range ds.X {
			s += r[0]
		}
		return s
	}
	if math.Abs(sum(train)+sum(test)-sum(d)) > 1e-6 {
		t.Error("split lost rows")
	}
	// Deterministic under seed.
	tr2, _ := d.Split(0.1, 99)
	for i := range train.Y {
		if train.Y[i] != tr2.Y[i] {
			t.Fatal("split not deterministic")
		}
	}
}

func TestDatasetSubsample(t *testing.T) {
	d := toyDataset(500, 3)
	s := d.Subsample(50, 1)
	if s.Len() != 50 {
		t.Errorf("subsample len = %d", s.Len())
	}
	if d.Subsample(1000, 1) != d {
		t.Error("oversized subsample should return the dataset itself")
	}
	if len(s.Meta) != 50 {
		t.Errorf("meta not carried: %d", len(s.Meta))
	}
}

func TestConfusionAndMetrics(t *testing.T) {
	yTrue := []int{1, 1, 1, 1, 0, 0, 0, 0, 0, 0}
	yPred := []int{1, 1, 1, 0, 0, 0, 0, 0, 1, 1}
	m := Confusion(yTrue, yPred)
	if m.TP != 3 || m.FN != 1 || m.TN != 4 || m.FP != 2 {
		t.Fatalf("matrix = %+v", m)
	}
	if got := m.Accuracy(); got != 0.7 {
		t.Errorf("accuracy = %v", got)
	}
	if got := m.Recall(); got != 0.75 {
		t.Errorf("recall = %v", got)
	}
	if got := m.Precision(); got != 0.6 {
		t.Errorf("precision = %v", got)
	}
	wantF1 := 2 * 0.6 * 0.75 / (0.6 + 0.75)
	if got := m.F1(); math.Abs(got-wantF1) > 1e-12 {
		t.Errorf("f1 = %v, want %v", got, wantF1)
	}
}

func TestDegenerateAllNegativeScoresHalfF1(t *testing.T) {
	// The paper's Table IV sFlow NN row: recall 0, precision 0,
	// F1 0.5 — macro F1 of an all-negative classifier.
	yTrue := []int{1, 1, 0, 0, 0, 0, 0, 0, 0, 0}
	yPred := make([]int, 10)
	s := Score(yTrue, yPred)
	if s.Recall != 0 || s.Precision != 0 {
		t.Errorf("recall/precision = %v/%v, want 0/0", s.Recall, s.Precision)
	}
	// Macro F1 of an all-negative classifier tends to 0.5 as the
	// benign majority grows; at 80% benign it is 4/9.
	if math.Abs(s.F1-4.0/9.0) > 1e-12 {
		t.Errorf("degenerate F1 = %v, want 4/9", s.F1)
	}
	if s.Accuracy != 0.8 {
		t.Errorf("accuracy = %v", s.Accuracy)
	}
	// With a 1% attack share the macro F1 is ≈0.4987 — the paper's 0.5.
	bigTrue := make([]int, 1000)
	bigTrue[0] = 1
	bigPred := make([]int, 1000)
	if got := Score(bigTrue, bigPred).F1; math.Abs(got-0.5) > 0.002 {
		t.Errorf("1%%-attack degenerate F1 = %v, want ≈0.5", got)
	}
}

func TestMetricsEmptyAndPerfect(t *testing.T) {
	var m ConfusionMatrix
	if m.Accuracy() != 0 || m.Recall() != 0 || m.Precision() != 0 || m.F1() != 0 {
		t.Error("empty matrix metrics not zero")
	}
	p := Confusion([]int{1, 0, 1}, []int{1, 0, 1})
	if p.Accuracy() != 1 || p.F1() != 1 {
		t.Error("perfect prediction not scored 1.0")
	}
}

func TestConfusionProperty(t *testing.T) {
	f := func(raw []bool) bool {
		if len(raw) < 2 {
			return true
		}
		yTrue := make([]int, len(raw)/2)
		yPred := make([]int, len(raw)/2)
		for i := range yTrue {
			if raw[2*i] {
				yTrue[i] = 1
			}
			if raw[2*i+1] {
				yPred[i] = 1
			}
		}
		m := Confusion(yTrue, yPred)
		if m.Total() != len(yTrue) {
			return false
		}
		a := m.Accuracy()
		return a >= 0 && a <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestScalerStandardizes(t *testing.T) {
	X := [][]float64{{1, 10}, {2, 20}, {3, 30}, {4, 40}}
	var s StandardScaler
	Z, err := s.FitTransform(X)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 2; j++ {
		var mean, v float64
		for _, r := range Z {
			mean += r[j]
		}
		mean /= float64(len(Z))
		for _, r := range Z {
			v += (r[j] - mean) * (r[j] - mean)
		}
		v /= float64(len(Z))
		if math.Abs(mean) > 1e-12 {
			t.Errorf("col %d mean = %v", j, mean)
		}
		if math.Abs(v-1) > 1e-12 {
			t.Errorf("col %d var = %v", j, v)
		}
	}
	// Original untouched.
	if X[0][0] != 1 {
		t.Error("Transform mutated input")
	}
}

func TestScalerConstantColumn(t *testing.T) {
	X := [][]float64{{5, 1}, {5, 2}, {5, 3}}
	var s StandardScaler
	Z, err := s.FitTransform(X)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range Z {
		if r[0] != 0 {
			t.Errorf("constant column transformed to %v, want 0", r[0])
		}
		if math.IsNaN(r[1]) {
			t.Error("NaN in scaled output")
		}
	}
}

func TestScalerTransformRow(t *testing.T) {
	X := [][]float64{{0}, {10}}
	var s StandardScaler
	if err := s.Fit(X); err != nil {
		t.Fatal(err)
	}
	got := s.TransformRow(nil, []float64{5})
	if math.Abs(got[0]) > 1e-12 {
		t.Errorf("midpoint should scale to 0, got %v", got[0])
	}
	buf := make([]float64, 1)
	got2 := s.TransformRow(buf, []float64{10})
	if &got2[0] != &buf[0] {
		t.Error("TransformRow ignored the provided buffer")
	}
}

func TestScalerEmptyError(t *testing.T) {
	var s StandardScaler
	if err := s.Fit(nil); err == nil {
		t.Error("empty fit accepted")
	}
}

// thresholdModel classifies by x[0] > 0, ignoring other features.
type thresholdModel struct{}

func (thresholdModel) Name() string                 { return "thr" }
func (thresholdModel) Fit([][]float64, []int) error { return nil }
func (thresholdModel) Predict(x []float64) int {
	if x[0] > 0 {
		return 1
	}
	return 0
}

func TestPermutationImportanceFindsSignalFeature(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var X [][]float64
	var y []int
	for i := 0; i < 400; i++ {
		lbl := i % 2
		x0 := -1.0
		if lbl == 1 {
			x0 = 1.0
		}
		X = append(X, []float64{x0, rng.NormFloat64()})
		y = append(y, lbl)
	}
	imps := PermutationImportance(thresholdModel{}, X, y, []string{"signal", "noise"}, 1)
	if len(imps) != 2 {
		t.Fatalf("importances = %d", len(imps))
	}
	if imps[0].Value <= imps[1].Value {
		t.Errorf("signal importance %v not above noise %v", imps[0].Value, imps[1].Value)
	}
	if imps[0].Value < 0.3 {
		t.Errorf("signal importance %v too small", imps[0].Value)
	}
	top := TopK(imps, 1)
	if top[0].Name != "signal" {
		t.Errorf("top feature = %q", top[0].Name)
	}
}

func TestTopKOrderingAndBounds(t *testing.T) {
	imps := []FeatureImportance{
		{Index: 0, Name: "a", Value: 0.1},
		{Index: 1, Name: "b", Value: 0.5},
		{Index: 2, Name: "c", Value: 0.3},
	}
	top := TopK(imps, 2)
	if top[0].Name != "b" || top[1].Name != "c" {
		t.Errorf("top2 = %v", top)
	}
	if got := TopK(imps, 10); len(got) != 3 {
		t.Errorf("overlong k returned %d", len(got))
	}
	// Original slice untouched.
	if imps[0].Name != "a" {
		t.Error("TopK mutated input")
	}
}

func TestPredictBatch(t *testing.T) {
	X := [][]float64{{1}, {-1}, {2}}
	got := PredictBatch(thresholdModel{}, X)
	want := []int{1, 0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("batch = %v", got)
		}
	}
}
