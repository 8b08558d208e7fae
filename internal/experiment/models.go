package experiment

import (
	"errors"
	"fmt"

	"github.com/amlight/intddos/internal/ml"
	"github.com/amlight/intddos/internal/ml/bayes"
	"github.com/amlight/intddos/internal/ml/forest"
	"github.com/amlight/intddos/internal/ml/knn"
	"github.com/amlight/intddos/internal/ml/neural"
)

// errUntrainedNN reports serialization of a never-fitted network.
var errUntrainedNN = errors.New("experiment: marshal of untrained NN")

// ModelSpec names a model family and how to build and budget it.
type ModelSpec struct {
	Name string
	// New builds an untrained classifier.
	New func(seed int64) ml.Classifier
	// TrainCap/TestCap subsample oversized datasets, the paper's own
	// device for keeping training tractable (§IV-B3: a subset
	// sufficed; KNN used one thousandth of the sample).
	TrainCap int
	TestCap  int
}

// adaptiveNN wraps the MLP so the epoch budget scales inversely with
// training-set size: tiny datasets (e.g. the sampled sFlow feed) need
// many more passes to converge than the bulk INT feed.
type adaptiveNN struct {
	cfg neural.Config
	net *neural.Network
}

func newAdaptiveNN(cfg neural.Config) *adaptiveNN { return &adaptiveNN{cfg: cfg} }

func (a *adaptiveNN) Name() string { return a.cfg.DisplayName }

func (a *adaptiveNN) Fit(X [][]float64, y []int) error {
	cfg := a.cfg
	if n := len(X); n > 0 {
		cfg.Epochs = 30
		if budget := 500000 / n; budget > cfg.Epochs {
			cfg.Epochs = budget
		}
		if cfg.Epochs > 600 {
			cfg.Epochs = 600
		}
	}
	a.net = neural.New(cfg)
	return a.net.Fit(X, y)
}

func (a *adaptiveNN) Predict(x []float64) int {
	if a.net == nil {
		return 0
	}
	return a.net.Predict(x)
}

// PredictBatchInto implements ml.BatchClassifier directly on the
// wrapped network's batched forward pass instead of falling through a
// sample loop; an untrained wrapper labels everything benign, like
// Predict.
func (a *adaptiveNN) PredictBatchInto(dst []int, X [][]float64) []int {
	if a.net == nil {
		if cap(dst) < len(X) {
			dst = make([]int, len(X))
		}
		dst = dst[:len(X)]
		clear(dst)
		return dst
	}
	return a.net.PredictBatchInto(dst, X)
}

// PredictProbaBatch delegates to the wrapped network's batch path.
func (a *adaptiveNN) PredictProbaBatch(X [][]float64) []float64 {
	if a.net == nil {
		return make([]float64, len(X))
	}
	return a.net.PredictProbaBatch(X)
}

// Proba exposes the wrapped network's attack score.
func (a *adaptiveNN) Proba(x []float64) float64 {
	if a.net == nil {
		return 0
	}
	return a.net.Proba(x)
}

// Every model family ships the amortized batch contract; a missing
// implementation is a compile error here rather than a silent
// fallthrough to the sample loop.
var (
	_ ml.BatchClassifier = (*forest.Forest)(nil)
	_ ml.BatchClassifier = (*bayes.GaussianNB)(nil)
	_ ml.BatchClassifier = (*knn.KNN)(nil)
	_ ml.BatchClassifier = (*neural.Network)(nil)
	_ ml.BatchClassifier = (*adaptiveNN)(nil)

	_ ml.BatchProbaClassifier = (*forest.Forest)(nil)
	_ ml.BatchProbaClassifier = (*bayes.GaussianNB)(nil)
	_ ml.BatchProbaClassifier = (*neural.Network)(nil)
	_ ml.BatchProbaClassifier = (*adaptiveNN)(nil)
)

// MarshalBinary delegates to the trained network.
func (a *adaptiveNN) MarshalBinary() ([]byte, error) {
	if a.net == nil {
		return nil, errUntrainedNN
	}
	return a.net.MarshalBinary()
}

// UnmarshalBinary restores the wrapped network.
func (a *adaptiveNN) UnmarshalBinary(buf []byte) error {
	net := neural.New(a.cfg)
	if err := net.UnmarshalBinary(buf); err != nil {
		return err
	}
	a.net = net
	return nil
}

// StageOneModels returns the four §IV-B model families: Random
// Forest, Gaussian Naive Bayes, K-Nearest Neighbors, and the shallow
// 32-16-8 Neural Network.
func StageOneModels() []ModelSpec {
	return []ModelSpec{
		{Name: "RF", New: func(seed int64) ml.Classifier { return forest.New(forest.Default(seed)) }, TrainCap: 40000},
		{Name: "GNB", New: func(int64) ml.Classifier { return bayes.New() }},
		{Name: "KNN", New: func(int64) ml.Classifier { return knn.New(5) }, TrainCap: 3000, TestCap: 15000},
		{Name: "NN", New: func(seed int64) ml.Classifier { return newAdaptiveNN(neural.ShallowNN(seed)) }, TrainCap: 40000},
	}
}

// StageTwoModels returns the §IV-C testbed ensemble members: MLP
// (64-32-16), RF, and GNB. KNN is dropped for its prediction cost,
// as in the paper.
func StageTwoModels() []ModelSpec {
	return []ModelSpec{
		{Name: "MLP", New: func(seed int64) ml.Classifier { return neural.New(neural.MLP(seed)) }, TrainCap: 40000},
		{Name: "RF", New: func(seed int64) ml.Classifier { return forest.New(forest.Default(seed)) }, TrainCap: 40000},
		{Name: "GNB", New: func(int64) ml.Classifier { return bayes.New() }},
	}
}

// EvalResult is one Table III/IV row.
type EvalResult struct {
	Data      string // "INT" or "sFlow"
	Model     string
	Scores    ml.Scores
	Confusion ml.ConfusionMatrix
	TrainRows int
	TestRows  int
}

// predictAll scores through the model's amortized batch path
// (ml.PredictBatch dispatches on ml.BatchClassifier).
func predictAll(c ml.Classifier, X [][]float64) []int {
	return ml.PredictBatch(c, X)
}

// TrainEval fits spec on train (after standardization) and scores it
// on test, honouring the spec's subsampling caps.
func TrainEval(spec ModelSpec, train, test *ml.Dataset, seed int64) (EvalResult, error) {
	if spec.TrainCap > 0 {
		train = train.Subsample(spec.TrainCap, seed)
	}
	if spec.TestCap > 0 {
		test = test.Subsample(spec.TestCap, seed+1)
	}
	model, scaler, err := FitModel(spec, train, seed)
	if err != nil {
		return EvalResult{}, err
	}
	pred := predictAll(model, scaler.Transform(test.X))
	m := ml.Confusion(test.Y, pred)
	return EvalResult{
		Model:     spec.Name,
		Scores:    ml.Score(test.Y, pred),
		Confusion: m,
		TrainRows: train.Len(),
		TestRows:  test.Len(),
	}, nil
}

// FitModel standardizes train and fits a fresh model, returning both
// the classifier and the scaler the paper's Prediction module would
// load alongside it.
func FitModel(spec ModelSpec, train *ml.Dataset, seed int64) (ml.Classifier, *ml.StandardScaler, error) {
	scaler := &ml.StandardScaler{}
	Z, err := scaler.FitTransform(train.X)
	if err != nil {
		return nil, nil, fmt.Errorf("experiment: scale %s: %w", spec.Name, err)
	}
	model := spec.New(seed)
	if err := model.Fit(Z, train.Y); err != nil {
		return nil, nil, fmt.Errorf("experiment: fit %s: %w", spec.Name, err)
	}
	return model, scaler, nil
}
