// Package ml provides the machine-learning foundation the detection
// models share: datasets, train/test splitting, standard scaling,
// binary-classification metrics, and permutation feature importance.
// Model families live in the subpackages forest, bayes, knn, and
// neural; all are implemented from scratch on the standard library.
package ml

import (
	"fmt"
	"math/rand"
)

// RowMeta carries per-row bookkeeping that is not visible to models:
// the observation time (for timeline figures) and the generating
// workload (for per-attack-type breakdowns).
type RowMeta struct {
	At   int64
	Type string
}

// Dataset is a dense feature matrix with binary labels (0 benign,
// 1 attack) and optional row metadata.
type Dataset struct {
	X     [][]float64
	Y     []int
	Names []string  // feature names, len == feature count
	Meta  []RowMeta // optional, len == len(X) when present
}

// Len returns the number of rows.
func (d *Dataset) Len() int { return len(d.X) }

// Features returns the feature count, 0 for an empty dataset.
func (d *Dataset) Features() int {
	if len(d.X) == 0 {
		return 0
	}
	return len(d.X[0])
}

// Append adds one row.
func (d *Dataset) Append(x []float64, y int, meta RowMeta) {
	d.X = append(d.X, x)
	d.Y = append(d.Y, y)
	d.Meta = append(d.Meta, meta)
}

// Validate checks structural invariants.
func (d *Dataset) Validate() error {
	if len(d.X) != len(d.Y) {
		return fmt.Errorf("ml: %d rows but %d labels", len(d.X), len(d.Y))
	}
	if len(d.Meta) != 0 && len(d.Meta) != len(d.X) {
		return fmt.Errorf("ml: %d rows but %d metadata entries", len(d.X), len(d.Meta))
	}
	w := d.Features()
	for i, row := range d.X {
		if len(row) != w {
			return fmt.Errorf("ml: row %d has %d features, want %d", i, len(row), w)
		}
	}
	for i, y := range d.Y {
		if y != 0 && y != 1 {
			return fmt.Errorf("ml: row %d label %d not binary", i, y)
		}
	}
	return nil
}

// Select returns a new dataset view containing the given row indices.
// Rows are shared, not copied.
func (d *Dataset) Select(idx []int) *Dataset {
	out := &Dataset{Names: d.Names}
	out.X = make([][]float64, len(idx))
	out.Y = make([]int, len(idx))
	if len(d.Meta) > 0 {
		out.Meta = make([]RowMeta, len(idx))
	}
	for i, j := range idx {
		out.X[i] = d.X[j]
		out.Y[i] = d.Y[j]
		if len(d.Meta) > 0 {
			out.Meta[i] = d.Meta[j]
		}
	}
	return out
}

// Split shuffles rows with the seed and partitions them so testFrac
// of them land in the test set, mirroring the paper's 90:10 split at
// testFrac = 0.1.
func (d *Dataset) Split(testFrac float64, seed int64) (train, test *Dataset) {
	n := d.Len()
	idx := rand.New(rand.NewSource(seed)).Perm(n)
	cut := int(float64(n) * testFrac)
	return d.Select(idx[cut:]), d.Select(idx[:cut])
}

// Subsample returns at most n rows drawn without replacement, the
// paper's device for keeping KNN tractable ("one thousandth of the
// whole sample").
func (d *Dataset) Subsample(n int, seed int64) *Dataset {
	if n >= d.Len() {
		return d
	}
	idx := rand.New(rand.NewSource(seed)).Perm(d.Len())[:n]
	return d.Select(idx)
}

// Classifier is a trained or trainable binary classifier.
type Classifier interface {
	// Name identifies the model family (e.g. "RF", "GNB").
	Name() string
	// Fit trains on the dataset.
	Fit(X [][]float64, y []int) error
	// Predict labels one feature vector.
	Predict(x []float64) int
}

// BatchClassifier is the primary scoring contract: a Classifier whose
// PredictBatchInto amortizes per-sample overhead (model-state
// traversal, cache misses) across a block of rows and writes the
// labels into a buffer the caller owns, so a steady scoring loop
// allocates nothing. Every model family in this repository implements
// it, and implementations are required to be row-for-row identical to
// calling Predict in a loop — batch scoring is a throughput
// optimization, never a semantic change.
type BatchClassifier interface {
	Classifier
	// PredictBatchInto labels every row of X into dst[:len(X)], growing
	// dst only when it is too short, and returns that slice: equal
	// element-wise to [Predict(x) for x in X], whatever dst held.
	PredictBatchInto(dst []int, X [][]float64) []int
}

// legacyBatchClassifier is the batch shape PredictBatchInto replaced:
// a fresh label slice a call. No type under internal/, cmd/ or
// examples/ implements it; the benchmark's timedModel wrapper still
// does, and this arm keeps its per-model spans firing until ROADMAP
// item 1(c) deletes it.
type legacyBatchClassifier interface {
	PredictBatch(X [][]float64) []int
}

// PredictBatch labels every row of X into a fresh slice, for callers
// that keep the labels: PredictBatchInto(c, nil, X).
func PredictBatch(c Classifier, X [][]float64) []int { return PredictBatchInto(c, nil, X) }

// PredictBatchInto labels every row of X into dst (see
// BatchClassifier), using the model's amortized batch path when it
// implements BatchClassifier and a sequential Predict loop otherwise.
// The two paths are interchangeable by the BatchClassifier contract.
func PredictBatchInto(c Classifier, dst []int, X [][]float64) []int {
	switch bc := c.(type) {
	case BatchClassifier:
		return bc.PredictBatchInto(dst, X)
	case legacyBatchClassifier:
		dst = labelBuf(dst, len(X))
		copy(dst, bc.PredictBatch(X))
		return dst
	}
	dst = labelBuf(dst, len(X))
	for i, x := range X {
		dst[i] = c.Predict(x)
	}
	return dst
}

// labelBuf returns dst resliced to n labels, reallocated only when its
// capacity is short.
func labelBuf(dst []int, n int) []int {
	if cap(dst) < n {
		return make([]int, n)
	}
	return dst[:n]
}

// SequentialPredict labels every row of X one Predict call at a time
// — the reference implementation batch paths are tested against.
func SequentialPredict(c Classifier, X [][]float64) []int {
	out := make([]int, len(X))
	for i, x := range X {
		out[i] = c.Predict(x)
	}
	return out
}

// FallibleBatchClassifier is the optional error-surfacing side of a
// classifier: a batch scoring path that can fail transiently instead
// of panicking or silently mislabeling — the contract fault-injected
// and remote models implement. Consumers (the live ensemble) treat an
// error as "this model produced no votes for this batch", mark the
// model's health, and degrade the quorum rather than the pipeline.
type FallibleBatchClassifier interface {
	Classifier
	// TryPredictBatchInto labels every row of X into dst as
	// PredictBatchInto does, or fails the whole batch. On success the
	// labels are row-for-row identical to PredictBatchInto's.
	TryPredictBatchInto(dst []int, X [][]float64) ([]int, error)
}

// TryPredictBatchInto scores X into dst through the model's fallible
// path when it has one, and otherwise through PredictBatchInto with
// panic containment: a panicking model surfaces as an error instead of
// killing the calling goroutine. This is the scoring entry point for
// callers that must survive a misbehaving ensemble member; it
// allocates nothing unless the model fails.
func TryPredictBatchInto(c Classifier, dst []int, X [][]float64) (labels []int, err error) {
	if fc, ok := c.(FallibleBatchClassifier); ok {
		return fc.TryPredictBatchInto(dst, X)
	}
	defer func() {
		if r := recover(); r != nil {
			labels, err = nil, fmt.Errorf("ml: model %s panicked: %v", c.Name(), r)
		}
	}()
	return PredictBatchInto(c, dst, X), nil
}

// FeatureCounter is implemented by trained models that know their
// input width. Pipelines use it to reject a model/scaler/feature-set
// mismatch at construction instead of panicking a worker at the first
// scoring call.
type FeatureCounter interface {
	// Features returns the trained input width, 0 before training.
	Features() int
}

// ExpectedFeatures returns the model's trained input width, or 0 when
// the model does not report one.
func ExpectedFeatures(c Classifier) int {
	if fc, ok := c.(FeatureCounter); ok {
		return fc.Features()
	}
	return 0
}
