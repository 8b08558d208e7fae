package fault

import (
	"fmt"
	"time"

	"github.com/amlight/intddos/internal/ml"
	"github.com/amlight/intddos/internal/store"
)

// Store wraps a store.Store with injected stalls and transient
// errors on the one write the live pipeline makes, the prediction
// log's. AppendPrediction stalls but cannot fail (the interface has no
// error return); TryAppendPrediction, the store.Fallible path core.Live
// takes, can. Everything else is the inner store's.
type Store struct {
	store.Store
	in *Injector
}

// WrapStore wraps s with the injector's store faults. A nil injector
// returns a wrapper that behaves exactly like s.
func WrapStore(s store.Store, in *Injector) *Store {
	return &Store{Store: s, in: in}
}

// stall sleeps through an injected stall, if one fires.
func (s *Store) stall() {
	if d := s.in.StoreStall(); d > 0 {
		time.Sleep(d)
	}
}

// AppendPrediction stalls, then writes through.
func (s *Store) AppendPrediction(p store.PredictionRecord) {
	s.stall()
	s.Store.AppendPrediction(p)
}

// TryAppendPrediction stalls, then fails transiently — logging
// nothing — or writes through.
func (s *Store) TryAppendPrediction(p store.PredictionRecord) error {
	s.stall()
	if err := s.in.StoreErr(); err != nil {
		return err
	}
	s.Store.AppendPrediction(p)
	return nil
}

var (
	_ store.Store    = (*Store)(nil)
	_ store.Fallible = (*Store)(nil)
)

// Model wraps a classifier with injected per-model scoring failures
// and latency on the fallible batch path. The plain Classifier
// surface delegates untouched, so training, experiments, and
// serialization see the original model.
type Model struct {
	inner ml.Classifier
	in    *Injector
}

// WrapModel wraps m with the injector's model faults.
func WrapModel(m ml.Classifier, in *Injector) *Model {
	return &Model{inner: m, in: in}
}

// Name delegates, so fault targeting and health reporting use the
// real model name.
func (m *Model) Name() string { return m.inner.Name() }

// Fit delegates.
func (m *Model) Fit(X [][]float64, y []int) error { return m.inner.Fit(X, y) }

// Predict delegates (faults are injected only on the fallible batch
// path, where the caller can observe and handle them).
func (m *Model) Predict(x []float64) int { return m.inner.Predict(x) }

// PredictBatchInto delegates through the model's amortized path.
func (m *Model) PredictBatchInto(dst []int, X [][]float64) []int {
	return ml.PredictBatchInto(m.inner, dst, X)
}

// Features delegates shape reporting when the model supports it.
func (m *Model) Features() int { return ml.ExpectedFeatures(m.inner) }

// TryPredictBatchInto injects scoring latency and failures, then
// scores into dst through the model's fallible path (with panic
// containment).
func (m *Model) TryPredictBatchInto(dst []int, X [][]float64) ([]int, error) {
	if d := m.in.PredictDelay(); d > 0 {
		time.Sleep(d)
	}
	if m.in.ModelFail(m.inner.Name()) {
		return nil, fmt.Errorf("model %s: %w", m.inner.Name(), ErrInjected)
	}
	return ml.TryPredictBatchInto(m.inner, dst, X)
}

var (
	_ ml.BatchClassifier         = (*Model)(nil)
	_ ml.FallibleBatchClassifier = (*Model)(nil)
	_ ml.FeatureCounter          = (*Model)(nil)
)
