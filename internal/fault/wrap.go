package fault

import (
	"fmt"
	"time"

	"github.com/amlight/intddos/internal/flow"
	"github.com/amlight/intddos/internal/ml"
	"github.com/amlight/intddos/internal/netsim"
	"github.com/amlight/intddos/internal/obs"
	"github.com/amlight/intddos/internal/store"
)

// Store wraps a store.Store with injected shard stalls and — on the
// store.Fallible paths — transient errors. The plain Store methods
// stall but cannot fail (the interface has no error returns), so
// consumers that want the full fault surface must use TryAppendJournal
// and TryDrainShard; core.Live does.
type Store struct {
	inner store.Store
	in    *Injector
}

// WrapStore wraps s with the injector's store faults. A nil injector
// returns a wrapper that behaves exactly like s.
func WrapStore(s store.Store, in *Injector) *Store {
	return &Store{inner: s, in: in}
}

// Unwrap returns the wrapped store.
func (s *Store) Unwrap() store.Store { return s.inner }

// stall sleeps through an injected shard stall, if one fires.
func (s *Store) stall() {
	if d := s.in.StoreStall(); d > 0 {
		time.Sleep(d)
	}
}

// UpsertFlow stalls, then writes through.
func (s *Store) UpsertFlow(key flow.Key, features []float64, registeredAt, updatedAt netsim.Time, updates int, truth bool, attackType string) bool {
	s.stall()
	return s.inner.UpsertFlow(key, features, registeredAt, updatedAt, updates, truth, attackType)
}

// AppendJournal stalls, then writes through.
func (s *Store) AppendJournal(key flow.Key, features []float64, registeredAt, updatedAt netsim.Time, updates int, truth bool, attackType string) {
	s.stall()
	s.inner.AppendJournal(key, features, registeredAt, updatedAt, updates, truth, attackType)
}

// TryAppendJournal stalls, then fails transiently or writes through.
func (s *Store) TryAppendJournal(key flow.Key, features []float64, registeredAt, updatedAt netsim.Time, updates int, truth bool, attackType string) error {
	s.stall()
	if err := s.in.StoreErr(); err != nil {
		return err
	}
	s.inner.AppendJournal(key, features, registeredAt, updatedAt, updates, truth, attackType)
	return nil
}

// Flow reads through.
func (s *Store) Flow(key flow.Key) (store.FlowRecord, bool) { return s.inner.Flow(key) }

// FlowCount reads through.
func (s *Store) FlowCount() int { return s.inner.FlowCount() }

// DeleteFlow writes through.
func (s *Store) DeleteFlow(key flow.Key) { s.inner.DeleteFlow(key) }

// Shards reads through.
func (s *Store) Shards() int { return s.inner.Shards() }

// PollShard stalls, then polls through.
func (s *Store) PollShard(shard int, cursor uint64, max int) ([]store.FlowRecord, uint64) {
	s.stall()
	return s.inner.PollShard(shard, cursor, max)
}

// DrainShard stalls, then drains through.
func (s *Store) DrainShard(shard int, buf []store.FlowRecord) []store.FlowRecord {
	s.stall()
	return s.inner.DrainShard(shard, buf)
}

// TryDrainShard stalls, then fails transiently — consuming nothing —
// or drains through.
func (s *Store) TryDrainShard(shard int, buf []store.FlowRecord) ([]store.FlowRecord, error) {
	s.stall()
	if err := s.in.StoreErr(); err != nil {
		return buf, err
	}
	return s.inner.DrainShard(shard, buf), nil
}

// TrimShard writes through (trim is bookkeeping; failing it would
// only delay memory reclamation, not detection).
func (s *Store) TrimShard(shard int, cursor uint64) { s.inner.TrimShard(shard, cursor) }

// PollGlobal stalls, then polls through.
func (s *Store) PollGlobal(cursor uint64, max int) ([]store.FlowRecord, uint64) {
	s.stall()
	return s.inner.PollGlobal(cursor, max)
}

// TrimGlobal writes through, like TrimShard.
func (s *Store) TrimGlobal(cursor uint64) { s.inner.TrimGlobal(cursor) }

// JournalLen reads through.
func (s *Store) JournalLen() int { return s.inner.JournalLen() }

// AppendPrediction writes through.
func (s *Store) AppendPrediction(p store.PredictionRecord) { s.inner.AppendPrediction(p) }

// Predictions reads through.
func (s *Store) Predictions() []store.PredictionRecord { return s.inner.Predictions() }

// PredictionCount reads through.
func (s *Store) PredictionCount() int { return s.inner.PredictionCount() }

// SetJournalNew writes through.
func (s *Store) SetJournalNew(on bool) { s.inner.SetJournalNew(on) }

// Instrument registers the wrapped store's metrics.
func (s *Store) Instrument(reg *obs.Registry) { s.inner.Instrument(reg) }

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

// Unwrap returns the wrapped classifier.
func (m *Model) Unwrap() ml.Classifier { return m.inner }

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
