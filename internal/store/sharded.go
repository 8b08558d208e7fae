package store

import (
	"sync/atomic"

	"github.com/amlight/intddos/internal/flow"
	"github.com/amlight/intddos/internal/netsim"
	"github.com/amlight/intddos/internal/obs"
)

// ShardedDB stripes the database by flow.Key hash: N independent DB
// shards, each with its own locks, flow map, journal, and prediction
// log. Decision logging for flows on different shards never contends —
// the partitioned per-bucket state AMON-style multi-gigabit monitors
// use, applied to the paper's one-database design. The only
// cross-shard state is an atomic sequence counter: every prediction
// carries a global decision stamp, so the per-shard logs are mergeable
// into the exact total order the legacy single-lock layout recorded
// directly (PredictionCursor).
//
// With one shard, a ShardedDB is a thin wrapper around a single DB
// and observably identical to it (the differential tests assert
// this).
type ShardedDB struct {
	shards []*DB

	// predCtr is the shared global stamp, installed into every shard so
	// stamping happens under the owning shard's lock.
	predCtr *atomic.Uint64
}

// NewSharded returns an empty database striped over n shards (n < 1
// is treated as 1).
func NewSharded(n int) *ShardedDB {
	if n < 1 {
		n = 1
	}
	s := &ShardedDB{shards: make([]*DB, n), predCtr: new(atomic.Uint64)}
	for i := range s.shards {
		sh := New()
		sh.predCtr = s.predCtr
		s.shards[i] = sh
	}
	return s
}

// shardFor routes a key to its shard.
func (s *ShardedDB) shardFor(key flow.Key) *DB {
	return s.shards[key.Shard(len(s.shards))]
}

// UpsertFlow writes a feature snapshot into the key's shard.
func (s *ShardedDB) UpsertFlow(key flow.Key, features []float64, registeredAt, updatedAt netsim.Time, updates int, truth bool, attackType string) bool {
	return s.shardFor(key).UpsertFlow(key, features, registeredAt, updatedAt, updates, truth, attackType)
}

// DeleteFlow removes a flow record from its shard.
func (s *ShardedDB) DeleteFlow(key flow.Key) { s.shardFor(key).DeleteFlow(key) }

// PollShard returns up to max journal entries after cursor on one
// shard and the new cursor. Each shard has independent, dense
// sequence numbers; a cursor is only meaningful for the shard it came
// from. An out-of-range shard — a stale index from a checkpoint taken
// at a different -shards value — yields no entries and an unchanged
// cursor instead of panicking.
func (s *ShardedDB) PollShard(shard int, cursor uint64, max int) ([]FlowRecord, uint64) {
	if shard < 0 || shard >= len(s.shards) {
		return nil, cursor
	}
	return s.shards[shard].PollUpdates(cursor, max)
}

// TrimShard drops one shard's journal entries at or before cursor;
// out-of-range shards are a no-op.
func (s *ShardedDB) TrimShard(shard int, cursor uint64) {
	if shard < 0 || shard >= len(s.shards) {
		return
	}
	s.shards[shard].TrimJournal(cursor)
}

// JournalLen sums unconsumed journal entries across shards.
func (s *ShardedDB) JournalLen() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.JournalLen()
	}
	return n
}

// AppendPrediction logs a final decision into the key's shard.
// PR 2 kept one global log behind one mutex — the store's top
// serialization point once prediction scaled out; decisions of flows on
// different shards now never contend. The shared decision-sequence
// stamp (taken under the shard's log lock) is what lets
// PredictionCursor reconstruct the global append order.
func (s *ShardedDB) AppendPrediction(p PredictionRecord) {
	s.shardFor(p.Key).AppendPrediction(p)
}

// PredictionCursor reads the decisions logged so far with Seq > after,
// merged across shards into global decision order.
func (s *ShardedDB) PredictionCursor(after uint64) *MergeCursor {
	logs := make([]predView, len(s.shards))
	for i, sh := range s.shards {
		logs[i] = sh.freezePredictions()
	}
	return newMergeCursor(logs, after)
}

// LastPredictionSeq returns the newest decision stamp handed out.
func (s *ShardedDB) LastPredictionSeq() uint64 { return s.predCtr.Load() }

// PredictionCount sums the per-shard prediction logs.
func (s *ShardedDB) PredictionCount() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.PredictionCount()
	}
	return n
}

// Instrument registers the striped database's metrics on reg: the
// prediction-log gauge the legacy DB exposes, the stripe count, and a
// prediction-log contention counter shared by all shards.
func (s *ShardedDB) Instrument(reg *obs.Registry) {
	reg.GaugeFunc("intddos_store_predictions_logged", func() float64 { return float64(s.PredictionCount()) })
	reg.GaugeFunc("intddos_store_shards", func() float64 { return float64(len(s.shards)) })
	predContention := reg.Counter("intddos_store_predlog_contention_total")
	for _, sh := range s.shards {
		sh.PredContention = predContention
	}
}

var _ Store = (*ShardedDB)(nil)
