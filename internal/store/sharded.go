package store

import (
	"sync/atomic"

	"github.com/amlight/intddos/internal/flow"
	"github.com/amlight/intddos/internal/netsim"
	"github.com/amlight/intddos/internal/obs"
)

// ShardedDB stripes the database by flow.Key hash: N independent DB
// shards, each with its own locks, flow map, journal, and prediction
// log. Ingest, polling, and decision logging for flows on different
// shards never contend — the partitioned per-bucket state AMON-style
// multi-gigabit monitors use, applied to the paper's one-database
// design. The only cross-shard state is a pair of atomic sequence
// counters: every journal entry carries a global ingest stamp and
// every prediction a global decision stamp, so the per-shard logs are
// mergeable into the exact total orders the legacy single-lock layout
// recorded directly (PollGlobal, Predictions).
//
// With one shard, a ShardedDB is a thin wrapper around a single DB
// and observably identical to it (the differential tests assert
// this), which keeps the paper's Table VI reproduction bit-exact at
// N=1.
type ShardedDB struct {
	shards []*DB

	// gseqCtr/predCtr are the shared global stamps, installed into
	// every shard so stamping happens under the owning shard's lock.
	gseqCtr *atomic.Uint64
	predCtr *atomic.Uint64
}

// NewSharded returns an empty database striped over n shards (n < 1
// is treated as 1) that journals new records.
func NewSharded(n int) *ShardedDB {
	if n < 1 {
		n = 1
	}
	s := &ShardedDB{
		shards:  make([]*DB, n),
		gseqCtr: new(atomic.Uint64),
		predCtr: new(atomic.Uint64),
	}
	for i := range s.shards {
		sh := New()
		sh.gseqCtr = s.gseqCtr
		sh.predCtr = s.predCtr
		s.shards[i] = sh
	}
	return s
}

// shardFor routes a key to its shard.
func (s *ShardedDB) shardFor(key flow.Key) *DB {
	return s.shards[key.Shard(len(s.shards))]
}

// ShardFor returns the shard index key routes to (exported for the
// dispatch layer, which must agree with the store on placement).
func (s *ShardedDB) ShardFor(key flow.Key) int { return key.Shard(len(s.shards)) }

// Shards returns the stripe count.
func (s *ShardedDB) Shards() int { return len(s.shards) }

// UpsertFlow writes a feature snapshot into the key's shard.
func (s *ShardedDB) UpsertFlow(key flow.Key, features []float64, registeredAt, updatedAt netsim.Time, updates int, truth bool, attackType string) bool {
	return s.shardFor(key).UpsertFlow(key, features, registeredAt, updatedAt, updates, truth, attackType)
}

// Flow returns a copy of the record for key and whether it exists.
func (s *ShardedDB) Flow(key flow.Key) (FlowRecord, bool) { return s.shardFor(key).Flow(key) }

// FlowCount sums live flow records across shards.
func (s *ShardedDB) FlowCount() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.FlowCount()
	}
	return n
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

// PollGlobal returns up to max journal entries after cursor in global
// ingest order: a k-way merge of the per-shard journals by their
// global stamp. Each shard's journal is gseq-sorted, so the merge
// reconstructs the exact interleaving a single shared journal would
// have recorded. The returned cursor is the stamp of the last entry.
func (s *ShardedDB) PollGlobal(cursor uint64, max int) ([]FlowRecord, uint64) {
	heads := make([][]journalEntry, len(s.shards))
	for i, sh := range s.shards {
		heads[i] = sh.pollGlobalEntries(cursor, max)
	}
	out := make([]FlowRecord, 0, max)
	for max <= 0 || len(out) < max {
		best := -1
		for i, h := range heads {
			if len(h) == 0 {
				continue
			}
			if best < 0 || h[0].gseq < heads[best][0].gseq {
				best = i
			}
		}
		if best < 0 {
			break
		}
		cursor = heads[best][0].gseq
		out = append(out, heads[best][0].rec)
		heads[best] = heads[best][1:]
	}
	if len(out) == 0 {
		return nil, cursor
	}
	return out, cursor
}

// TrimGlobal drops entries at or before cursor (global order) from
// every shard's journal.
func (s *ShardedDB) TrimGlobal(cursor uint64) {
	for _, sh := range s.shards {
		sh.TrimGlobal(cursor)
	}
}

// JournalLen sums unconsumed journal entries across shards.
func (s *ShardedDB) JournalLen() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.JournalLen()
	}
	return n
}

// ShardJournalLen returns one shard's unconsumed journal length.
func (s *ShardedDB) ShardJournalLen(shard int) int { return s.shards[shard].JournalLen() }

// AppendPrediction logs a final decision into the key's shard.
// PR 2 kept one global log behind one mutex — the store's top
// serialization point once prediction scaled out; decisions of flows on
// different shards now never contend. The shared decision-sequence
// stamp (taken under the shard's log lock) is what lets Predictions
// reconstruct the global append order.
func (s *ShardedDB) AppendPrediction(p PredictionRecord) {
	s.shardFor(p.Key).AppendPrediction(p)
}

// Predictions returns the prediction log in global decision order: a
// merge-on-read of the Seq-sorted per-shard logs (see MergeCursor).
func (s *ShardedDB) Predictions() []PredictionRecord { return s.PredictionCursor(0).All() }

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

// ShardPredictions returns one shard's prediction log in Seq order
// (the unit the checkpoint format persists per shard).
func (s *ShardedDB) ShardPredictions(shard int) []PredictionRecord {
	if shard < 0 || shard >= len(s.shards) {
		return nil
	}
	return s.shards[shard].Predictions()
}

// PredictionCount sums the per-shard prediction logs.
func (s *ShardedDB) PredictionCount() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.PredictionCount()
	}
	return n
}

// SetJournalNew toggles journaling of brand-new records on every
// shard.
func (s *ShardedDB) SetJournalNew(on bool) {
	for _, sh := range s.shards {
		sh.SetJournalNew(on)
	}
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
