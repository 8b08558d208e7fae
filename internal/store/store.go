// Package store implements the database of the paper's Figure 2. Both
// pipelines use it as the decision log: a prediction log holding final
// labels with their prediction latencies. The keyed flow-record table
// and the update journal beside it (UpsertFlow, PollShard, TrimShard)
// are the round trip the paper's CentralServer polls; no pipeline in
// this repository takes it any more, and the benchmark's replay alone
// still times it.
//
// The store is safe for concurrent use: the live mode drives it from
// multiple goroutines.
package store

import (
	"sync"
	"sync/atomic"

	"github.com/amlight/intddos/internal/flow"
	"github.com/amlight/intddos/internal/netsim"
	"github.com/amlight/intddos/internal/obs"
)

// FlowRecord is one database row: the newest feature snapshot for a
// Flow ID plus bookkeeping.
type FlowRecord struct {
	Key flow.Key
	// Features is the snapshot taken at the observation that produced
	// this version.
	Features []float64
	// RegisteredAt is the record creation time; UpdatedAt the newest
	// observation time. The paper measures prediction latency from
	// the packet's registration in the record.
	RegisteredAt netsim.Time
	UpdatedAt    netsim.Time
	// Updates counts observations folded into the flow so far.
	Updates int
	// Version increments on every write of this record.
	Version uint64

	// Ground truth bookkeeping (never seen by models).
	Truth      bool
	AttackType string
}

// PredictionRecord is one logged final decision.
type PredictionRecord struct {
	Key   flow.Key
	Label int
	// At is when the decision was produced; Latency is At minus the
	// snapshot's registration time (§III-2's Prediction Latency).
	At      netsim.Time
	Latency netsim.Time
	// Votes are the per-model raw outputs behind the ensemble result:
	// at most MaxVotes of 0, 1 or VoteAbsent. A record read back from
	// the log carries a fresh slice.
	Votes []int

	// Seq is the global decision sequence number, stamped under the
	// owning shard's prediction-log lock at append time from a counter
	// shared across shards. Each per-shard log is therefore Seq-sorted,
	// and a k-way merge by Seq reconstructs the one global append order
	// the legacy shared log recorded directly.
	Seq uint64

	// FlowSeq is the per-flow decision index and Stage the cascade
	// stage that decided the record (0 = full ensemble). Both are
	// in-memory provenance: checkpoints do not persist them, so
	// restored history reads zero.
	FlowSeq int
	Stage   int

	Truth      bool
	AttackType string
}

// Store is the database contract the detection pipeline runs
// against. Two implementations exist: DB, the paper-faithful single
// mutex around one flow map (the shape of the original Python
// deployment's one database), and ShardedDB, N lock-striped DB shards
// for multi-core logging. Both pipelines keep their flows and their
// undecided rows themselves and write only the prediction log.
type Store interface {
	// UpsertFlow writes a feature snapshot for key into its flow record
	// and the journal, returning whether the record was created. The
	// features slice is copied.
	UpsertFlow(key flow.Key, features []float64, registeredAt, updatedAt netsim.Time, updates int, truth bool, attackType string) (created bool)
	// DeleteFlow removes a flow record (eviction passthrough).
	DeleteFlow(key flow.Key)

	// Shards returns the journal stripe count (1 for the legacy DB).
	Shards() int
	// PollShard returns up to max journal entries after cursor on one
	// shard and the new cursor — the CentralServer's change feed. The
	// records' Features are the caller's to keep.
	PollShard(shard int, cursor uint64, max int) ([]FlowRecord, uint64)
	// TrimShard drops one shard's journal entries at or before cursor.
	TrimShard(shard int, cursor uint64)
	// JournalLen returns unconsumed journal entries across all shards.
	JournalLen() int

	// AppendPrediction logs a final decision; Predictions materialises
	// the log in append order; PredictionCount returns its size. A
	// record the log cannot hold exactly (see MaxVotes) is a caller bug
	// and panics.
	AppendPrediction(p PredictionRecord)
	Predictions() []PredictionRecord
	PredictionCount() int

	// Instrument registers the store's metrics on reg.
	Instrument(reg *obs.Registry)
}

// Fallible is the optional error-surfacing side of a Store: the one
// write the live pipeline makes, which can fail transiently —
// fault-injected stores today, network- or disk-backed stores
// tomorrow. The in-memory DB and ShardedDB never fail and do not
// implement it; consumers type-assert and fall back to
// AppendPrediction. Callers are expected to retry with backoff and to
// account for writes they ultimately drop.
type Fallible interface {
	// TryAppendPrediction is AppendPrediction with a transient-failure
	// path. On error the record was not logged and may be retried.
	TryAppendPrediction(p PredictionRecord) error
}

// journalEntry marks one update available to pollers.
type journalEntry struct {
	seq   uint64     // dense per-shard sequence (PollShard indexes by it)
	chunk uint64     // the arena chunk holding rec.Features
	rec   FlowRecord // snapshot by value at write time; Features in the arena
}

// DB is the in-memory database. Its state is split across three
// locks so the hot paths never serialize on each other: mu guards the
// flow map (UpsertFlow's record work), jmu the journal and sequence
// counters (the append vs. its consumer), and pmu the prediction log
// (the deciding side). UpsertFlow nests jmu inside mu — the map update
// and journal append of one flow stay atomic, preserving per-flow
// journal order — and no path takes jmu or pmu and then mu, so the
// order is acyclic.
type DB struct {
	mu    sync.Mutex
	flows map[flow.Key]*FlowRecord

	jmu     sync.Mutex
	journal []journalEntry
	arena   rowArena
	seq     uint64

	pmu   sync.Mutex
	preds predLog
	// predMark is the Seq of the newest prediction included in the last
	// export; an incremental export ships only records after it.
	// Guarded by pmu.
	predMark uint64

	// predCtr stamps prediction records with the global decision
	// sequence. A standalone DB owns it; the shards of a ShardedDB
	// share one, which is what makes the per-shard prediction logs
	// mergeable into one total order.
	predCtr *atomic.Uint64

	// PredContention, when set, counts AppendPrediction calls that
	// found the prediction-log mutex already held (nil-safe; set by
	// Instrument and by ShardedDB.Instrument). With per-shard logs
	// only decisions of flows on the same shard can collide here.
	PredContention *obs.Counter
}

// Instrument registers the database's metrics on reg: the
// prediction-log gauge and its lock-contention counter — the log is
// the one part of the store the live pipeline writes. Call once per
// database; re-registration on the same registry is a no-op for the
// gauge.
func (db *DB) Instrument(reg *obs.Registry) {
	reg.GaugeFunc("intddos_store_predictions_logged", func() float64 { return float64(db.PredictionCount()) })
	db.PredContention = reg.Counter("intddos_store_predlog_contention_total")
}

// New returns an empty database.
func New() *DB {
	return &DB{
		flows:   make(map[flow.Key]*FlowRecord),
		predCtr: new(atomic.Uint64),
	}
}

// UpsertFlow writes a feature snapshot for key into its flow record
// and the journal, returning whether the record was created. The
// features slice is copied.
func (db *DB) UpsertFlow(key flow.Key, features []float64, registeredAt, updatedAt netsim.Time, updates int, truth bool, attackType string) (created bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	rec, ok := db.flows[key]
	if !ok {
		rec = &FlowRecord{Key: key, RegisteredAt: registeredAt}
		db.flows[key] = rec
		created = true
	}
	rec.Features = append(rec.Features[:0], features...)
	rec.UpdatedAt = updatedAt
	rec.Updates = updates
	rec.Version++
	rec.Truth = truth
	rec.AttackType = attackType
	// Appending under mu keeps one flow's journal entries in its upsert
	// order.
	db.appendJournal(*rec)
	return created
}

// appendJournal appends rec, its Features copied into the arena. The
// journal has its own lock so pollers reading the feed never block
// record work.
func (db *DB) appendJournal(rec FlowRecord) {
	db.jmu.Lock()
	db.seq++
	var chunk uint64
	rec.Features, chunk = db.arena.put(rec.Features)
	db.journal = append(db.journal, journalEntry{seq: db.seq, chunk: chunk, rec: rec})
	db.jmu.Unlock()
}

// PollUpdates returns up to max journal entries after cursor and the
// new cursor — the CentralServer's change feed (§III-3 step 4). The
// records' Features are copied out of the arena, into one slab.
func (db *DB) PollUpdates(cursor uint64, max int) ([]FlowRecord, uint64) {
	db.jmu.Lock()
	defer db.jmu.Unlock()
	// Binary-search-free scan from the tail would be O(n); the journal
	// is append-only with dense sequence numbers, so index directly.
	if len(db.journal) == 0 {
		return nil, cursor
	}
	first := db.journal[0].seq
	start := int(cursor - first + 1)
	if start < 0 {
		start = 0
	}
	if start >= len(db.journal) {
		return nil, cursor
	}
	end := start + max
	if max <= 0 || end > len(db.journal) {
		end = len(db.journal)
	}
	polled := db.journal[start:end]
	out := make([]FlowRecord, len(polled))
	slab := make([]float64, rowsLen(polled))
	for i := range polled {
		out[i] = detached(&polled[i], &slab)
	}
	return out, db.journal[end-1].seq
}

// TrimJournal drops journal entries at or before cursor, bounding
// memory once every poller has passed them.
func (db *DB) TrimJournal(cursor uint64) {
	db.jmu.Lock()
	defer db.jmu.Unlock()
	i := 0
	for i < len(db.journal) && db.journal[i].seq <= cursor {
		i++
	}
	db.dropJournalHead(i)
}

// dropJournalHead drops the journal's first n entries and recycles the
// arena chunks no remaining entry reads. Callers hold jmu.
func (db *DB) dropJournalHead(n int) {
	rest := copy(db.journal, db.journal[n:])
	clear(db.journal[rest:])
	db.journal = db.journal[:rest]
	db.arena.trimmed(db.journal)
}

// JournalLen returns the number of unconsumed journal entries.
func (db *DB) JournalLen() int {
	db.jmu.Lock()
	defer db.jmu.Unlock()
	return len(db.journal)
}

// AppendPrediction logs a final decision (§III-2 step 8), stamping it
// with the next global decision sequence number. The stamp is taken
// inside the log's lock, so the log is always Seq-sorted — the
// invariant the merge-on-read cursor depends on.
func (db *DB) AppendPrediction(p PredictionRecord) {
	rec, err := packPrediction(&p)
	if err != nil {
		panic(err)
	}
	if !db.pmu.TryLock() {
		db.PredContention.Inc() // nil-safe
		db.pmu.Lock()
	}
	defer db.pmu.Unlock()
	rec.seq = db.predCtr.Add(1)
	db.preds.append(rec, p.AttackType)
}

// freezePredictions returns the log as it stands (see predLog.view).
func (db *DB) freezePredictions() predView {
	db.pmu.Lock()
	defer db.pmu.Unlock()
	return db.preds.view()
}

// Predictions materialises the prediction log.
func (db *DB) Predictions() []PredictionRecord { return db.PredictionCursor(0).All() }

// PredictionCursor reads the decisions logged so far with Seq > after.
func (db *DB) PredictionCursor(after uint64) *MergeCursor {
	return newMergeCursor([]predView{db.freezePredictions()}, after)
}

// LastPredictionSeq returns the newest decision stamp handed out.
func (db *DB) LastPredictionSeq() uint64 { return db.predCtr.Load() }

// PredictionCount returns the size of the prediction log.
func (db *DB) PredictionCount() int {
	db.pmu.Lock()
	defer db.pmu.Unlock()
	return db.preds.n
}

// DeleteFlow removes a flow record (eviction passthrough).
func (db *DB) DeleteFlow(key flow.Key) {
	db.mu.Lock()
	defer db.mu.Unlock()
	delete(db.flows, key)
}

// Shards returns 1: the legacy database is a single journal stripe.
func (db *DB) Shards() int { return 1 }

// PollShard is PollUpdates on the store's only stripe, giving DB the
// same per-shard polling surface as ShardedDB. A shard other than 0 —
// e.g. a cursor restored from a checkpoint taken at a different shard
// count — yields no entries and leaves the cursor unchanged rather
// than panicking: the poller observes an empty feed and the restore
// path reports the mismatch.
func (db *DB) PollShard(shard int, cursor uint64, max int) ([]FlowRecord, uint64) {
	if shard != 0 {
		return nil, cursor
	}
	return db.PollUpdates(cursor, max)
}

// TrimShard is TrimJournal on the store's only stripe; out-of-range
// shards are a no-op for the same reason PollShard returns empty.
func (db *DB) TrimShard(shard int, cursor uint64) {
	if shard != 0 {
		return
	}
	db.TrimJournal(cursor)
}

var _ Store = (*DB)(nil)
