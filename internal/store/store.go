// Package store implements the database of the paper's Figure 2: a
// keyed flow-record table the Data Processor writes feature snapshots
// into, an update journal the CentralServer polls, and a prediction
// log holding final labels with their prediction latencies.
//
// The store is safe for concurrent use; in simulation it is driven
// from the single-threaded event loop, but the live mode drives it
// from multiple goroutines.
package store

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

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
// for multi-core ingest. The journal is exposed per shard — Shards,
// DrainShard, PollShard, TrimShard — so a shard's consumer never
// touches a global lock; a single-shard store is polled exactly like
// the legacy PollUpdates/TrimJournal pair.
type Store interface {
	// UpsertFlow writes a feature snapshot for key into its flow record
	// and the journal, returning whether the record was created. The
	// features slice is copied.
	UpsertFlow(key flow.Key, features []float64, registeredAt, updatedAt netsim.Time, updates int, truth bool, attackType string) (created bool)
	// AppendJournal writes a feature snapshot for key to the journal
	// alone, keeping no flow record — for a writer whose own flow table
	// is the record. The features slice is copied, into the journal's
	// arena.
	AppendJournal(key flow.Key, features []float64, registeredAt, updatedAt netsim.Time, updates int, truth bool, attackType string)
	// Flow returns a copy of the record for key and whether it exists.
	Flow(key flow.Key) (FlowRecord, bool)
	// FlowCount returns the number of live flow records.
	FlowCount() int
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
	// DrainShard appends one shard's unconsumed journal entries to buf
	// and drops them from the journal — PollShard and TrimShard in one
	// lock hold, into the caller's buffer: the live pipeline's hand-off
	// feed, which consumes everything it reads and keeps no cursor.
	// The drained Features are lent from the journal's arena: they stay
	// valid until the caller drains the same shard again, which takes
	// them back. One caller drains a shard.
	DrainShard(shard int, buf []FlowRecord) []FlowRecord
	// PollGlobal returns up to max journal entries after cursor in
	// global ingest order — entries are stamped with a global sequence
	// shared across shards at write time, and the sharded store merges
	// its per-shard journals by that stamp. The single-threaded
	// simulated mechanism polls this feed so its queue order is
	// independent of the shard count; the live pipeline polls per
	// shard. The records' Features are the caller's to keep.
	PollGlobal(cursor uint64, max int) ([]FlowRecord, uint64)
	// TrimGlobal drops journal entries at or before cursor in the
	// global order, across all shards.
	TrimGlobal(cursor uint64)
	// JournalLen returns unconsumed journal entries across all shards.
	JournalLen() int

	// AppendPrediction logs a final decision; Predictions materialises
	// the log in append order; PredictionCount returns its size. A
	// record the log cannot hold exactly (see MaxVotes) is a caller bug
	// and panics.
	AppendPrediction(p PredictionRecord)
	Predictions() []PredictionRecord
	PredictionCount() int

	// SetJournalNew controls whether brand-new records enter the
	// journal (see DB.JournalNew).
	SetJournalNew(on bool)
	// Instrument registers the store's metrics on reg.
	Instrument(reg *obs.Registry)
}

// Fallible is the optional error-surfacing side of a Store: writes
// and polls that can fail transiently — fault-injected stores today,
// network- or disk-backed stores tomorrow. The in-memory DB and
// ShardedDB never fail and do not implement it; consumers type-assert
// and fall back to the infallible methods. Callers of the Try paths
// are expected to retry with backoff and to account for writes they
// ultimately drop.
type Fallible interface {
	// TryAppendJournal is AppendJournal with a transient-failure path.
	// On error the write did not happen and may be retried.
	TryAppendJournal(key flow.Key, features []float64, registeredAt, updatedAt netsim.Time, updates int, truth bool, attackType string) error
	// TryDrainShard is DrainShard with a transient-failure path. On
	// error no journal entries were consumed and the drain may be
	// retried.
	TryDrainShard(shard int, buf []FlowRecord) ([]FlowRecord, error)
}

// journalEntry marks one update available to pollers.
type journalEntry struct {
	seq   uint64     // dense per-shard sequence (PollShard indexes by it)
	gseq  uint64     // global ingest sequence, shared across shards
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

	// gseqCtr stamps journal entries with the global ingest sequence
	// and predCtr stamps prediction records with the global decision
	// sequence. A standalone DB owns both; the shards of a ShardedDB
	// share one of each, which is what makes the per-shard journals
	// and prediction logs mergeable into one total order.
	gseqCtr *atomic.Uint64
	predCtr *atomic.Uint64

	// JournalNew controls whether brand-new records enter the
	// journal. The strict reading of §III-3 has the CentralServer
	// skip new entries and react only to updates; the testbed results
	// (per-packet predictions from the first packet on, Figure 7)
	// require true, the default used by the mechanism.
	JournalNew bool

	// UpsertLatency, when set, observes the wall-clock duration of
	// every journal append — AppendJournal, or UpsertFlow's — in
	// seconds (nil-safe; set by Instrument).
	UpsertLatency *obs.Histogram

	// Contention, when set, counts journal appends that found the
	// journal mutex already held (nil-safe; set by Instrument and by
	// ShardedDB.Instrument to quantify residual intra-shard
	// contention).
	Contention *obs.Counter

	// PredContention, when set, counts AppendPrediction calls that
	// found the prediction-log mutex already held (nil-safe; set by
	// Instrument and by ShardedDB.Instrument). With per-shard logs
	// only decisions of flows on the same shard can collide here.
	PredContention *obs.Counter
}

// Instrument registers the database's metrics on reg: the journal
// backlog and prediction-log gauges, the journal-append latency
// histogram, and the lock-contention counters. Call once per database;
// re-registration on the same registry is a no-op for the gauges.
func (db *DB) Instrument(reg *obs.Registry) {
	reg.GaugeFunc("intddos_store_journal_length", func() float64 { return float64(db.JournalLen()) })
	reg.GaugeFunc("intddos_store_predictions_logged", func() float64 { return float64(db.PredictionCount()) })
	db.UpsertLatency = reg.Histogram("intddos_store_upsert_seconds", nil)
	db.Contention = reg.Counter("intddos_store_lock_contention_total")
	db.PredContention = reg.Counter("intddos_store_predlog_contention_total")
}

// New returns an empty database that journals new records.
func New() *DB {
	return &DB{
		flows:      make(map[flow.Key]*FlowRecord),
		JournalNew: true,
		gseqCtr:    new(atomic.Uint64),
		predCtr:    new(atomic.Uint64),
	}
}

// UpsertFlow writes a feature snapshot for key into its flow record
// and — unless the record is new and JournalNew is off — the journal,
// returning whether the record was created. The features slice is
// copied.
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
	if !created || db.JournalNew {
		// Appending under mu keeps one flow's journal entries in its
		// upsert order.
		db.appendJournal(*rec)
	}
	return created
}

// AppendJournal writes a feature snapshot for key to the journal
// alone; the entry's Version is zero, there being no record to count
// writes of. The features slice is copied.
func (db *DB) AppendJournal(key flow.Key, features []float64, registeredAt, updatedAt netsim.Time, updates int, truth bool, attackType string) {
	db.appendJournal(FlowRecord{
		Key: key, Features: features,
		RegisteredAt: registeredAt, UpdatedAt: updatedAt, Updates: updates,
		Truth: truth, AttackType: attackType,
	})
}

// appendJournal appends rec, its Features copied into the arena. The
// journal has its own lock so pollers reading the feed never block
// record work; the global stamp is taken inside it, so the journal
// stays gseq-sorted.
func (db *DB) appendJournal(rec FlowRecord) {
	if db.UpsertLatency != nil {
		defer db.UpsertLatency.Since(time.Now())
	}
	if !db.jmu.TryLock() {
		db.Contention.Inc() // nil-safe
		db.jmu.Lock()
	}
	db.seq++
	var chunk uint64
	rec.Features, chunk = db.arena.put(rec.Features)
	db.journal = append(db.journal, journalEntry{seq: db.seq, gseq: db.gseqCtr.Add(1), chunk: chunk, rec: rec})
	db.jmu.Unlock()
}

// Flow returns a copy of the record for key and whether it exists.
func (db *DB) Flow(key flow.Key) (FlowRecord, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	rec, ok := db.flows[key]
	if !ok {
		return FlowRecord{}, false
	}
	snap := *rec
	snap.Features = append([]float64(nil), rec.Features...)
	return snap, true
}

// FlowCount returns the number of live flow records.
func (db *DB) FlowCount() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return len(db.flows)
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

// DrainJournal appends every unconsumed journal entry to buf and
// empties the journal, lending the entries' arena chunks to the caller
// until its next drain (see Store.DrainShard). The emptied slots are
// cleared so the journal's backing array does not keep consumed
// snapshots alive.
func (db *DB) DrainJournal(buf []FlowRecord) []FlowRecord {
	db.jmu.Lock()
	defer db.jmu.Unlock()
	for i := range db.journal {
		buf = append(buf, db.journal[i].rec)
	}
	clear(db.journal)
	db.journal = db.journal[:0]
	db.arena.lend()
	return buf
}

// JournalLen returns the number of unconsumed journal entries.
func (db *DB) JournalLen() int {
	db.jmu.Lock()
	defer db.jmu.Unlock()
	return len(db.journal)
}

// pollGlobalEntries returns up to max journal entries whose global
// stamp is after cursor, their rows copied out of the arena. The
// journal is gseq-sorted (the stamp is taken under jmu at append), so
// the start is a binary search and the result a contiguous run.
func (db *DB) pollGlobalEntries(cursor uint64, max int) []journalEntry {
	db.jmu.Lock()
	defer db.jmu.Unlock()
	start := sort.Search(len(db.journal), func(i int) bool { return db.journal[i].gseq > cursor })
	if start >= len(db.journal) {
		return nil
	}
	end := len(db.journal)
	if max > 0 && start+max < end {
		end = start + max
	}
	polled := db.journal[start:end]
	out := make([]journalEntry, len(polled))
	slab := make([]float64, rowsLen(polled))
	for i := range polled {
		out[i] = polled[i]
		out[i].rec = detached(&polled[i], &slab)
	}
	return out
}

// PollGlobal returns up to max journal entries after cursor in global
// ingest order and the new cursor. For the single-journal DB the
// global order is the journal order.
func (db *DB) PollGlobal(cursor uint64, max int) ([]FlowRecord, uint64) {
	entries := db.pollGlobalEntries(cursor, max)
	if len(entries) == 0 {
		return nil, cursor
	}
	out := make([]FlowRecord, 0, len(entries))
	for _, e := range entries {
		out = append(out, e.rec)
	}
	return out, entries[len(entries)-1].gseq
}

// TrimGlobal drops journal entries whose global stamp is at or before
// cursor.
func (db *DB) TrimGlobal(cursor uint64) {
	db.jmu.Lock()
	defer db.jmu.Unlock()
	i := 0
	for i < len(db.journal) && db.journal[i].gseq <= cursor {
		i++
	}
	db.dropJournalHead(i)
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

// DrainShard is DrainJournal on the store's only stripe; out-of-range
// shards yield nothing for the same reason PollShard returns empty.
func (db *DB) DrainShard(shard int, buf []FlowRecord) []FlowRecord {
	if shard != 0 {
		return buf
	}
	return db.DrainJournal(buf)
}

// SetJournalNew toggles journaling of brand-new records.
func (db *DB) SetJournalNew(on bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.JournalNew = on
}

var _ Store = (*DB)(nil)
