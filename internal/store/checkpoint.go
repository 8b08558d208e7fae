package store

import (
	"fmt"
	"sync/atomic"

	"github.com/amlight/intddos/internal/flow"
)

// JournalEntry is one exported journal row: the dense per-shard
// sequence number, the global ingest stamp shared across shards, and
// the record snapshot taken at write time. It is the unit the
// checkpoint subsystem persists so a restored store resumes polling
// exactly where the crashed process left off. GSeq is zero in exports
// decoded from version-1 snapshots (the format predates the stamp);
// ImportShard synthesizes fresh stamps for those, preserving
// per-shard order.
type JournalEntry struct {
	Seq  uint64
	GSeq uint64
	Rec  FlowRecord
}

// ShardExport is one shard's complete durable state: live flow
// records, the unconsumed journal tail, the shard's sequence counter,
// and — since snapshot version 2 — the shard's prediction log in Seq
// order. Everything is deep-copied — mutating an export never touches
// the store.
type ShardExport struct {
	Flows   []FlowRecord
	Journal []JournalEntry
	Seq     uint64
	Preds   []PredictionRecord

	// slab is the shared backing array behind Flows' Features slices.
	// It is retained only so ExportShardInto can recycle it when the
	// export it came from is dead; nothing reads it.
	slab []float64
}

// Checkpointable is the optional export/import surface of a store.
// The in-memory DB and ShardedDB implement it; fault-injection
// wrappers deliberately do not (a checkpoint must read the real
// state, not a fault-shaped view), so consumers capture the concrete
// store before wrapping.
type Checkpointable interface {
	// ExportShard deep-copies one shard's durable state.
	// Out-of-range shards yield a zero export.
	ExportShard(shard int) ShardExport
	// ImportShard loads an export into one shard, replacing its
	// state. It fails, before anything is replaced, when the shard
	// index is out of range — the checkpointed shard count must match
	// the store's — or a prediction does not fit the log.
	ImportShard(shard int, ex ShardExport) error
	// ImportPredictions replaces the whole prediction log with a
	// restored global-order history — the version-1 snapshot layout,
	// where the log was one shared section. Version-2 snapshots carry
	// predictions per shard inside ShardExport instead. A record the
	// log cannot hold exactly (see MaxVotes) fails the import and
	// leaves the log as it was.
	ImportPredictions(preds []PredictionRecord) error
}

// ShardDeltaExport is one shard's state difference against the
// previous export: records upserted since then, keys deleted since
// then, the complete current journal tail (the tail replaces the
// restored one — entries polled and trimmed since the parent must not
// reappear), the shard's sequence counter, and the predictions logged
// since then. Like ShardExport, everything is deep-copied.
type ShardDeltaExport struct {
	Flows   []FlowRecord
	Removed []flow.Key
	Journal []JournalEntry
	Seq     uint64
	Preds   []PredictionRecord
}

// DeltaCheckpointable is the incremental-checkpoint surface of a
// store: per-shard dirty tracking so an export under the capture
// barrier copies only what changed. Every export — full or delta —
// resets the marks, so consecutive delta exports chain: each one is
// the difference against whichever export came before it.
type DeltaCheckpointable interface {
	Checkpointable
	// SetDeltaTracking turns dirty/removed tracking on or off and
	// clears any stale marks. Enable it before the state an
	// incremental export diffs against is captured.
	SetDeltaTracking(on bool)
	// ExportShardDelta deep-copies one shard's changes since the
	// previous export and resets the shard's marks. Out-of-range
	// shards yield a zero export.
	ExportShardDelta(shard int) ShardDeltaExport
	// ApplyShardDelta replays a delta export on top of the shard's
	// current state: removals first, then upserts; the journal tail
	// and sequence counter are replaced, predictions appended. A
	// prediction that does not fit the log fails it with nothing
	// applied.
	ApplyShardDelta(shard int, d ShardDeltaExport) error
}

// cloneRecord deep-copies a flow record (Features is the only
// reference field).
func cloneRecord(rec FlowRecord) FlowRecord {
	snap := rec
	snap.Features = append([]float64(nil), rec.Features...)
	return snap
}

// raiseCounter lifts an atomic sequence counter to at least v, so
// stamps taken after a restore never collide with restored ones. The
// restore path is single-threaded, but the CAS keeps this safe to
// call at any time.
func raiseCounter(ctr *atomic.Uint64, v uint64) {
	for {
		cur := ctr.Load()
		if cur >= v || ctr.CompareAndSwap(cur, v) {
			return
		}
	}
}

// restore appends one restored decision to the log under the stamp it
// was saved with, raising ctr past it; with stamp set, a record saved
// without one (version-1 snapshots) takes the next.
func (l *predLog) restore(p *PredictionRecord, ctr *atomic.Uint64, stamp bool) error {
	rec, err := packPrediction(p)
	if err != nil {
		return err
	}
	if stamp && rec.seq == 0 {
		rec.seq = ctr.Add(1)
	} else {
		raiseCounter(ctr, rec.seq)
	}
	l.append(rec, p.AttackType)
	return nil
}

// restoreAll appends a restored history, all of it or none: on a
// record that does not fit, the log is cut back to where it stood (no
// view reaches the slots past that, and later appends rewrite them).
func (l *predLog) restoreAll(preds []PredictionRecord, ctr *atomic.Uint64, stamp bool) error {
	held := l.n
	for i := range preds {
		if err := l.restore(&preds[i], ctr, stamp); err != nil {
			l.n = held
			return err
		}
	}
	return nil
}

// SetDeltaTracking turns the DB's dirty/removed bookkeeping on or off
// and clears any stale marks (see DeltaCheckpointable).
func (db *DB) SetDeltaTracking(on bool) {
	db.mu.Lock()
	db.track = on
	db.dirty = make(map[flow.Key]struct{})
	db.removed = make(map[flow.Key]struct{})
	db.mu.Unlock()
	db.pmu.Lock()
	db.predMark = 0
	db.pmu.Unlock()
}

// ExportShard deep-copies the DB's durable state (the legacy DB is
// its own single shard). With delta tracking on, a full export resets
// the dirty/removed marks and the prediction mark — it is the new
// base an incremental export diffs against.
func (db *DB) ExportShard(shard int) ShardExport {
	return db.ExportShardInto(shard, ShardExport{})
}

// ExportShardInto is ExportShard reusing pre's backing arrays where
// their capacity suffices. The checkpoint writer hands the previous
// capture's export — already encoded to disk, no longer read — back
// in, so the copy under the barrier lands in warm memory instead of
// freshly allocated (and kernel-zeroed) pages. Callers must ensure
// nothing else still reads pre.
func (db *DB) ExportShardInto(shard int, pre ShardExport) ShardExport {
	if shard != 0 {
		return ShardExport{}
	}
	var ex ShardExport
	db.mu.Lock()
	ex.Flows = pre.Flows[:0]
	if cap(ex.Flows) < len(db.flows) {
		ex.Flows = make([]FlowRecord, 0, len(db.flows))
	}
	// One slab for every record's features instead of a per-record
	// allocation — at a million flows the difference is the capture
	// barrier's hold time. featWidth is maintained on every mutation,
	// so sizing the slab costs no pre-pass over the map (that pass
	// also ran inside the barrier). Each record's slice is capped, so
	// records stay independent even if the slab ever regrew.
	slab := pre.slab[:0]
	if cap(slab) < db.featWidth {
		slab = make([]float64, 0, db.featWidth)
	}
	for _, rec := range db.flows {
		snap := *rec
		start := len(slab)
		slab = append(slab, rec.Features...)
		snap.Features = slab[start:len(slab):len(slab)]
		ex.Flows = append(ex.Flows, snap)
	}
	ex.slab = slab
	if db.track {
		db.dirty = make(map[flow.Key]struct{})
		db.removed = make(map[flow.Key]struct{})
	}
	db.mu.Unlock()
	db.jmu.Lock()
	ex.Journal = pre.Journal[:0]
	if cap(ex.Journal) < len(db.journal) {
		ex.Journal = make([]JournalEntry, 0, len(db.journal))
	}
	for _, e := range db.journal {
		ex.Journal = append(ex.Journal, JournalEntry{Seq: e.seq, GSeq: e.gseq, Rec: cloneRecord(e.rec)})
	}
	ex.Seq = db.seq
	db.jmu.Unlock()
	db.pmu.Lock()
	preds := db.preds.view()
	if db.track && preds.n > 0 {
		db.predMark = db.preds.lastSeq()
	}
	db.pmu.Unlock()
	ex.Preds = pre.Preds[:0]
	if cap(ex.Preds) < preds.n {
		ex.Preds = make([]PredictionRecord, 0, preds.n)
	}
	ex.Preds = newMergeCursor([]predView{preds}, 0).appendTo(ex.Preds)
	return ex
}

// ExportShardDelta deep-copies the DB's changes since the previous
// export and resets the marks (see DeltaCheckpointable). The journal
// tail is always exported whole: it is already the sliding window the
// pollers haven't consumed, and replacing it on apply is what keeps
// trimmed entries from reappearing.
func (db *DB) ExportShardDelta(shard int) ShardDeltaExport {
	if shard != 0 {
		return ShardDeltaExport{}
	}
	var d ShardDeltaExport
	db.mu.Lock()
	if len(db.dirty) > 0 {
		d.Flows = make([]FlowRecord, 0, len(db.dirty))
		for k := range db.dirty {
			if rec, ok := db.flows[k]; ok {
				d.Flows = append(d.Flows, cloneRecord(*rec))
			}
		}
	}
	if len(db.removed) > 0 {
		d.Removed = make([]flow.Key, 0, len(db.removed))
		for k := range db.removed {
			d.Removed = append(d.Removed, k)
		}
	}
	db.dirty = make(map[flow.Key]struct{})
	db.removed = make(map[flow.Key]struct{})
	db.mu.Unlock()
	db.jmu.Lock()
	d.Journal = make([]JournalEntry, 0, len(db.journal))
	for _, e := range db.journal {
		d.Journal = append(d.Journal, JournalEntry{Seq: e.seq, GSeq: e.gseq, Rec: cloneRecord(e.rec)})
	}
	d.Seq = db.seq
	db.jmu.Unlock()
	db.pmu.Lock()
	preds, mark := db.preds.view(), db.predMark
	if preds.n > 0 {
		db.predMark = db.preds.lastSeq()
	}
	db.pmu.Unlock()
	// The log is Seq-sorted (stamps are taken under pmu), so the new
	// tail is the run after the mark.
	if tail := newMergeCursor([]predView{preds}, mark); tail.Remaining() > 0 {
		d.Preds = tail.All()
	}
	return d
}

// ApplyShardDelta replays a delta export on top of the DB's current
// state (see DeltaCheckpointable). The restore path applies deltas
// base-first, so after the last one the DB matches the crashed
// process's state at its final capture.
func (db *DB) ApplyShardDelta(shard int, d ShardDeltaExport) error {
	if shard != 0 {
		return fmt.Errorf("store: apply delta shard %d out of range (DB has exactly one)", shard)
	}
	// Predictions first: they are the one part that can fail.
	db.pmu.Lock()
	err := db.preds.restoreAll(d.Preds, db.predCtr, false)
	if db.track && db.preds.n > 0 {
		db.predMark = db.preds.lastSeq()
	}
	db.pmu.Unlock()
	if err != nil {
		return err
	}
	db.mu.Lock()
	for _, k := range d.Removed {
		if old, ok := db.flows[k]; ok {
			db.featWidth -= len(old.Features)
		}
		delete(db.flows, k)
	}
	for _, rec := range d.Flows {
		snap := cloneRecord(rec)
		if old, ok := db.flows[rec.Key]; ok {
			db.featWidth -= len(old.Features)
		}
		db.featWidth += len(snap.Features)
		db.flows[rec.Key] = &snap
	}
	if db.track {
		db.dirty = make(map[flow.Key]struct{})
		db.removed = make(map[flow.Key]struct{})
	}
	db.mu.Unlock()
	db.jmu.Lock()
	db.journal = make([]journalEntry, 0, len(d.Journal))
	for _, e := range d.Journal {
		raiseCounter(db.gseqCtr, e.GSeq)
		db.journal = append(db.journal, journalEntry{seq: e.Seq, gseq: e.GSeq, rec: cloneRecord(e.Rec)})
	}
	db.seq = d.Seq
	db.jmu.Unlock()
	return nil
}

// ImportShard replaces the DB's durable state with an export. Journal
// entries without a global stamp (version-1 snapshots) get fresh ones
// in journal order; the shared counters are raised past every
// restored stamp so post-restore writes continue the sequences.
func (db *DB) ImportShard(shard int, ex ShardExport) error {
	if shard != 0 {
		return fmt.Errorf("store: import shard %d out of range (DB has exactly one)", shard)
	}
	var preds predLog
	if err := preds.restoreAll(ex.Preds, db.predCtr, false); err != nil {
		return err
	}
	db.mu.Lock()
	db.flows = make(map[flow.Key]*FlowRecord, len(ex.Flows))
	db.featWidth = 0
	for _, rec := range ex.Flows {
		snap := cloneRecord(rec)
		db.featWidth += len(snap.Features)
		db.flows[rec.Key] = &snap
	}
	if db.track {
		db.dirty = make(map[flow.Key]struct{})
		db.removed = make(map[flow.Key]struct{})
	}
	db.mu.Unlock()
	db.jmu.Lock()
	db.journal = make([]journalEntry, 0, len(ex.Journal))
	for _, e := range ex.Journal {
		g := e.GSeq
		if g == 0 {
			g = db.gseqCtr.Add(1)
		} else {
			raiseCounter(db.gseqCtr, g)
		}
		db.journal = append(db.journal, journalEntry{seq: e.Seq, gseq: g, rec: cloneRecord(e.Rec)})
	}
	db.seq = ex.Seq
	db.jmu.Unlock()
	db.pmu.Lock()
	db.preds = preds
	if db.track && preds.n > 0 {
		db.predMark = preds.lastSeq()
	}
	db.pmu.Unlock()
	return nil
}

// ImportPredictions replaces the prediction log with a restored
// global-order history (version-1 snapshot layout). Records without a
// Seq stamp are stamped in input order.
func (db *DB) ImportPredictions(preds []PredictionRecord) error {
	var log predLog
	if err := log.restoreAll(preds, db.predCtr, true); err != nil {
		return err
	}
	db.pmu.Lock()
	db.preds = log
	db.pmu.Unlock()
	return nil
}

// ExportShard deep-copies one shard's durable state.
func (s *ShardedDB) ExportShard(shard int) ShardExport {
	if shard < 0 || shard >= len(s.shards) {
		return ShardExport{}
	}
	return s.shards[shard].ExportShard(0)
}

// ExportShardInto deep-copies one shard's durable state, reusing a
// dead prior export's backing arrays (see DB.ExportShardInto).
func (s *ShardedDB) ExportShardInto(shard int, pre ShardExport) ShardExport {
	if shard < 0 || shard >= len(s.shards) {
		return ShardExport{}
	}
	return s.shards[shard].ExportShardInto(0, pre)
}

// ImportShard loads an export into one shard.
func (s *ShardedDB) ImportShard(shard int, ex ShardExport) error {
	if shard < 0 || shard >= len(s.shards) {
		return fmt.Errorf("store: import shard %d out of range (have %d)", shard, len(s.shards))
	}
	return s.shards[shard].ImportShard(0, ex)
}

// SetDeltaTracking toggles dirty/removed tracking on every shard.
func (s *ShardedDB) SetDeltaTracking(on bool) {
	for _, sh := range s.shards {
		sh.SetDeltaTracking(on)
	}
}

// ExportShardDelta deep-copies one shard's changes since the previous
// export and resets its marks.
func (s *ShardedDB) ExportShardDelta(shard int) ShardDeltaExport {
	if shard < 0 || shard >= len(s.shards) {
		return ShardDeltaExport{}
	}
	return s.shards[shard].ExportShardDelta(0)
}

// ApplyShardDelta replays a delta export on top of one shard.
func (s *ShardedDB) ApplyShardDelta(shard int, d ShardDeltaExport) error {
	if shard < 0 || shard >= len(s.shards) {
		return fmt.Errorf("store: apply delta shard %d out of range (have %d)", shard, len(s.shards))
	}
	return s.shards[shard].ApplyShardDelta(0, d)
}

// ImportPredictions replaces every shard's prediction log with a
// restored global-order history (version-1 snapshot layout, one
// shared log): records are routed to their key's shard, and records
// without a Seq stamp are stamped in input order — input order is the
// global order, so each shard's log comes out Seq-sorted and the
// merge-on-read reconstructs exactly the restored history.
func (s *ShardedDB) ImportPredictions(preds []PredictionRecord) error {
	logs := make([]predLog, len(s.shards))
	for i := range preds {
		p := &preds[i]
		if err := logs[p.Key.Shard(len(logs))].restore(p, s.predCtr, true); err != nil {
			return err
		}
	}
	for i, sh := range s.shards {
		sh.pmu.Lock()
		sh.preds = logs[i]
		sh.pmu.Unlock()
	}
	return nil
}

var (
	_ Checkpointable      = (*DB)(nil)
	_ Checkpointable      = (*ShardedDB)(nil)
	_ DeltaCheckpointable = (*DB)(nil)
	_ DeltaCheckpointable = (*ShardedDB)(nil)
)
