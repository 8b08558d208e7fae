package store

import (
	"fmt"
	"sync/atomic"
)

// JournalEntry is one row of a checkpoint's journal tail: a sequence
// number, a global ingest stamp, and the record snapshot taken at
// write time. The live pipeline, the one checkpointer, writes its
// undecided rows here and reads them back. GSeq is a field of the
// format alone, kept so files cross versions: it is written as zero
// and ignored on read.
type JournalEntry struct {
	Seq  uint64
	GSeq uint64
	Rec  FlowRecord
}

// ShardExport is one shard's durable state in the checkpoint format:
// the undecided journal tail, a sequence counter, and — since snapshot
// version 2 — the shard's prediction log in Seq order (on a delta
// export, only the records logged since the previous export). The
// store exports and imports the prediction log alone: the one writer
// that checkpoints, the live pipeline, keeps its flows in its flow
// table and its undecided rows in its shards, and fills in Journal
// and Seq itself. Everything is deep-copied — mutating an export never
// touches the store.
type ShardExport struct {
	Journal []JournalEntry
	Seq     uint64
	Preds   []PredictionRecord
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
	rec, ends, err := packPrediction(p)
	if err != nil {
		return err
	}
	if stamp && rec.seq == 0 {
		rec.seq = ctr.Add(1)
	} else {
		raiseCounter(ctr, rec.seq)
	}
	l.append(rec, &ends, p.AttackType)
	return nil
}

// restoreAll appends a restored history, all of it or none: on a
// record that does not fit, the log and its IPv6 ends are cut back to
// where they stood (no view reaches the slots past that, and later
// appends rewrite them).
func (l *predLog) restoreAll(preds []PredictionRecord, ctr *atomic.Uint64, stamp bool) error {
	held, heldWide := l.n, len(l.wide)
	for i := range preds {
		if err := l.restore(&preds[i], ctr, stamp); err != nil {
			l.n, l.wide = held, l.wide[:heldWide]
			return err
		}
	}
	return nil
}

// ExportShardInto deep-copies the DB's prediction log (the legacy DB
// is its own single shard; other shards yield a zero export), reusing
// pre's backing arrays where their capacity suffices. The checkpoint
// writer hands the previous capture's export — already encoded to
// disk, no longer read — back in, so the copy under the barrier lands
// in warm memory instead of freshly allocated (and kernel-zeroed)
// pages; a zero pre allocates afresh. Callers must ensure nothing else
// still reads pre. A full export moves the prediction mark — it is the
// new base an incremental export diffs against.
func (db *DB) ExportShardInto(shard int, pre ShardExport) ShardExport {
	if shard != 0 {
		return ShardExport{}
	}
	return db.export(pre, false)
}

// ExportShardDelta deep-copies the predictions the DB logged since the
// previous export, full or delta, so consecutive delta exports chain.
// Out-of-range shards yield a zero export.
func (db *DB) ExportShardDelta(shard int) ShardExport {
	if shard != 0 {
		return ShardExport{}
	}
	return db.export(ShardExport{}, true)
}

// export copies the prediction log — all of it, or with delta only
// the records after the mark — into pre's array, and moves the mark to
// the newest record.
func (db *DB) export(pre ShardExport, delta bool) ShardExport {
	var ex ShardExport
	db.pmu.Lock()
	preds, after := db.preds.view(), uint64(0)
	if delta {
		after = db.predMark
	}
	db.predMark = db.preds.lastSeq()
	db.pmu.Unlock()
	// The log is Seq-sorted (stamps are taken under pmu), so a delta's
	// tail is the run after the mark.
	tail := newMergeCursor([]predView{preds}, after)
	ex.Preds = pre.Preds[:0]
	if n := tail.Remaining(); cap(ex.Preds) < n {
		ex.Preds = make([]PredictionRecord, 0, n)
	}
	ex.Preds = tail.appendTo(ex.Preds)
	return ex
}

// ApplyShardDelta appends a delta export's predictions to the DB's
// current log; a prediction that does not fit the log fails it with
// nothing applied. The restore path applies deltas base-first, so
// after the last one the log matches the crashed process's at its
// final capture.
func (db *DB) ApplyShardDelta(shard int, d ShardExport) error {
	if shard != 0 {
		return fmt.Errorf("store: apply delta shard %d out of range (DB has exactly one)", shard)
	}
	db.pmu.Lock()
	defer db.pmu.Unlock()
	err := db.preds.restoreAll(d.Preds, db.predCtr, false)
	db.predMark = db.preds.lastSeq()
	return err
}

// ImportShard replaces the DB's prediction log with an export's. It
// fails, before anything is replaced, when the shard index is out of
// range — the checkpointed shard count must match the store's — or a
// prediction does not fit the log.
func (db *DB) ImportShard(shard int, ex ShardExport) error {
	if shard != 0 {
		return fmt.Errorf("store: import shard %d out of range (DB has exactly one)", shard)
	}
	var preds predLog
	if err := preds.restoreAll(ex.Preds, db.predCtr, false); err != nil {
		return err
	}
	db.pmu.Lock()
	db.preds = preds
	db.predMark = preds.lastSeq()
	db.pmu.Unlock()
	return nil
}

// ImportPredictions replaces the prediction log with a restored
// global-order history — the version-1 snapshot layout, where the log
// was one shared section; version-2 snapshots carry predictions per
// shard inside ShardExport instead. Records without a Seq stamp are
// stamped in input order. A record the log cannot hold exactly (see
// MaxVotes) fails the import and leaves the log as it was.
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

// ExportShardInto deep-copies one shard's prediction log, reusing a
// dead prior export's backing arrays (see DB.ExportShardInto).
func (s *ShardedDB) ExportShardInto(shard int, pre ShardExport) ShardExport {
	if shard < 0 || shard >= len(s.shards) {
		return ShardExport{}
	}
	return s.shards[shard].ExportShardInto(0, pre)
}

// ImportShard loads an export's predictions into one shard.
func (s *ShardedDB) ImportShard(shard int, ex ShardExport) error {
	if shard < 0 || shard >= len(s.shards) {
		return fmt.Errorf("store: import shard %d out of range (have %d)", shard, len(s.shards))
	}
	return s.shards[shard].ImportShard(0, ex)
}

// ExportShardDelta deep-copies the predictions one shard logged since
// the previous export.
func (s *ShardedDB) ExportShardDelta(shard int) ShardExport {
	if shard < 0 || shard >= len(s.shards) {
		return ShardExport{}
	}
	return s.shards[shard].ExportShardDelta(0)
}

// ApplyShardDelta replays a delta export on top of one shard.
func (s *ShardedDB) ApplyShardDelta(shard int, d ShardExport) error {
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
