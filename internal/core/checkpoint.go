package core

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"time"

	"github.com/amlight/intddos/internal/checkpoint"
	"github.com/amlight/intddos/internal/flow"
	"github.com/amlight/intddos/internal/ml"
	"github.com/amlight/intddos/internal/store"
)

// RestoreSummary describes the checkpoint NewLive resumed from.
type RestoreSummary struct {
	// Path and Seq identify the checkpoint file loaded.
	Path string
	Seq  uint64
	// TakenAtUnixNano is when the crashed process wrote it.
	TakenAtUnixNano int64

	// Flows counts flow-table records restored; JournalPending rows
	// taken before the crash but not yet decided (the file's journal
	// tail) — each shard decides its own in its first pass at Start, so
	// every pre-crash row ends decided, shed, abandoned, or
	// restored-pending, never silently gone.
	Flows          int
	JournalPending int
	// Windows counts restored records holding a vote window: flows
	// already voted keep their history, so the first post-restore
	// decision continues the window instead of re-starting it (no
	// double-predictions).
	Windows int
	// Predictions is the restored prediction-log length.
	Predictions int
}

// Restore returns what NewLive loaded from CheckpointDir, or nil on a
// fresh boot.
func (l *Live) Restore() *RestoreSummary { return l.restored }

// bundleFingerprint hashes the model/scaler/feature bundle a pipeline
// runs: model names in ensemble order, feature IDs, and the exact
// bits of the scaler's parameters. A checkpoint carries the
// fingerprint of the bundle that produced its votes; restoring under
// a different bundle would splice incomparable votes into the same
// windows, so the restore path refuses on mismatch.
func bundleFingerprint(models []ml.Classifier, scaler *ml.StandardScaler, features flow.FeatureSet) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w64 := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (56 - 8*i))
		}
		h.Write(buf[:])
	}
	for _, m := range models {
		h.Write([]byte(m.Name()))
		h.Write([]byte{0})
	}
	for _, f := range features {
		w64(uint64(f))
	}
	for _, v := range scaler.Mean {
		w64(math.Float64bits(v))
	}
	for _, v := range scaler.Std {
		w64(math.Float64bits(v))
	}
	return h.Sum64()
}

// restoreLatest loads the newest restorable state in dir into the
// freshly built (not yet started) pipeline: the newest valid
// checkpoint plus — when it is a delta — its verified parent chain,
// replayed base-first. A missing or empty dir is a clean first boot;
// a dir holding only corrupt files, or a snapshot from an
// incompatible pipeline (different shard count, model/scaler bundle,
// or feature width), is a hard error — resuming with wrong state
// would be worse than not resuming. A chain broken mid-delta (the
// crash-during-checkpoint case) has already been skipped by
// LatestChain in favor of the longest intact history.
func (l *Live) restoreLatest(dir string) error {
	chain, paths, ok, err := checkpoint.LatestChain(dir)
	if err != nil {
		return err
	}
	if !ok {
		return nil
	}
	for i, snap := range chain {
		path := paths[i]
		if snap.Shards != l.nShards {
			return fmt.Errorf("core: checkpoint %s was taken at %d shards, pipeline has %d — restore with matching -shards",
				path, snap.Shards, l.nShards)
		}
		if snap.Fingerprint != l.fingerprint {
			return fmt.Errorf("core: checkpoint %s was taken under a different model/scaler bundle (fingerprint %016x, pipeline %016x)",
				path, snap.Fingerprint, l.fingerprint)
		}
		if want := len(l.cfg.Scaler.Mean); snap.FeatureWidth != want {
			return fmt.Errorf("core: checkpoint %s has feature width %d, pipeline expects %d",
				path, snap.FeatureWidth, want)
		}
	}
	// Replay base-first. The flow table is the one record per flow:
	// store records an older writer saved beside it (ShardState.
	// StoreFlows) duplicate it and are ignored, and a window lands on
	// its flow's record — one whose flow is absent is dropped. A delta's
	// table record keeps the window the chain gave it unless the delta
	// removes it (RemovedWindows) or replaces it (Windows), in that
	// order, so a window removed and re-voted within one interval
	// survives. Every link's journal tail, full or delta, replaces the
	// shard's pending rows: it was the whole of them at its capture.
	for i, snap := range chain {
		for s := range snap.ShardStates {
			sh := &snap.ShardStates[s]
			var err error
			if i == 0 {
				err = l.tables.RestoreShard(s, sh.Table)
				if err == nil {
					err = l.rawDB.ImportShard(s, sh.Store)
				}
			} else {
				err = l.tables.RestoreShardDelta(s, sh.Table, sh.Removed)
				if err == nil {
					err = l.rawDB.ApplyShardDelta(s, sh.Store)
				}
			}
			if err != nil {
				return fmt.Errorf("core: restore %s: %w", paths[i], err)
			}
			pend := l.shards[s].pending[:0]
			for _, e := range sh.Store.Journal {
				pend = append(pend, e.Rec)
			}
			l.shards[s].pending = pend
		}
		if len(snap.Predictions) > 0 {
			// Version-1 snapshot: the prediction log is one global section;
			// ImportPredictions routes it onto the per-shard logs.
			if err := l.rawDB.ImportPredictions(snap.Predictions); err != nil {
				return fmt.Errorf("core: restore %s: %w", paths[i], err)
			}
		}
		for _, k := range snap.RemovedWindows {
			l.tables.RestoreWindow(k, nil)
		}
		for _, w := range snap.Windows {
			if _, err := l.tables.RestoreWindow(w.Key, w.Votes); err != nil {
				return fmt.Errorf("core: restore %s: %w", paths[i], err)
			}
		}
	}
	newest := chain[len(chain)-1]
	path := paths[len(paths)-1]
	sum := &RestoreSummary{Path: path, Seq: newest.Seq, TakenAtUnixNano: newest.TakenAtUnixNano}
	// Counts come from the replayed state, not the files — with a delta
	// chain the same record may appear in several links.
	sum.Flows = l.tables.Len()
	for _, sh := range l.shards {
		sum.JournalPending += len(sh.pending)
	}
	sum.Predictions = l.rawDB.PredictionCount()
	l.restoreMark = l.rawDB.LastPredictionSeq()
	sum.Windows = l.windowedFlows()
	l.ckptSeq.Store(newest.Seq)
	l.restored = sum
	l.met.restores.Inc()
	l.met.restoredRecs.With("flows").Add(int64(sum.Flows))
	l.met.restoredRecs.With("journal_pending").Add(int64(sum.JournalPending))
	l.met.restoredRecs.With("windows").Add(int64(sum.Windows))
	l.met.restoredRecs.With("predictions").Add(int64(sum.Predictions))
	l.event("checkpoint restored", "component", "checkpoint",
		"path", path, "seq", newest.Seq, "chain", len(chain), "flows", sum.Flows,
		"journal_pending", sum.JournalPending, "windows", sum.Windows)
	return nil
}

// ErrBarrierTimeout reports that the checkpoint barrier could not
// quiesce the pipeline: reports accepted onto the shard queues were
// not taken within checkpointBarrierTimeout (a stalled shard). The
// checkpoint is skipped — a snapshot missing accepted reports would
// lose them on restore.
var ErrBarrierTimeout = errors.New("core: checkpoint barrier timed out waiting for queued reports")

// settleIngest waits until every observation accepted onto the shard
// queues before this call is taken. Runs before the capture takes the
// shard barriers (the shards must be free to drain); reports accepted
// while it waits ride the snapshot or the journal tail, both fine —
// what must not happen is an accepted report vanishing into a queue
// the crash model discards.
func (l *Live) settleIngest() error {
	target := l.ingestAccepted.Load()
	if !awaitSettled(checkpointBarrierTimeout, func() bool { return l.ingestDone.Load() >= target }) {
		return fmt.Errorf("%w (accepted=%d taken=%d)",
			ErrBarrierTimeout, target, l.ingestDone.Load())
	}
	return nil
}

// awaitSettled polls done until it holds or timeout passes.
func awaitSettled(timeout time.Duration, done func() bool) bool {
	deadline := time.Now().Add(timeout)
	for !done() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
	return true
}

// LastCheckpointBarrier returns the barrier hold of the most recent
// capture — how long the per-shard locks were held, the pause the
// pipeline actually feels (encode and IO run outside it).
func (l *Live) LastCheckpointBarrier() time.Duration {
	return time.Duration(l.lastBarrierNs.Load())
}

// captureScratch is the previous full capture's export arrays,
// recycled into the next one (see Live.ckptScratch).
type captureScratch struct {
	tables  []([]flow.StateSnapshot)
	stores  []store.ShardExport
	windows []checkpoint.Window
	votes   []int
}

// durableStore is what checkpointing needs of the concrete store: the
// prediction log's full and incremental export and import, and — the
// log being where decisions live — the cursor Decisions reads.
// store.DB and store.ShardedDB both provide all of it; fault-injection
// wrappers deliberately do not (a checkpoint must read the real state,
// not a fault-shaped view), so Live keeps the concrete store beside
// the wrapped one. Every export, full or delta, moves the shard's
// prediction mark, so consecutive delta exports chain. Out-of-range
// shards export nothing and fail to import.
type durableStore interface {
	store.Store
	// ExportShardInto deep-copies one shard's prediction log into
	// pre's arrays.
	ExportShardInto(shard int, pre store.ShardExport) store.ShardExport
	// ExportShardDelta deep-copies the predictions one shard logged
	// since the previous export.
	ExportShardDelta(shard int) store.ShardExport
	// ImportShard replaces one shard's log with an export's;
	// ApplyShardDelta appends a delta export's to it.
	ImportShard(shard int, ex store.ShardExport) error
	ApplyShardDelta(shard int, d store.ShardExport) error
	// ImportPredictions replaces the whole log with a version-1
	// snapshot's one global-order history.
	ImportPredictions(preds []store.PredictionRecord) error
	PredictionCursor(after uint64) *store.MergeCursor
	LastPredictionSeq() uint64
}

// capture quiesces the pipeline and captures a consistent snapshot of
// its durable state (only what changed since the previous capture when
// delta is set; into scratch's arrays when it is non-nil): it first
// waits for the shards to take everything accepted so far, then takes
// every shard's barrier for write — which waits out the one pass each
// shard may be in, so no row is between its take and its decision —
// and exports every shard's flow table, pending rows and prediction
// log, and the vote windows. The freeze lasts for the export only;
// sorting, encoding, and disk IO happen after the locks are released.
func (l *Live) capture(delta bool, scratch *captureScratch) (*checkpoint.Snapshot, error) {
	if err := l.settleIngest(); err != nil {
		return nil, err
	}
	// The barrier hold is timed from before the first lock acquisition
	// — waiting writers already block new readers, so acquisition time
	// is pause the pipeline feels too.
	barrier := time.Now()
	// Take every shard's barrier in ascending order; nothing else holds
	// more than one, so the acquisition set is acyclic.
	for s := range l.ckptMu {
		l.ckptMu[s].Lock()
	}
	snap := l.captureLocked(delta, scratch)
	for s := range l.ckptMu {
		l.ckptMu[s].Unlock()
	}
	hold := time.Since(barrier)
	l.lastBarrierNs.Store(int64(hold))
	l.met.ckptBarrier.Observe(hold.Seconds())
	// Canonical order is produced outside the barrier: the encoder
	// sorts everything it writes, and sorting here besides makes two
	// captures of identical state equal as values (map iteration order
	// must never leak into a snapshot).
	checkpoint.SortWindows(snap.Windows)
	checkpoint.SortKeys(snap.RemovedWindows)
	for s := range snap.ShardStates {
		checkpoint.SortKeys(snap.ShardStates[s].Removed)
	}
	return snap, nil
}

// captureLocked exports the consistent cut. Callers hold every
// shard's ckptMu write lock, which parks every writer of the vote
// windows; everything here must stay proportional to what is exported
// — this is the region the barrier histogram times.
func (l *Live) captureLocked(delta bool, scratch *captureScratch) *checkpoint.Snapshot {
	snap := &checkpoint.Snapshot{
		Shards:          l.nShards,
		Fingerprint:     l.fingerprint,
		FeatureWidth:    len(l.cfg.Scaler.Mean),
		Seq:             l.ckptSeq.Add(1),
		TakenAtUnixNano: time.Now().UnixNano(),
		Delta:           delta,
		ShardStates:     make([]checkpoint.ShardState, l.nShards),
	}
	// Windows are read off the exported table records. Vote copies land
	// in one flat slab with each Window holding a capped sub-slice — one
	// allocation (amortized) instead of one per window, and both arrays
	// recycle through the scratch. A mid-loop slab growth strands
	// earlier windows on the previous backing array; that is still
	// correct (the slices are never written again), and in steady state
	// the recycled slab is already sized. On a delta, a dirty record
	// without a window says so in RemovedWindows: it was evicted and
	// re-created since the parent, whose window for it is stale.
	wins, votes := snap.Windows, []int(nil)
	if !delta && scratch != nil {
		wins, votes = scratch.windows[:0], scratch.votes[:0]
	}
	window := func(k flow.Key, w []int) {
		if len(w) == 0 {
			if delta {
				snap.RemovedWindows = append(snap.RemovedWindows, k)
			}
			return
		}
		off := len(votes)
		votes = append(votes, w...)
		wins = append(wins, checkpoint.Window{Key: k, Votes: votes[off:len(votes):len(votes)]})
	}
	for s := 0; s < l.nShards; s++ {
		st := &snap.ShardStates[s]
		var preJournal []store.JournalEntry
		if delta {
			st.Table, st.Removed = l.tables.ExportShardDelta(s, window)
			st.Store = l.rawDB.ExportShardDelta(s)
			// An evicted flow's window went with it.
			snap.RemovedWindows = append(snap.RemovedWindows, st.Removed...)
		} else {
			var preTable []flow.StateSnapshot
			var preStore store.ShardExport
			if scratch != nil && s < len(scratch.tables) {
				preTable = scratch.tables[s]
				preStore = scratch.stores[s]
			}
			st.Table = l.tables.ExportShardInto(s, preTable, window)
			st.Store = l.rawDB.ExportShardInto(s, preStore)
			preJournal = preStore.Journal
		}
		// The shard's pending rows are the journal tail, deep-copied:
		// the shard reuses its slab once the barrier lifts. Full and
		// delta alike carry the whole tail, which replaces the one
		// restored before it.
		pend := l.shards[s].pending
		st.Store.Journal = preJournal[:0]
		for i := range pend {
			rec := pend[i]
			rec.Features = slices.Clone(rec.Features)
			st.Store.Journal = append(st.Store.Journal, store.JournalEntry{Seq: uint64(i + 1), Rec: rec})
		}
		st.Store.Seq = uint64(len(pend))
	}
	snap.Windows = wins
	if scratch != nil {
		// The slab's base is unrecoverable from the capped sub-slices
		// in snap.Windows, so the detached scratch carries it out for
		// WriteCheckpoint to thread into the next capture's scratch.
		scratch.votes = votes
	}
	// Predictions travel inside each ShardExport since format version
	// 2; the snapshot-level log exists only for version-1 files.
	return snap
}

// WriteCheckpoint captures a snapshot and writes it atomically into
// CheckpointDir, pruning old files down to checkpointKeep (plus any
// chain ancestors a retained delta needs). With CheckpointFullEvery
// > 1 and a base already on disk, the capture is an incremental delta
// chained to the newest file by (seq, CRC); every Nth checkpoint — and
// the first one after a restore, a boot, or a failed write — is full.
// Returns the file path and encoded size. Failures (including a
// barrier that cannot quiesce) are counted in
// intddos_checkpoint_failures_total and surfaced; the previous
// checkpoint on disk is untouched either way.
func (l *Live) WriteCheckpoint() (string, int, error) {
	if l.cfg.CheckpointDir == "" {
		return "", 0, errors.New("core: no CheckpointDir configured")
	}
	l.ckptWriteMu.Lock()
	defer l.ckptWriteMu.Unlock()
	start := time.Now()
	delta := l.haveBase &&
		l.cfg.CheckpointFullEvery > 1 && l.sinceFull+1 < l.cfg.CheckpointFullEvery
	// A full capture may reuse the previous full capture's arrays —
	// that snapshot was encoded to disk and dropped, so the memory is
	// dead, and reuse keeps the copy under the barrier in warm pages.
	// The scratch is detached first: if anything below fails, it is
	// simply not reclaimed (a failed write can leave encode goroutines
	// briefly reading the snapshot, so handing its arrays to the next
	// capture would race).
	var scratch *captureScratch
	if !delta {
		if l.ckptScratch == nil {
			l.ckptScratch = &captureScratch{}
		}
		scratch, l.ckptScratch = l.ckptScratch, nil
	}
	snap, err := l.capture(delta, scratch)
	if err != nil {
		// Settle failures happen before any export, so the dirty marks
		// are untouched and the chain state stays valid.
		l.met.ckptFailures.Inc()
		l.event("checkpoint failed", "component", "checkpoint", "err", err.Error())
		return "", 0, err
	}
	if delta {
		snap.BaseSeq = l.lastCkptSeq
		snap.BaseCRC = l.lastCkptCRC
	}
	if l.ckptPostCapture != nil {
		l.ckptPostCapture(snap)
	}
	if l.encScratch == nil {
		l.encScratch = &checkpoint.EncodeScratch{}
	}
	path, n, crc, err := checkpoint.WriteDirOpts(l.cfg.CheckpointDir, snap,
		checkpoint.EncodeOptions{Compress: l.cfg.CheckpointCompress, Scratch: l.encScratch})
	if err != nil {
		l.met.ckptFailures.Inc()
		l.event("checkpoint failed", "component", "checkpoint", "err", err.Error())
		// The capture consumed the dirty marks but never reached disk;
		// a delta chained past this hole would lose those writes, so
		// the next checkpoint is forced full.
		l.haveBase = false
		return "", 0, err
	}
	l.lastCkptSeq, l.lastCkptCRC = snap.Seq, crc
	if delta {
		l.sinceFull++
	} else {
		l.haveBase = true
		l.sinceFull = 0
		// The snapshot is on disk and nothing reads it anymore; its
		// arrays become the next full capture's scratch.
		re := &captureScratch{
			tables:  make([][]flow.StateSnapshot, len(snap.ShardStates)),
			stores:  make([]store.ShardExport, len(snap.ShardStates)),
			windows: snap.Windows,
			votes:   scratch.votes,
		}
		for s := range snap.ShardStates {
			re.tables[s] = snap.ShardStates[s].Table
			re.stores[s] = snap.ShardStates[s].Store
		}
		l.ckptScratch = re
	}
	l.Checkpoints.Add(1)
	l.met.ckptBytes.Add(int64(n))
	l.met.ckptDuration.Since(start)
	l.met.ckptLastSuccess.Set(float64(time.Now().Unix()))
	l.event("checkpoint written", "component", "checkpoint",
		"path", path, "seq", snap.Seq, "bytes", n, "delta", delta)
	if err := checkpoint.Prune(l.cfg.CheckpointDir, checkpointKeep); err != nil {
		// The new checkpoint is durable; failing retention is a
		// disk-hygiene problem, not a lost snapshot — counted apart
		// from write failures so an alert on the latter stays meaningful.
		l.met.ckptPruneFailures.Inc()
		l.event("checkpoint prune failed", "component", "checkpoint", "err", err.Error())
	}
	return path, n, nil
}
