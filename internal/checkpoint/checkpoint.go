// Package checkpoint persists the live pipeline's durable state —
// per-shard flow tables and store shards (journal tails, sequence
// counters, prediction logs) and per-flow vote windows — as
// crash-consistent snapshot files.
//
// A snapshot is written atomically: encoded into a temp file in the
// destination directory, fsync'd, renamed into place, and the
// directory fsync'd, so a crash mid-write leaves either the previous
// checkpoint or the new one, never a torn file. The on-disk format is
// versioned and every section carries a CRC; torn, truncated, or
// foreign files are rejected loudly instead of loading partial state
// (AMON-style partitioned persistence, arXiv:1509.00268, applied to
// the paper's one-database design).
//
// Since format version 3 a checkpoint can be a delta: only the
// records, windows, and log tails dirtied since a previous snapshot,
// chained to that parent file by (sequence number, whole-file CRC).
// Restore resolves the newest valid chain — base plus every delta in
// order — and replays it; a torn or missing link drops back to the
// longest intact prefix, which is itself a consistent cut. Full
// files are self-contained exactly as before.
//
// Encoding is canonical — flows, records, windows, and removal lists
// are sorted by their wire-encoded key — so snapshot→restore→snapshot
// is byte-identical, which is what the format's property tests pin.
package checkpoint

import (
	"github.com/amlight/intddos/internal/flow"
	"github.com/amlight/intddos/internal/store"
)

// Version is the current on-disk format version. Decoders reject
// anything newer: a downgraded binary must not half-read a future
// layout. Older versions decode forever — version 1 (shared global
// prediction log, no global journal stamps) restores into the current
// store with synthesized stamps.
//
// Version history:
//
//	1 — initial format: per-shard flow tables/records/journal tails,
//	    one global predictions section.
//	2 — per-shard prediction logs: each shard section carries its own
//	    Seq-stamped prediction log and each journal entry its global
//	    ingest stamp; the global predictions section is written empty.
//	3 — incremental checkpoints: the meta section carries flags
//	    (delta, compressed sections), the parent link (BaseSeq,
//	    BaseCRC), shard sections end with a removed-key list, and the
//	    windows section ends with a removed-window list. Section
//	    payloads may be flate-compressed.
const Version = 3

// Snapshot is one checkpoint: everything the live pipeline needs to
// resume where a crashed process left off — or, when Delta is set,
// everything that changed since the parent snapshot named by
// (BaseSeq, BaseCRC).
type Snapshot struct {
	// Shards is the shard count the snapshot was taken at. Restore
	// into a pipeline with a different count must fail — keys would
	// hash onto different stripes.
	Shards int
	// Fingerprint identifies the model/scaler bundle. A checkpoint
	// restored under different models would splice incomparable votes
	// into the same windows.
	Fingerprint uint64
	// FeatureWidth is the feature-vector length models were scoring.
	FeatureWidth int
	// Seq increments per checkpoint written by a process; it names the
	// file and orders candidates in LatestChain.
	Seq uint64
	// TakenAtUnixNano is the wall-clock write time, for operators.
	TakenAtUnixNano int64

	// Delta marks an incremental snapshot: ShardStates carry only
	// records dirtied since the parent snapshot (plus each shard's
	// full journal tail and sequence counter), Windows only dirty
	// windows, and the Removed lists name state deleted since the
	// parent. A delta restores only on top of its parent chain.
	Delta bool
	// BaseSeq is the parent snapshot's Seq; BaseCRC the CRC-32 (IEEE)
	// of the parent's entire file bytes. Restore verifies both before
	// replaying a delta — a chain through a rewritten or torn parent
	// must not splice. Zero on full snapshots.
	BaseSeq uint64
	BaseCRC uint32

	// ShardStates holds per-shard durable state, indexed by shard.
	ShardStates []ShardState
	// Windows holds the per-flow model vote windows (only the dirty
	// ones on a delta).
	Windows []Window
	// RemovedWindows names vote windows deleted since the parent
	// snapshot (delta only; restore removes them before applying
	// Windows).
	RemovedWindows []flow.Key
	// Predictions is the version-1 global prediction log in append
	// order. Version-2 snapshots persist predictions per shard in
	// ShardStates (store.ShardExport.Preds) and leave this empty; it
	// is populated only when decoding a version-1 file, and restore
	// routes it through the store's ImportPredictions.
	Predictions []store.PredictionRecord
}

// ShardState is one shard's durable state: the flow table's full
// records (including the unexported Welford and wrap-tracking terms —
// without them restored flows would diverge from their pre-crash
// feature streams) and the store shard's journal tail, sequence
// counter and prediction log. On a delta snapshot Table holds only
// records dirtied since the parent, Store.Journal is the shard's
// complete current tail (it replaces the restored tail — entries
// polled since the parent must not reappear), and Removed names the
// flows evicted since the parent.
//
// StoreFlows is the format's store-record list. The live pipeline
// writes it empty — the flow table is its one record per flow — and
// ignores it on restore: files from writers that kept a store copy of
// each flow carry one here, duplicating Table.
type ShardState struct {
	Table      []flow.StateSnapshot
	StoreFlows []store.FlowRecord
	Store      store.ShardExport
	Removed    []flow.Key
}

// Window is one flow's ensemble vote window.
type Window struct {
	Key   flow.Key
	Votes []int
}
