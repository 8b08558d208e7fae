package core

import (
	"fmt"
	"time"

	"github.com/amlight/intddos/internal/fault"
)

// Ledger is one reading of the pipeline's accounting, and the only
// place its sums and the settle predicate are written down. A report
// handed to HandleReport is at every instant in one term of
//
//	Reports              = Duplicates + Stale + FaultDrops + IngestDropped + Accepted
//	Accepted             = Journaled + [queued at a shard]
//	Snapshots + Restored = StoreDropped + JournalLen + Polled
//	Polled               = Decided + Shed + Abandoned
//
// so none is ever counted nowhere. A shard journals and decides a row
// in one pass under its run lock, and Live.Ledger reads under every
// shard's: no row is between its journal entry and its decision, and
// the bracketed queue is the one term in flight. Settled says it is
// empty and the journal with it. Restored is the one source that feeds
// the journal without a snapshot (a checkpoint's journal tail, which
// each shard's first pass decides). Direct Ingest and IngestAsync
// callers add to Accepted only: ReportsClosed is for pipelines fed by
// HandleReport.
type Ledger struct {
	Reports, Duplicates, Stale, FaultDrops, IngestDropped, Accepted, Journaled int64 // report side
	Snapshots, Restored, StoreDropped, JournalLen                              int64
	Polled, Decided, Shed, Abandoned                                           int64
}

// ReportsClosed: every report was suppressed, dropped or accepted.
func (g Ledger) ReportsClosed() bool {
	return g.Reports == g.Duplicates+g.Stale+g.FaultDrops+g.IngestDropped+g.Accepted
}

// Closed: every record drained from the journal was decided, shed or
// abandoned.
func (g Ledger) Closed() bool { return g.Polled == g.Decided+g.Shed+g.Abandoned }

// Settled: Closed with nothing in flight — every accepted observation
// journaled and the journal empty.
func (g Ledger) Settled() bool {
	return g.Accepted == g.Journaled && g.JournalLen == 0 && g.Closed()
}

// String is the one rendering of the ledger: the CLI's summary line,
// the /healthz detail and the "pipeline stopped" event all print it.
func (g Ledger) String() string {
	state := "OPEN"
	if g.Closed() {
		state = "CLOSED"
	}
	type fields Ledger // no String method: %+v prints every field by name
	return fmt.Sprintf("accounting: %s %+v", state, fields(g))
}

// Ledger reads the counters under every shard's run lock, so no pass is
// in progress. The report side is read after the pipeline side:
// counters only grow and rows only move downstream, so with no producer
// inside HandleReport a reading that says Settled was settled.
func (l *Live) Ledger() Ledger {
	for _, sh := range l.shards {
		sh.run.Lock()
		defer sh.run.Unlock()
	}
	g := Ledger{Decided: int64(l.DecisionCount()), Shed: l.Shed.Load(), Abandoned: l.Abandoned.Load()}
	g.Polled, g.StoreDropped, g.JournalLen = l.Polled.Load(), l.StoreDropped.Load(), int64(l.rawDB.JournalLen())
	g.Journaled, g.Snapshots, g.Accepted = l.ingestDone.Load(), l.Snapshots.Load(), l.ingestAccepted.Load()
	g.IngestDropped, g.FaultDrops = l.met.ingestDropped.Value(), l.cfg.Fault.SiteCount(fault.SiteDrop)
	g.Stale, g.Duplicates, g.Reports = l.StaleReps.Load(), l.Duplicates.Load(), l.Reports.Load()
	if l.restored != nil {
		g.Restored = int64(l.restored.JournalPending)
	}
	return g
}

// AwaitSettled polls the ledger until it reads Settled or timeout
// passes, reporting which. The caller must have stopped feeding.
func (l *Live) AwaitSettled(timeout time.Duration) bool {
	return awaitSettled(timeout, func() bool { return l.Ledger().Settled() })
}
