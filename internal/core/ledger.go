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
//	Accepted             = Journaled + [queued at an ingester]
//	Snapshots + Restored = StoreDropped + Unjournaled + JournalLen + Polled + [mid-hand-off]
//	Polled               = Decided + Shed + Abandoned + [queued at or inside a worker]
//
// so none is ever counted nowhere; the bracketed terms are the rows in
// flight and Settled says all three are zero. The third line is why
// "ingest backlog zero, journal empty, Polled closed" is not enough:
// handoff empties the shard's journal before it adds the rows to Polled,
// and in between all of that holds with n rows in nobody's count — but
// Snapshots has counted them since journal. Restored is the one source
// that feeds the journal without a snapshot (a checkpoint's journal
// tail, which Start's push adds to Polled); Unjournaled the one sink
// that takes a snapshot without a journal entry: under SkipNewRecords
// the store counts the brand-new records it keeps out of the journal
// nowhere, so Ledger charges the whole gap to it — in that mode alone
// the hand-off window goes unseen. Direct Ingest and IngestAsync callers
// add to Accepted only: ReportsClosed is for pipelines fed by HandleReport.
type Ledger struct {
	Reports, Duplicates, Stale, FaultDrops, IngestDropped, Accepted, Journaled int64 // report side
	Snapshots, Restored, StoreDropped, Unjournaled, JournalLen                 int64
	Polled, Decided, Shed, Abandoned                                           int64
}

// ReportsClosed: every report was suppressed, dropped or accepted.
func (g Ledger) ReportsClosed() bool {
	return g.Reports == g.Duplicates+g.Stale+g.FaultDrops+g.IngestDropped+g.Accepted
}

// Closed: every record handed off was decided, shed or abandoned.
func (g Ledger) Closed() bool { return g.Polled == g.Decided+g.Shed+g.Abandoned }

// Settled: Closed with nothing in flight — every accepted observation
// journaled, every snapshot handed off or accounted, the journal empty.
func (g Ledger) Settled() bool {
	return g.Accepted == g.Journaled && g.JournalLen == 0 &&
		g.Polled+g.StoreDropped+g.Unjournaled >= g.Snapshots+g.Restored && g.Closed()
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

// Ledger reads the counters downstream first, Journaled before Snapshots:
// they only grow and rows only move downstream, so with no producer inside
// HandleReport a reading that says Settled was settled when Journaled was read.
func (l *Live) Ledger() Ledger {
	g := Ledger{Decided: int64(l.DecisionCount()), Shed: l.Shed.Load(), Abandoned: l.Abandoned.Load()}
	g.Polled, g.StoreDropped, g.JournalLen = l.Polled.Load(), l.StoreDropped.Load(), int64(l.rawDB.JournalLen())
	g.Journaled, g.Snapshots, g.Accepted = l.ingestDone.Load(), l.Snapshots.Load(), l.ingestAccepted.Load()
	g.IngestDropped, g.FaultDrops = l.met.ingestDropped.Value(), l.cfg.Fault.SiteCount(fault.SiteDrop)
	g.Stale, g.Duplicates, g.Reports = l.StaleReps.Load(), l.Duplicates.Load(), l.Reports.Load()
	if l.restored != nil {
		g.Restored = int64(l.restored.JournalPending)
	}
	if l.cfg.SkipNewRecords {
		g.Unjournaled = max(g.Snapshots+g.Restored-g.StoreDropped-g.JournalLen-g.Polled, 0)
	}
	return g
}

// AwaitSettled polls the ledger until it reads Settled or timeout
// passes, reporting which. The caller must have stopped feeding.
func (l *Live) AwaitSettled(timeout time.Duration) bool {
	return awaitSettled(timeout, func() bool { return l.Ledger().Settled() })
}
