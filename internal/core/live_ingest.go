package core

import (
	"time"

	"github.com/amlight/intddos/internal/flow"
	"github.com/amlight/intddos/internal/netsim"
	"github.com/amlight/intddos/internal/obs"
	"github.com/amlight/intddos/internal/telemetry"
)

// HandleReport ingests one decoded INT report (INT Data Collection →
// Data Processor), applying the telemetry fault schedule when one is
// configured. Safe for concurrent use from any number of producers:
// reports are demuxed onto the shard queues and journaled by the
// shard's goroutine, so producers only hash the key and enqueue.
func (l *Live) HandleReport(r *telemetry.Report) {
	l.Reports.Add(1)
	// Duplicate suppression runs before the fault schedule and the
	// demux: over a duplicating or reordering wire, one exported report
	// must never become two flow observations (and so two decisions),
	// and a stale straggler must not rewind a flow's history. Reports
	// with no source identity skip dedup — sequence numbers are only
	// meaningful per exporter.
	if l.dedup != nil && r.SourceKey() != "" {
		res := l.dedup.Observe(r.SourceKey(), r.Seq)
		if res.Gaps > 0 {
			l.SeqGaps.Add(int64(res.Gaps))
		}
		switch res.Verdict {
		case telemetry.SeqDuplicate:
			l.Duplicates.Add(1)
			return
		case telemetry.SeqStale:
			l.StaleReps.Add(1)
			return
		case telemetry.SeqReordered:
			l.Reordered.Add(1)
		}
	}
	in := l.cfg.Fault
	if in == nil {
		l.IngestAsync(flow.FromINT(r, now()))
		return
	}
	if in.CorruptReport(r) {
		in.Taint(flow.FromINT(r, 0).Key.String())
	}
	pi := flow.FromINT(r, now())
	if in.DropReport() {
		in.Taint(pi.Key.String())
		return
	}
	if d := in.ReportDelay(); d > 0 {
		in.Taint(pi.Key.String())
		time.Sleep(d)
		pi.At = now()
	}
	l.IngestAsync(pi)
}

// IngestAsync queues a normalized observation for its shard. The
// observation timestamp is taken here — arrival order at the demux,
// not queue-drain order, defines the flow's clock, and the shed bound
// runs from it. A full shard queue blocks the producer (backpressure,
// like the paper's collector socket); after Stop begins the report is
// dropped and counted instead, because the shards are gone. Stop is
// checked before the send: with quit closed, a select would pick at
// random between it and a queue with room that no shard drains again.
func (l *Live) IngestAsync(pi flow.PacketInfo) {
	if l.quitting() {
		l.met.ingestDropped.Inc()
		return
	}
	if pi.At == 0 {
		pi.At = now()
	}
	select {
	case l.shards[pi.Key.Shard(l.nShards)].queue <- pi:
		l.ingestAccepted.Add(1)
	case <-l.quit:
		l.met.ingestDropped.Inc()
	}
}

// IngestBacklog is how many accepted observations are not yet folded
// into the flow table and journal.
func (l *Live) IngestBacklog() int64 {
	return l.ingestAccepted.Load() - l.ingestDone.Load()
}

// Ingest runs one observation through its shard on the calling
// goroutine — the same pass the shard's goroutine runs, under the same
// locks: journal it and, while the pipeline runs, decide the shard's
// journal. Safe for concurrent use; observations of flows on different
// shards never contend. Most callers want IngestAsync.
func (l *Live) Ingest(pi flow.PacketInfo) {
	l.ingestAccepted.Add(1)
	shard := pi.Key.Shard(l.nShards)
	ok, _ := l.burst(shard, &pi, false)
	// No shard goroutine stands behind a direct caller to retry a
	// failed journal drain, so the caller backs off and retries it here.
	for backoff := l.cfg.StoreRetryBackoff; !ok && l.sleepQuit(backoff); backoff = min(2*backoff, maxRetryBackoff) {
		ok, _ = l.burst(shard, nil, false)
	}
}

// journal folds one observation into its flow-table stripe — the
// flow's one record — and appends the snapshot to the database shard's
// journal, reporting whether the write landed. Callers hold the
// shard's barrier for read and its run lock, which makes sh.row, the
// scratch the feature vector is built in, theirs: it is dead once the
// store has copied it.
func (l *Live) journal(sh *liveShard, pi flow.PacketInfo) bool {
	start := time.Now()
	if pi.At == 0 {
		pi.At = now()
	}
	// Triage sketch: fed under the shard barrier, so a checkpoint
	// capture (which holds every barrier for write) never races an
	// update — the sketch is quiescent at the cut.
	l.scorer.observe(pi.Key)
	var (
		key     flow.Key
		reg     netsim.Time
		last    netsim.Time
		updates int
	)
	l.tables.ObserveFunc(pi, func(st *flow.State) {
		sh.row = st.Features(sh.row[:0], intFeatures)
		key, reg, last, updates = st.Key, st.RegisteredAt, st.LastAt, st.Updates
	})
	if l.journeys.ShouldSample() {
		// The ingest hop is the report's accept stamp, so the poll − ingest
		// gap is the journal_wait stage the histogram times.
		l.journeys.Begin(obs.JourneyID{Flow: key.Hash(), Seq: updates}, key.String(), "ingest",
			time.Unix(0, int64(pi.At)))
	}
	written := l.appendJournal(key, sh.row, reg, last, updates, pi.Label, pi.AttackType)
	l.jHop(key, updates, "journal")
	l.Snapshots.Add(1)
	l.met.stageIngest.Since(start)
	return written
}

// appendJournal writes one snapshot, retrying transient failures with
// exponential backoff when the store surfaces them. A write still
// failing after the retry budget is dropped — counted, tainted, and
// raised to shedding, because a lost snapshot is a lost record — and
// appendJournal reports false.
func (l *Live) appendJournal(key flow.Key, feats []float64, reg, last netsim.Time, updates int, truth bool, attackType string) bool {
	if l.fdb == nil {
		l.DB.AppendJournal(key, feats, reg, last, updates, truth, attackType)
		return true
	}
	backoff := l.cfg.StoreRetryBackoff
	for attempt := 0; ; attempt++ {
		err := l.fdb.TryAppendJournal(key, feats, reg, last, updates, truth, attackType)
		if err == nil {
			return true
		}
		l.StoreRetries.Add(1)
		l.noteDegraded("store upsert retry")
		if attempt >= storeRetries {
			l.StoreDropped.Add(1)
			l.taintKey(key)
			l.jAbort(key, updates, "store_dropped")
			l.event("store write dropped", "component", "store",
				"flow", key.String(), "attempts", attempt+1)
			l.noteShedding("store write dropped")
			return false
		}
		time.Sleep(backoff)
		backoff *= 2
	}
}
