package core

import (
	"time"

	"github.com/amlight/intddos/internal/flow"
	"github.com/amlight/intddos/internal/netsim"
	"github.com/amlight/intddos/internal/telemetry"
)

// HandleReport ingests one decoded INT report (INT Data Collection →
// Data Processor), applying the telemetry fault schedule when one is
// configured. Safe for concurrent use from any number of producers:
// reports are demuxed onto per-shard ingest queues and journaled by
// the shard's ingester goroutine, so producers only hash the key and
// enqueue.
func (l *Live) HandleReport(r *telemetry.Report) {
	l.Reports.Add(1)
	l.met.reports.Inc()
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
			l.met.seqGaps.Add(int64(res.Gaps))
		}
		switch res.Verdict {
		case telemetry.SeqDuplicate:
			l.Duplicates.Add(1)
			l.met.dupReports.Inc()
			return
		case telemetry.SeqStale:
			l.StaleReps.Add(1)
			l.met.staleReps.Inc()
			return
		case telemetry.SeqReordered:
			l.Reordered.Add(1)
			l.met.reordered.Inc()
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

// IngestAsync hands a normalized observation to its shard's ingester
// goroutine. The observation timestamp is taken here — arrival order
// at the demux, not queue-drain order, defines the flow's clock. A
// full shard queue blocks the producer (backpressure, like the
// paper's collector socket); after Stop begins the report is dropped
// and counted instead, because the ingesters are gone.
func (l *Live) IngestAsync(pi flow.PacketInfo) {
	if pi.At == 0 {
		pi.At = now()
	}
	select {
	case l.ingestChs[pi.Key.Shard(l.nShards)] <- pi:
		l.ingestAccepted.Add(1)
	case <-l.ingestQuit:
		l.met.ingestDropped.Inc()
	}
}

// IngestBacklog is how many accepted observations are still queued at
// the ingest demux, not yet folded into the flow table and journal.
func (l *Live) IngestBacklog() int64 {
	return l.ingestAccepted.Load() - l.ingestDone.Load()
}

// ingester owns one shard's ingest: it drains the shard's queue into
// the flow-table stripe and journal. One goroutine per shard keeps
// journal appends single-writer per stripe while producers fan in
// concurrently. On Stop it drains what is queued, then exits.
func (l *Live) ingester(shard int) {
	defer l.ingestWg.Done()
	ch := l.ingestChs[shard]
	for {
		select {
		case pi := <-ch:
			l.Ingest(pi)
			l.ingestDone.Add(1)
		case <-l.ingestQuit:
			l.drainIngest(ch)
			return
		}
	}
}

// drainIngest folds in whatever is queued on ch without blocking.
func (l *Live) drainIngest(ch chan flow.PacketInfo) {
	for {
		select {
		case pi := <-ch:
			l.Ingest(pi)
			l.ingestDone.Add(1)
		default:
			return
		}
	}
}

// Ingest folds a normalized observation into its flow-table stripe
// and writes the snapshot to the database shard, retrying transient
// store errors with backoff. Safe for concurrent use; observations of
// flows on different shards never contend. Most callers want
// IngestAsync — Ingest applies the observation on the calling
// goroutine.
func (l *Live) Ingest(pi flow.PacketInfo) {
	// Checkpoint barrier: a capture in progress parks ingest until the
	// consistent cut is taken. Only this shard's barrier lock is taken,
	// so ingest on different shards never serializes here. A miss on
	// the read lock means the shard's ingest stalled behind the
	// barrier — counted, because from the outside it is
	// indistinguishable from slow ingest.
	shard := pi.Key.Shard(l.nShards)
	bar := &l.ckptMu[shard]
	if !bar.TryRLock() {
		l.met.ingestStalls.Inc()
		bar.RLock()
	}
	defer bar.RUnlock()
	start := time.Now()
	if pi.At == 0 {
		pi.At = now()
	}
	// Triage sketch: fed on the ingest path, under the shard barrier,
	// so a checkpoint capture (which holds every barrier for write)
	// never races an update — the sketch is quiescent at the cut.
	l.scorer.observe(pi.Key)
	var (
		feats   []float64
		key     flow.Key
		reg     netsim.Time
		last    netsim.Time
		updates int
	)
	l.tables.ObserveFunc(pi, func(st *flow.State) {
		feats = st.Features(nil, l.cfg.Features)
		key, reg, last, updates = st.Key, st.RegisteredAt, st.LastAt, st.Updates
	})
	if l.journeys.ShouldSample() {
		l.journeys.Begin(key.String(), updates, "ingest")
	}
	l.upsertFlow(key, feats, reg, last, updates, pi.Label, pi.AttackType)
	l.jHop(key, updates, "journal")
	l.Snapshots.Add(1)
	l.met.snapshots.Inc()
	l.met.stageIngest.Since(start)
}

// upsertFlow writes one snapshot, retrying transient failures with
// exponential backoff when the store surfaces them. A write still
// failing after the retry budget is dropped — counted, tainted, and
// raised to shedding, because a lost snapshot is a lost record.
func (l *Live) upsertFlow(key flow.Key, feats []float64, reg, last netsim.Time, updates int, truth bool, attackType string) {
	if l.fdb == nil {
		l.DB.UpsertFlow(key, feats, reg, last, updates, truth, attackType)
		return
	}
	backoff := l.cfg.StoreRetryBackoff
	for attempt := 0; ; attempt++ {
		_, err := l.fdb.TryUpsertFlow(key, feats, reg, last, updates, truth, attackType)
		if err == nil {
			return
		}
		l.StoreRetries.Add(1)
		l.met.storeRetries.Inc()
		l.noteDegraded("store upsert retry")
		if attempt >= l.cfg.StoreRetries {
			l.StoreDropped.Add(1)
			l.met.storeDropped.Inc()
			l.taintKey(key)
			l.jAbort(key, updates, "store_dropped")
			l.event("store write dropped", "component", "store",
				"flow", key.String(), "attempts", attempt+1)
			l.noteShedding("store write dropped")
			return
		}
		time.Sleep(backoff)
		backoff *= 2
	}
}
