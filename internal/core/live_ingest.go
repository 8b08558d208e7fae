package core

import (
	"time"

	"github.com/amlight/intddos/internal/flow"
	"github.com/amlight/intddos/internal/obs"
	"github.com/amlight/intddos/internal/store"
	"github.com/amlight/intddos/internal/telemetry"
)

// HandleReport ingests one decoded INT report (INT Data Collection →
// Data Processor), applying the telemetry fault schedule when one is
// configured. Safe for concurrent use from any number of producers:
// reports are demuxed onto the shard queues and taken by the shard's
// goroutine, so producers only hash the key and enqueue.
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
// into the flow table.
func (l *Live) IngestBacklog() int64 {
	return l.ingestAccepted.Load() - l.ingestDone.Load()
}

// Ingest runs one observation through its shard on the calling
// goroutine — the same pass the shard's goroutine runs, under the same
// locks: fold it in and, while the pipeline runs, decide the shard's
// pending rows. Safe for concurrent use; observations of flows on
// different shards never contend. Most callers want IngestAsync.
func (l *Live) Ingest(pi flow.PacketInfo) {
	l.ingestAccepted.Add(1)
	l.burst(pi.Key.Shard(l.nShards), &pi, false)
}

// fold folds one observation into its flow-table stripe — the flow's
// one record — and appends the snapshot to the shard's pending rows,
// its feature row cut from the shard's slab. Callers hold the shard's
// barrier for read and its run lock, which make both the shard's.
func (l *Live) fold(sh *liveShard, pi flow.PacketInfo) {
	start := time.Now()
	if pi.At == 0 {
		pi.At = now()
	}
	// Triage sketch: fed under the shard barrier, so a checkpoint
	// capture (which holds every barrier for write) never races an
	// update — the sketch is quiescent at the cut.
	l.scorer.observe(pi.Key)
	var rec store.FlowRecord
	l.tables.ObserveFunc(pi, func(st *flow.State) {
		rec, sh.slab = snapshot(pi, st, sh.slab)
	})
	if l.journeys.ShouldSample() {
		// The ingest hop is the report's accept stamp, so the poll − ingest
		// gap is the journal_wait stage the histogram times.
		l.journeys.Begin(obs.JourneyID{Flow: pi.Key.Hash(), Seq: rec.Updates}, pi.Key.String(), "ingest",
			time.Unix(0, int64(pi.At)))
	}
	sh.pending = append(sh.pending, rec)
	l.jHop(pi.Key, rec.Updates, "journal")
	l.Snapshots.Add(1)
	l.met.stageIngest.Since(start)
}
