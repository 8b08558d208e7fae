package core

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/amlight/intddos/internal/flow"
	"github.com/amlight/intddos/internal/obs"
	"github.com/amlight/intddos/internal/store"
	"github.com/amlight/intddos/internal/telemetry"
)

// HandleReport ingests one decoded INT report (INT Data Collection →
// Data Processor), applying the telemetry fault schedule when one is
// configured. Safe for concurrent use from any number of producers:
// reports are packed and demuxed onto the shard queues and taken by
// the shard's goroutine, so producers only pack, hash and enqueue.
// Nothing of r is kept past the call — the queues carry pointer-free
// observations —, so a caller that decodes r into its own frame
// (telemetry.DecodeReport inlines) allocates nothing per report.
func (l *Live) HandleReport(r *telemetry.Report) {
	l.Reports.Add(1)
	// Duplicate suppression runs before the fault schedule and the
	// demux: over a duplicating or reordering wire, one exported report
	// must never become two flow observations (and so two decisions),
	// and a stale straggler must not rewind a flow's history. Reports
	// with no source identity skip dedup — sequence numbers are only
	// meaningful per exporter.
	if l.dedup != nil {
		if src := r.SourceKey(); src != (telemetry.SourceKey{}) {
			res := l.dedup.Observe(src, r.Seq)
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
	}
	in := l.cfg.Fault
	corrupted := in != nil && in.CorruptReport(r)
	o := flow.PackINT(r, now())
	o.AttackType = l.attacks.index(r.Truth.AttackType)
	if in != nil {
		if corrupted {
			in.Taint(o.String())
		}
		if in.DropReport() {
			in.Taint(o.String())
			return
		}
		if d := in.ReportDelay(); d > 0 {
			in.Taint(o.String())
			time.Sleep(d)
			o.At = now()
		}
	}
	l.enqueue(&o)
}

// pack packs pi for the shard queues, interning its attack type.
func (l *Live) pack(pi flow.PacketInfo) flow.Observation {
	o := pi.Pack()
	o.AttackType = l.attacks.index(pi.AttackType)
	return o
}

// enqueue queues a packed observation for its shard. The observation
// timestamp is taken here when the producer left it zero — arrival
// order at the demux, not queue-drain order, defines the flow's clock,
// and the shed bound runs from it. A full shard queue blocks the
// producer (backpressure, like the paper's collector socket); after
// Stop begins the observation is dropped and counted instead, because
// the shards are gone. Stop is checked before the send: with quit
// closed, a select would pick at random between it and a queue with
// room that no shard drains again.
func (l *Live) enqueue(o *flow.Observation) {
	if l.quitting() {
		l.met.ingestDropped.Inc()
		return
	}
	if o.At == 0 {
		o.At = now()
	}
	select {
	case l.shards[o.Shard(l.nShards)].queue <- *o:
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
// different shards never contend. Most callers want HandleReport.
func (l *Live) Ingest(pi flow.PacketInfo) {
	l.ingestAccepted.Add(1)
	o := l.pack(pi)
	l.burst(o.Shard(l.nShards), &o, false)
}

// fold folds one observation into its flow-table stripe — the flow's
// one record — and appends the snapshot to the shard's pending rows,
// its feature row cut from the shard's slab and its attack type
// resolved back from the interned index. Callers hold the shard's
// barrier for read and its run lock, which make both the shard's.
func (l *Live) fold(sh *liveShard, o *flow.Observation) {
	start := time.Now()
	if o.At == 0 {
		o.At = now()
	}
	// Triage sketch: fed under the shard barrier, so a checkpoint
	// capture (which holds every barrier for write) never races an
	// update — the sketch is quiescent at the cut.
	l.scorer.observe(o.Hash())
	var rec store.FlowRecord
	l.tables.ObservePacked(o, func(st *flow.State) {
		rec, sh.slab = snapshot(o.Key(), o.Label, l.attacks.name(o.AttackType), st, sh.slab)
	})
	if sh.journeys.ShouldSample() {
		// The ingest hop is the report's accept stamp, so the poll − ingest
		// gap is the journal_wait stage the histogram times.
		sh.journeys.Begin(&rec.Key, rec.Updates, time.Unix(0, int64(o.At)))
	}
	sh.pending = append(sh.pending, rec)
	sh.journeys.Hop(&rec.Key, rec.Updates, obs.HopJournal)
	l.Snapshots.Add(1)
	l.met.stageIngest.Since(start)
}

// attackTypes interns the ground-truth attack types the shard queues
// carry as indexes. Index 0 is "", the only type a decoded wire report
// carries, and takes no lookup. A new name is cloned once into a copy
// of the table that the writer publishes whole, so producers on any
// goroutine and the shards resolving indexes read without a lock.
type attackTypes struct {
	mu  sync.Mutex // serializes adds
	cur atomic.Pointer[attackTable]
}

// attackTable is one published, immutable version of the table.
type attackTable struct {
	index map[string]uint32
	names []string // names[0] is ""
}

// index returns name's index, interning it when new.
func (a *attackTypes) index(name string) uint32 {
	if name == "" {
		return 0
	}
	if t := a.cur.Load(); t != nil {
		if i, ok := t.index[name]; ok {
			return i
		}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	old := a.cur.Load()
	if old == nil {
		old = &attackTable{names: []string{""}}
	}
	if i, ok := old.index[name]; ok {
		return i
	}
	n := len(old.names)
	next := &attackTable{
		index: make(map[string]uint32, n),
		names: append(old.names[:n:n], strings.Clone(name)),
	}
	for k, v := range old.index {
		next.index[k] = v
	}
	next.index[next.names[n]] = uint32(n)
	a.cur.Store(next)
	return uint32(n)
}

// name resolves an index that index returned.
func (a *attackTypes) name(i uint32) string {
	if i == 0 {
		return ""
	}
	return a.cur.Load().names[i]
}
