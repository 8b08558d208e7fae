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
	case <-l.quit:
		l.met.ingestDropped.Inc()
	}
}

// IngestBacklog is how many accepted observations are not yet folded
// into the flow table and journal.
func (l *Live) IngestBacklog() int64 {
	return l.ingestAccepted.Load() - l.ingestDone.Load()
}

// ingester owns one shard's ingest: it drains the shard's queue into
// the flow-table stripe and journal and pushes what it journaled to
// the shard's worker. One goroutine per shard keeps journal appends
// single-writer per stripe while producers fan in concurrently. On
// Stop it drains what is queued, then exits.
func (l *Live) ingester(shard int) {
	defer l.ingestWg.Done()
	ch := l.ingestChs[shard]
	var row []float64 // this goroutine's feature row, see journal
	// A journal tail restored from a checkpoint, or written before
	// Start, has no report behind it to push it: hand it off once.
	ok := l.push(shard)
	backoff := l.cfg.StoreRetryBackoff
	for {
		// Nothing ticks, so a hand-off whose journal drain failed is
		// retried on a timer, armed only while such rows wait — no later
		// report may come to retry it. Ingest carries on meanwhile.
		var retry <-chan time.Time
		if ok {
			backoff = l.cfg.StoreRetryBackoff
		} else {
			retry = time.After(backoff)
			backoff = min(2*backoff, maxRetryBackoff)
		}
		select {
		case pi := <-ch:
			ok = l.ingestBurst(pi, ch, &row)
		case <-retry:
			ok = l.push(shard)
		case <-l.quit:
			l.drainIngest(ch, &row)
			return
		}
	}
}

// drainIngest folds in whatever is queued on ch without blocking.
func (l *Live) drainIngest(ch chan flow.PacketInfo, row *[]float64) {
	for {
		select {
		case pi := <-ch:
			l.ingestBurst(pi, ch, row)
		default:
			return
		}
	}
}

// Ingest folds a normalized observation into its flow-table stripe,
// writes the snapshot to the database shard (retrying transient store
// errors with backoff) and hands it to the shard's prediction worker.
// Safe for concurrent use; observations of flows on different shards
// never contend. Most callers want IngestAsync — Ingest applies the
// observation on the calling goroutine.
func (l *Live) Ingest(pi flow.PacketInfo) {
	l.ingestAccepted.Add(1)
	var row []float64
	ok := l.ingestBurst(pi, nil, &row)
	// No ingester stands behind a direct caller to retry a failed
	// hand-off, so the caller backs off and retries it here.
	for backoff := l.cfg.StoreRetryBackoff; !ok && l.sleepQuit(backoff); backoff = min(2*backoff, maxRetryBackoff) {
		ok = l.push(pi.Key.Shard(l.nShards))
	}
}

// ingestBurst journals pi and every observation already queued behind
// it on more (the shard's ingest queue, whose only receiver is the
// caller; nil for a direct Ingest), then hands the shard's journal
// tail to its worker: one barrier acquisition, one journal drain and
// at most one worker wake-up per burst, however many reports it holds.
// It reports whether the hand-off went through.
func (l *Live) ingestBurst(pi flow.PacketInfo, more chan flow.PacketInfo, row *[]float64) bool {
	// Checkpoint barrier: a capture in progress parks ingest until the
	// consistent cut is taken. Only this shard's lock is taken, so
	// shards never serialize here. A miss on the read lock is ingest
	// stalled behind the barrier — counted, because from the outside it
	// is indistinguishable from slow ingest.
	shard := pi.Key.Shard(l.nShards)
	bar := &l.ckptMu[shard]
	if !bar.TryRLock() {
		l.met.ingestStalls.Inc()
		bar.RLock()
	}
	defer bar.RUnlock()
	l.journal(pi, row)
	n := int64(1)
	for behind := len(more); behind > 0; behind-- {
		l.journal(<-more, row)
		n++
	}
	l.ingestDone.Add(n)
	return l.handoff(shard)
}

// push hands the shard's journal tail to its worker on behalf of no
// report: Start's first hand-off, and the retry of a failed one. The
// barrier is held per attempt, so a store outage holds up no capture.
func (l *Live) push(shard int) bool {
	l.ckptMu[shard].RLock()
	defer l.ckptMu[shard].RUnlock()
	return l.handoff(shard)
}

// journal folds one observation into its flow-table stripe and writes
// the snapshot to the database shard. Callers hold the shard's
// checkpoint barrier for read and own row, the scratch the feature
// vector is built in: it is dead once the store has copied it.
func (l *Live) journal(pi flow.PacketInfo, row *[]float64) {
	start := time.Now()
	if pi.At == 0 {
		pi.At = now()
	}
	// Triage sketch: fed on the ingest path, under the shard barrier,
	// so a checkpoint capture (which holds every barrier for write)
	// never races an update — the sketch is quiescent at the cut.
	l.scorer.observe(pi.Key)
	var (
		key     flow.Key
		reg     netsim.Time
		last    netsim.Time
		updates int
	)
	l.tables.ObserveFunc(pi, func(st *flow.State) {
		*row = st.Features((*row)[:0], l.cfg.Features)
		key, reg, last, updates = st.Key, st.RegisteredAt, st.LastAt, st.Updates
	})
	if l.journeys.ShouldSample() {
		l.journeys.Begin(obs.JourneyID{Flow: key.Hash(), Seq: updates}, key.String(), "ingest")
	}
	l.upsertFlow(key, *row, reg, last, updates, pi.Label, pi.AttackType)
	l.jHop(key, updates, "journal")
	l.Snapshots.Add(1)
	l.met.snapshots.Inc()
	l.met.stageIngest.Since(start)
}

// handoff is the shard's CentralServer step, run by whoever just
// journaled: it drains the shard's journal into the shard's worker
// queue, shedding what does not fit. The journal is what checkpoints
// and restore read, not a queue between two goroutines — a record
// leaves it the moment it is written unless the drain fails, in which
// case nothing was consumed and handoff reports false.
//
// Callers hold ckptMu[shard] for read, so a capture sees no hand-off
// in progress; handoff must not take it again — a recursive RLock
// deadlocks behind a pending capture. hand serializes concurrent
// callers on one shard: records reach the worker in journal order.
func (l *Live) handoff(shard int) bool {
	sh := l.shards[shard]
	sh.hand.Lock()
	defer sh.hand.Unlock()
	// Outside Start..Stop there is no worker to hand to: what is
	// journaled stays journaled, for Start's push or a checkpoint.
	if !l.handing.Load() {
		return true
	}
	var err error
	if l.fdb == nil {
		sh.recs = l.DB.DrainShard(shard, sh.recs[:0])
	} else {
		sh.recs, err = l.fdb.TryDrainShard(shard, sh.recs[:0])
	}
	l.met.polls.Inc()
	if err != nil {
		l.StoreRetries.Add(1)
		l.met.storeRetries.Inc()
		l.noteDegraded("store poll retry")
		return false
	}
	// The static round-robin shard→worker assignment is what gives
	// workers shard affinity: one flow is always predicted by one worker.
	ch := l.workerChs[shard%len(l.workerChs)]
	polled := time.Now()
	n := int64(len(sh.recs))
	l.Polled.Add(n)
	l.met.polledRecs.Add(n)
	sh.polled.Add(n)
	for i := range sh.recs {
		rec := &sh.recs[i]
		// Journal wait: snapshot write → this hand-off.
		updated := time.Unix(0, int64(rec.UpdatedAt))
		l.met.stageJournal.ObserveDuration(polled.Sub(updated))
		l.jHop(rec.Key, rec.Updates, "poll")
		// Decide first, format only when sampled: rendering the key
		// costs two address formats and an allocation.
		tr := l.tracer.Sample("")
		if tr != nil {
			tr.Flow = rec.Key.String()
			tr.StageAt("journal_wait", updated, polled)
		}
		select {
		case ch <- queued{rec: *rec, enqueuedAt: polled, tr: tr}:
		default:
			l.Shed.Add(1)
			l.met.shed.Inc()
			l.taintKey(rec.Key)
			l.jAbort(rec.Key, rec.Updates, "shed")
			l.noteShedding("worker queue full")
		}
	}
	return true
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
