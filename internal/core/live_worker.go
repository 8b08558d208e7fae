package core

import (
	"fmt"
	"strconv"
	"time"

	"github.com/amlight/intddos/internal/fault"
	"github.com/amlight/intddos/internal/obs"
	"github.com/amlight/intddos/internal/store"
)

// queued is one flow record in flight to the prediction workers,
// carrying the timestamps and (for sampled records) the span trace
// that make per-stage latencies observable.
type queued struct {
	rec        store.FlowRecord
	enqueuedAt time.Time
	tr         *obs.Trace
}

// workerBatch is the micro-batch a worker is currently scoring, with
// how many of its records have been finished — the bookkeeping panic
// recovery needs to account for every dequeued record exactly once.
type workerBatch struct {
	batch []queued
	done  int
}

// superviseWorker owns one prediction worker slot: it runs the worker
// and, when the worker dies to a panic, restarts it with exponential
// backoff under the restart budget. A worker that exhausts the budget
// is declared down — its queue is drained into
// intddos_records_abandoned{reason="worker_down"} so shutdown
// accounting still closes, and the pipeline reports shedding.
func (l *Live) superviseWorker(w int) {
	defer l.workWg.Done()
	backoff := l.cfg.WorkerRestartBackoff
	restarts := 0
	for {
		if l.runWorker(w) {
			return // clean exit: channel closed at Stop
		}
		l.met.workerPanics.Inc()
		if l.cfg.WorkerRestartBudget >= 0 && restarts >= l.cfg.WorkerRestartBudget {
			l.workersDown.Add(1)
			l.event("worker down", "component", "worker",
				"worker", w, "restarts", restarts)
			l.noteShedding(fmt.Sprintf("worker %d restart budget exhausted", w))
			l.abandonRemaining(w)
			return
		}
		restarts++
		l.WorkerRestarts.Add(1)
		l.met.workerRestarts.Inc()
		l.event("worker restarted", "component", "worker",
			"worker", w, "restarts", restarts)
		l.noteDegraded(fmt.Sprintf("worker %d restarted", w))
		l.sleepQuit(backoff)
		backoff = min(2*backoff, maxRetryBackoff)
	}
}

// abandonRemaining consumes a down worker's queue until Stop closes
// it, accounting every record. Consuming (instead of leaving the
// queue to fill) keeps its shards' hand-offs from shedding into a
// dead queue, and flows of shards mapped to healthy workers are
// unaffected either way.
func (l *Live) abandonRemaining(w int) {
	for q := range l.workerChs[w] {
		l.abandonRecord(q.rec, "worker_down")
	}
}

// runWorker is one prediction worker run: it drains the worker's
// channel into micro-batches and scores them until the channel closes
// (clean=true) or a panic escapes a batch (clean=false, after
// accounting the batch's unfinished records). Panics inside a model
// are already contained by the scoring path; what reaches here is an
// injected worker fault or a genuine bug in the voting/logging path —
// either way the supervisor decides whether to restart.
func (l *Live) runWorker(w int) (clean bool) {
	ch := l.workerChs[w]
	maxBatch := l.cfg.PredictBatch
	scratch := &batchScratch{}
	var cur workerBatch
	cur.batch = make([]queued, 0, maxBatch)
	defer func() {
		if r := recover(); r != nil {
			clean = false
			for _, q := range cur.batch[cur.done:] {
				l.abandonRecord(q.rec, "panic")
			}
		}
	}()
	for {
		q, ok := <-ch
		if !ok {
			return true
		}
		if !l.handing.Load() && !l.cfg.DrainOnStop {
			l.abandon("stop")
			l.jAbort(q.rec.Key, q.rec.Updates, "stop")
			continue
		}
		cur.batch = append(cur.batch[:0], q)
		cur.done = 0
		closed := fillBatch(&cur, ch, maxBatch)
		if l.cfg.Fault.WorkerPanicNow() {
			panic(fault.InjectedPanic{Site: fault.SiteWorkerPanic})
		}
		busyT0 := time.Now()
		l.predictBatch(&cur, scratch)
		l.workerBusy[w].Add(int64(time.Since(busyT0)))
		cur.batch = cur.batch[:0]
		cur.done = 0
		if closed {
			return true
		}
	}
}

// fillBatch tops up the current micro-batch from the backlog already
// queued, never blocking: batch size follows load, not a timer.
// Reports whether the channel closed while filling — the batch in
// hand is still scored.
func fillBatch(cur *workerBatch, ch chan queued, maxBatch int) (closed bool) {
	for len(cur.batch) < maxBatch {
		select {
		case q, ok := <-ch:
			if !ok {
				return true
			}
			cur.batch = append(cur.batch, q)
		default:
			return false
		}
	}
	return false
}

// predictBatch scores one micro-batch through the shared scorer and
// finishes every record in arrival order, whichever tier decided it,
// so the per-flow decision sequence a single worker produces is
// independent of how records were grouped into batches. Records that
// cannot be scored (malformed snapshot, no model available) are
// abandoned with a reason, never lost silently.
func (l *Live) predictBatch(b *workerBatch, s *batchScratch) {
	// Shape guard: a snapshot whose width disagrees with the scaler
	// would panic inside a kernel; abandon it instead.
	want := len(l.cfg.Scaler.Mean)
	kept := b.batch[:0]
	for _, q := range b.batch {
		if len(q.rec.Features) != want {
			l.abandonRecord(q.rec, "malformed")
			continue
		}
		kept = append(kept, q)
	}
	b.batch = kept
	if len(b.batch) == 0 {
		return
	}
	dequeued := time.Now()
	s.rows, s.keys = s.rows[:0], s.keys[:0]
	for _, q := range b.batch {
		l.met.stageQueue.ObserveDuration(dequeued.Sub(q.enqueuedAt))
		q.tr.StageAt("queue_wait", q.enqueuedAt, dequeued)
		l.jHop(q.rec.Key, q.rec.Updates, "batch")
		s.rows = append(s.rows, q.rec.Features)
		s.keys = append(s.keys, q.rec.Key)
	}
	verdicts, navail := l.scorer.score(s.rows, s.keys, s)
	triaged := l.scorer.cascade != nil
	if triaged {
		l.met.triageLatency.ObserveDuration(s.triageTook)
	}
	// Degraded vote: decisions still flow, at reduced fidelity.
	degraded := navail > 0 && navail < len(l.cfg.Models)
	if degraded {
		l.met.degradedBatches.Inc()
	}
	predicted := time.Now()
	n := len(b.batch)
	// The batch call's cost is attributed evenly to its samples: at
	// batch size one this is the same duration the per-record path
	// observed.
	perSample := predicted.Sub(dequeued) / time.Duration(n)
	l.met.batchSize.Observe(float64(n))
	decided := 0
	for i, v := range verdicts {
		q := b.batch[i]
		l.met.stagePredict.Observe(perSample.Seconds())
		l.met.sampleLatency.Observe(perSample.Seconds())
		q.tr.StageAt("scale_predict", dequeued, predicted)
		l.jHop(q.rec.Key, q.rec.Updates, "predict")
		switch {
		case v.stage == 1:
			l.met.triageExitStage1.Inc()
		case v.stage > 1:
			l.met.triageExits.With(strconv.Itoa(v.stage)).Inc()
		case triaged:
			l.met.triageFallthrough.Inc()
		}
		if v.decided {
			if degraded && v.stage == 0 {
				l.taintKey(q.rec.Key)
			}
			l.finish(q, v.raw, v.votes, predicted, v.stage)
			decided++
		} else {
			// Every ensemble member is out: no best-effort answer exists
			// for a row the cascade did not exit.
			l.abandonRecord(q.rec, "no_model")
		}
		b.done++
	}
	l.Predictions.Add(int64(decided))
	l.met.predictions.Add(int64(decided))
}

// finish applies window voting on the flow's shard and logs the
// decision. stage is the decision's cascade provenance (0 for the
// full-ensemble path).
func (l *Live) finish(q queued, raw int, votes []int, predicted time.Time, stage int) {
	rec := q.rec
	t := now()
	sh := l.shards[rec.Key.Shard(l.nShards)]
	var label int
	sh.mu.Lock()
	sh.windows[rec.Key], label = slideVote(sh.windows[rec.Key], raw, l.cfg.VoteWindow)
	if l.deltaTrack {
		sh.dirty[rec.Key] = struct{}{}
		delete(sh.removed, rec.Key)
	}
	sh.mu.Unlock()
	p := store.PredictionRecord{
		Key: rec.Key, Label: label, At: t, Latency: t - rec.UpdatedAt, Votes: votes,
		FlowSeq: rec.Updates - 1, Stage: stage, Truth: rec.Truth, AttackType: rec.AttackType,
	}
	d := decisionOf(p)

	typ := rec.AttackType
	if typ == "" {
		typ = "unknown"
	}
	l.met.decisions.With(typ).Inc()
	if !d.Correct() {
		l.met.misclass.With(typ).Inc()
	}
	l.met.predictLatency.Observe(d.Latency.Seconds())
	voted := time.Now()
	l.met.stageVote.ObserveDuration(voted.Sub(predicted))
	q.tr.StageAt("vote", predicted, voted)
	l.tracer.Finish(q.tr)

	// The one record the decision leaves behind: Decisions and every
	// checkpoint read it back from the store's log.
	l.DB.AppendPrediction(p)
	if cb := l.OnDecision; cb != nil {
		cb(d)
	}
	// Completion mark for the checkpoint barrier: a capture that
	// observes this count sees the record's window vote and its log entry.
	l.jComplete(rec.Key, rec.Updates)
	l.completed.Add(1)
}
