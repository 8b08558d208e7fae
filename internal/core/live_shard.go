package core

import (
	"fmt"
	"strconv"
	"time"

	"github.com/amlight/intddos/internal/fault"
	"github.com/amlight/intddos/internal/flow"
	"github.com/amlight/intddos/internal/netsim"
	"github.com/amlight/intddos/internal/store"
)

// runShard is one shard's goroutine. Each loop takes the shard's whole
// backlog — the report it woke for and everything queued behind it —
// and runs it to completion (burst), so a producer blocked on a full
// queue waits at most one pass. Nothing ticks: the only wait besides
// the queue is the restart backoff after a panic. On Stop the shard
// takes what is queued, then exits.
func (l *Live) runShard(shard int) {
	defer l.shardWg.Done()
	queue := l.shards[shard].queue
	// Rows restored from a checkpoint, or taken before Start, have no
	// report behind them: decide them once.
	pause := l.burst(shard, nil, false)
	for {
		if pause > 0 {
			l.sleepQuit(pause)
		}
		select {
		case pi := <-queue:
			pause = l.burst(shard, &pi, true)
		case <-l.quit:
			l.takeQueued(shard)
			return
		}
	}
}

// takeQueued runs what is queued on the shard without waiting for
// more: the shard's last passes at Stop.
func (l *Live) takeQueued(shard int) {
	queue := l.shards[shard].queue
	for len(queue) > 0 {
		pi := <-queue
		l.burst(shard, &pi, true)
	}
}

// burst is one run-to-completion pass over a shard — the paper's Data
// Processor, CentralServer and Prediction modules back to back on one
// goroutine. It takes first (if any) and, when queued, every report
// already waiting behind it on the shard's queue, folding each into
// its flow's record and its snapshot into the shard's pending rows;
// then, while the pipeline runs, it decides every pending row. The
// shard's barrier is held for read and its run lock throughout, so a
// capture or a Ledger reading never sees a row between its take and
// its decision.
//
// A queued report the shard takes more than shedAfter after it was
// accepted is folded in — its flow's Seq advances, as a shed row's
// must — and then shed. pause is the restart backoff after a panic.
func (l *Live) burst(shard int, first *flow.PacketInfo, queued bool) (pause time.Duration) {
	bar := &l.ckptMu[shard]
	if !bar.TryRLock() {
		// Ingest stalled behind a capture: counted, because from the
		// outside it is indistinguishable from slow ingest.
		l.met.ingestStalls.Inc()
		bar.RLock()
	}
	defer bar.RUnlock()
	sh := l.shards[shard]
	sh.run.Lock()
	defer sh.run.Unlock()
	start := time.Now()
	sh.todo, sh.done, sh.retried = nil, 0, 0
	defer func() {
		// Panics inside a model are contained by the scoring path; what
		// reaches here is an injected shard fault or a bug in the
		// voting/logging path.
		if r := recover(); r != nil {
			for i := sh.done; i < len(sh.todo); i++ {
				l.abandonRecord(&sh.todo[i], "panic")
			}
			pause = l.restart(sh, shard)
		}
		sh.busy.Add(int64(time.Since(start)))
	}()
	carried, late := len(sh.pending), 0
	if carried == 0 {
		sh.slab = sh.slab[:0] // no pending row reads it any more
	}
	if first != nil {
		oldest := netsim.Time(start.UnixNano()) - netsim.Time(l.shedAfter)
		behind := 0
		if queued {
			behind = len(sh.queue)
		}
		for i, pi := 0, *first; ; i, pi = i+1, <-sh.queue {
			l.fold(sh, pi)
			if queued && pi.At < oldest {
				late++
			}
			if i == behind {
				break
			}
		}
		l.ingestDone.Add(int64(behind + 1))
	}
	// Outside Start..Stop nothing decides: what is taken stays
	// pending, for Start's first pass or a checkpoint.
	if l.running.Load() {
		l.decide(sh, carried, late)
	}
	return 0
}

// decide is the shard's CentralServer and Prediction step: it takes
// every pending row and finishes it in take order, PredictBatch rows a
// scoring call. The rows after the carried ones are the pass's own, in
// queue order, so its late ones are the first late of them — shed
// oldest first. A row whose width disagrees with the scaler is
// abandoned rather than panicking a kernel.
func (l *Live) decide(sh *liveShard, carried, late int) {
	rows := sh.pending
	sh.pending = sh.pending[:0]
	l.met.polls.Inc()
	taken := time.Now()
	l.Polled.Add(int64(len(rows)))
	sh.polled.Add(int64(len(rows)))
	want := len(l.cfg.Scaler.Mean)
	todo := rows[:0]
	for i := range rows {
		rec := &rows[i]
		// Journal wait: accepted → taken.
		l.met.stageJournal.ObserveDuration(taken.Sub(time.Unix(0, int64(rec.UpdatedAt))))
		l.jHop(rec.Key, rec.Updates, "poll")
		switch {
		case i >= carried && i < carried+late:
			l.shed(rec)
		case len(rec.Features) != want:
			l.abandonRecord(rec, "malformed")
		default:
			todo = append(todo, *rec)
		}
	}
	sh.todo = todo
	for sh.done < len(todo) {
		rest := todo[sh.done:]
		switch {
		case sh.down:
			for i := range rest {
				l.abandonRecord(&rest[i], "worker_down")
			}
		case !l.cfg.DrainOnStop && l.quitting():
			for i := range rest {
				l.abandon("stop")
				l.jAbort(rest[i].Key, rest[i].Updates, "stop")
			}
		default:
			if l.cfg.Fault.WorkerPanicNow() {
				panic(fault.InjectedPanic{Site: fault.SiteWorkerPanic})
			}
			l.predictBatch(sh, rest[:min(len(rest), l.cfg.PredictBatch)], taken)
			continue
		}
		sh.done = len(todo)
	}
}

// quitting reports whether Stop has begun.
func (l *Live) quitting() bool {
	select {
	case <-l.quit:
		return true
	default:
		return false
	}
}

// shed drops one row its shard took past the shed bound:
// counted, its flow tainted, its sampled journey aborted.
func (l *Live) shed(rec *store.FlowRecord) {
	l.Shed.Add(1)
	l.taintKey(rec.Key)
	l.jAbort(rec.Key, rec.Updates, "shed")
	l.noteShedding("queue wait past the shed bound")
}

// restart is the shard's supervisor, run after a panic escaped a pass
// whose unfinished rows are already abandoned. Within the restart
// budget it returns the backoff to sit out before the next pass,
// doubling per restart; past it the shard is down — it still folds in
// what it takes and abandons it as worker_down, so the ledger closes —
// and the pipeline reports shedding.
func (l *Live) restart(sh *liveShard, shard int) time.Duration {
	l.met.workerPanics.Inc()
	if budget := l.workerRestartBudget; budget >= 0 && sh.restarts >= budget {
		sh.down = true
		l.shardsDown.Add(1)
		l.event("shard down", "component", "shard", "shard", shard, "restarts", sh.restarts)
		l.noteShedding(fmt.Sprintf("shard %d restart budget exhausted", shard))
		return 0
	}
	sh.restarts++
	l.WorkerRestarts.Add(1)
	l.event("shard restarted", "component", "shard", "shard", shard, "restarts", sh.restarts)
	l.noteDegraded(fmt.Sprintf("shard %d restarted", shard))
	pause := sh.backoff
	sh.backoff = min(2*pause, maxRetryBackoff)
	return pause
}

// predictBatch scores one micro-batch through the shared scorer and
// finishes every record in take order, whichever tier decided it,
// so the per-flow decision sequence is independent of how records were
// grouped into batches. A record no model could score is abandoned
// with reason no_model, never lost silently.
func (l *Live) predictBatch(sh *liveShard, batch []store.FlowRecord, taken time.Time) {
	s := &sh.scratch
	dequeued := time.Now()
	s.rows, s.keys = s.rows[:0], s.keys[:0]
	for i := range batch {
		rec := &batch[i]
		l.met.stageQueue.ObserveDuration(dequeued.Sub(taken))
		l.jHop(rec.Key, rec.Updates, "batch")
		s.rows = append(s.rows, rec.Features)
		s.keys = append(s.keys, rec.Key)
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
	// The batch call's cost is attributed evenly to its samples, one
	// scale_predict observation a row: at batch size one this is the
	// same duration the per-record path observed.
	perSample := time.Since(dequeued) / time.Duration(len(batch))
	l.met.batchSize.Observe(float64(len(batch)))
	for i, v := range verdicts {
		rec := &batch[i]
		l.met.stagePredict.Observe(perSample.Seconds())
		l.jHop(rec.Key, rec.Updates, "predict")
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
				l.taintKey(rec.Key)
			}
			l.finish(sh, rec, v)
		} else {
			// Every ensemble member is out: no best-effort answer exists
			// for a row the cascade did not exit.
			l.abandonRecord(rec, "no_model")
		}
		sh.done++
	}
}

// finish slides the flow's vote window on its flow-table record and
// logs the decision. The vote span starts at this row's own clock
// read, so row i's vote never includes finishing rows 0…i−1 of its
// batch. The decision counts once it is logged and OnDecision has
// returned; one whose log write is dropped is abandoned instead, as
// store_dropped.
func (l *Live) finish(sh *liveShard, rec *store.FlowRecord, v verdict) {
	t := now()
	p := decisionRecord(rec, v, l.tables.Vote(rec.Key, v.raw, voteWindow), t)
	l.met.stageVote.ObserveDuration(time.Since(time.Unix(0, int64(t))))

	// The one record the decision leaves behind: Decisions and every
	// checkpoint read it back from the store's log.
	if !l.logPrediction(sh, &p) {
		l.abandonRecord(rec, "store_dropped")
		return
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
	if cb := l.OnDecision; cb != nil {
		cb(d)
	}
	l.jComplete(rec.Key, rec.Updates)
	l.Predictions.Add(1)
}

// logPrediction appends p to the store's log, retrying transient
// failures with exponential backoff when the store surfaces them. The
// backoffs are the pass's, not the write's: a pass sleeps one retry
// sequence — storeRetries backoffs, doubling — at most, since it holds
// its shard throughout, and once it has, a write failing in the rest
// of the pass is not retried. A write still failing when the pass has
// no backoff left is dropped — counted, and raised to shedding,
// because a lost log write is a lost decision — and logPrediction
// reports false.
func (l *Live) logPrediction(sh *liveShard, p *store.PredictionRecord) bool {
	if l.fdb == nil {
		l.DB.AppendPrediction(*p)
		return true
	}
	for attempt := 1; ; attempt++ {
		if l.fdb.TryAppendPrediction(*p) == nil {
			return true
		}
		l.StoreRetries.Add(1)
		l.noteDegraded("store write retry")
		if sh.retried >= storeRetries {
			l.StoreDropped.Add(1)
			l.event("store write dropped", "component", "store",
				"flow", p.Key.String(), "attempts", attempt)
			l.noteShedding("store write dropped")
			return false
		}
		time.Sleep(l.cfg.StoreRetryBackoff << sh.retried)
		sh.retried++
	}
}
