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
// queue waits at most one pass. Nothing ticks: the only timer is the
// retry of a failed journal drain, armed only while such rows wait. On
// Stop the shard takes what is queued, then exits.
func (l *Live) runShard(shard int) {
	defer l.shardWg.Done()
	queue := l.shards[shard].queue
	// A journal tail restored from a checkpoint, or written before
	// Start, has no report behind it: decide it once.
	ok, pause := l.burst(shard, nil, false)
	backoff := l.cfg.StoreRetryBackoff
	for {
		if pause > 0 {
			l.sleepQuit(pause)
		}
		var retry <-chan time.Time
		if ok {
			backoff = l.cfg.StoreRetryBackoff
		} else {
			retry = time.After(backoff)
			backoff = min(2*backoff, maxRetryBackoff)
		}
		select {
		case pi := <-queue:
			ok, pause = l.burst(shard, &pi, true)
		case <-retry:
			ok, pause = l.burst(shard, nil, false)
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
// goroutine. It journals first (if any) and, when queued, every report
// already waiting behind it on the shard's queue; then, while the
// pipeline runs, decides the shard's journal. The shard's barrier is
// held for read and its run lock throughout, so a capture or a Ledger
// reading never sees a row between its journal entry and its decision.
//
// A queued report the shard takes more than shedAfter after it was
// accepted is journaled — its flow's Seq advances, as a shed row's
// must — and then shed. ok reports whether the journal drain went
// through (a failed one consumed nothing; the caller retries it);
// pause is the restart backoff after a panic.
func (l *Live) burst(shard int, first *flow.PacketInfo, queued bool) (ok bool, pause time.Duration) {
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
	sh.todo, sh.done = nil, 0
	defer func() {
		// Panics inside a model are contained by the scoring path; what
		// reaches here is an injected shard fault or a bug in the
		// voting/logging path.
		if r := recover(); r != nil {
			for i := sh.done; i < len(sh.todo); i++ {
				l.abandonRecord(&sh.todo[i], "panic")
			}
			ok, pause = true, l.restart(sh, shard)
		}
		sh.busy.Add(int64(time.Since(start)))
	}()
	written, late := 0, 0
	if first != nil {
		oldest := netsim.Time(start.UnixNano()) - netsim.Time(l.shedAfter)
		behind := 0
		if queued {
			behind = len(sh.queue)
		}
		for i, pi := 0, *first; ; i, pi = i+1, <-sh.queue {
			if l.journal(sh, pi) {
				written++
				if queued && pi.At < oldest {
					late++
				}
			}
			if i == behind {
				break
			}
		}
		l.ingestDone.Add(int64(behind + 1))
	}
	// Outside Start..Stop nothing decides: what is journaled stays
	// journaled, for Start's first pass or a checkpoint.
	if !l.running.Load() {
		return true, 0
	}
	return l.decide(sh, shard, written, late), 0
}

// decide is the shard's CentralServer and Prediction step: it drains
// the shard's journal and finishes every row in it in journal order,
// PredictBatch rows a scoring call. The pass's own rows are the
// journal's tail in queue order, so its late ones are the first late
// of its written ones — shed oldest first. A row whose width disagrees
// with the scaler is abandoned rather than panicking a kernel. A failed
// drain consumed nothing: decide reports false.
func (l *Live) decide(sh *liveShard, shard, written, late int) bool {
	var err error
	if l.fdb == nil {
		sh.recs = l.DB.DrainShard(shard, sh.recs[:0])
	} else {
		sh.recs, err = l.fdb.TryDrainShard(shard, sh.recs[:0])
	}
	l.met.polls.Inc()
	if err != nil {
		l.StoreRetries.Add(1)
		l.noteDegraded("store poll retry")
		return false
	}
	polled := time.Now()
	n := len(sh.recs)
	l.Polled.Add(int64(n))
	sh.polled.Add(int64(n))
	lateFrom, want := n-written, len(l.cfg.Scaler.Mean)
	todo := sh.recs[:0]
	for i := range sh.recs {
		rec := &sh.recs[i]
		// Journal wait: accepted → drained.
		l.met.stageJournal.ObserveDuration(polled.Sub(time.Unix(0, int64(rec.UpdatedAt))))
		l.jHop(rec.Key, rec.Updates, "poll")
		switch {
		case i >= lateFrom && i < lateFrom+late:
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
			l.predictBatch(sh, rest[:min(len(rest), l.cfg.PredictBatch)], polled)
			continue
		}
		sh.done = len(todo)
	}
	return true
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

// shed drops one journaled row its shard took past the shed bound:
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
// doubling per restart; past it the shard is down — it still journals
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
// finishes every record in journal order, whichever tier decided it,
// so the per-flow decision sequence is independent of how records were
// grouped into batches. A record no model could score is abandoned
// with reason no_model, never lost silently.
func (l *Live) predictBatch(sh *liveShard, batch []store.FlowRecord, polled time.Time) {
	s := &sh.scratch
	dequeued := time.Now()
	s.rows, s.keys = s.rows[:0], s.keys[:0]
	for i := range batch {
		rec := &batch[i]
		l.met.stageQueue.ObserveDuration(dequeued.Sub(polled))
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
	// The batch call's cost is attributed evenly to its samples: at
	// batch size one this is the same duration the per-record path
	// observed.
	perSample := time.Since(dequeued) / time.Duration(len(batch))
	l.met.batchSize.Observe(float64(len(batch)))
	for i, v := range verdicts {
		rec := &batch[i]
		l.met.stagePredict.Observe(perSample.Seconds())
		l.met.sampleLatency.Observe(perSample.Seconds())
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
			l.finish(rec, v)
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
// returned.
func (l *Live) finish(rec *store.FlowRecord, v verdict) {
	t := now()
	var label int
	l.tables.Vote(rec.Key, func(w []int) []int {
		w, label = slideVote(w, v.raw, voteWindow)
		return w
	})
	p := store.PredictionRecord{
		Key: rec.Key, Label: label, At: t, Latency: t - rec.UpdatedAt, Votes: v.votes,
		FlowSeq: rec.Updates - 1, Stage: v.stage, Truth: rec.Truth, AttackType: rec.AttackType,
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
	l.met.stageVote.ObserveDuration(time.Since(time.Unix(0, int64(t))))

	// The one record the decision leaves behind: Decisions and every
	// checkpoint read it back from the store's log.
	l.DB.AppendPrediction(p)
	if cb := l.OnDecision; cb != nil {
		cb(d)
	}
	l.jComplete(rec.Key, rec.Updates)
	l.Predictions.Add(1)
}
