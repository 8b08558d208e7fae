package core

import (
	"strconv"
	"time"

	"github.com/amlight/intddos/internal/store"
)

// shardPoller is one shard's CentralServer: it polls the shard's
// journal through a private cursor and feeds the shard's worker,
// shedding when the worker queue is full and retrying transient
// store errors. Pollers of different shards share no locks.
func (l *Live) shardPoller(shard int) {
	defer l.pollWg.Done()
	// The static round-robin shard→worker assignment is what gives
	// workers shard affinity: one flow is always predicted by one worker.
	ch := l.workerChs[shard%len(l.workerChs)]
	polledC := l.met.shardPolled.With(strconv.Itoa(shard))
	ticker := time.NewTicker(l.cfg.PollInterval)
	defer ticker.Stop()
	var cursor uint64
	for {
		select {
		case <-l.quit:
			return
		case <-ticker.C:
			// Checkpoint barrier: while a capture is in progress no new
			// records are polled or handed off, so in-flight work can
			// only drain. Each poller takes only its own shard's lock.
			l.ckptMu[shard].RLock()
			recs, cur, ok := l.pollOnce(shard, cursor)
			l.met.polls.Inc()
			if !ok {
				// Transient poll failure: the cursor is unchanged, so
				// the same entries come back at the next tick.
				l.ckptMu[shard].RUnlock()
				l.reassessHealth()
				continue
			}
			cursor = cur
			polled := time.Now()
			for _, rec := range recs {
				l.Polled.Add(1)
				l.met.polledRecs.Inc()
				polledC.Inc()
				// Journal wait: snapshot write → this poll.
				updated := time.Unix(0, int64(rec.UpdatedAt))
				l.met.stageJournal.ObserveDuration(polled.Sub(updated))
				l.jHop(rec.Key, rec.Updates, "poll")
				tr := l.tracer.Sample(rec.Key.String())
				tr.StageAt("journal_wait", updated, polled)
				select {
				case ch <- queued{rec: rec, enqueuedAt: polled, tr: tr}:
				default:
					l.Shed.Add(1)
					l.met.shed.Inc()
					l.taintKey(rec.Key)
					l.jAbort(rec.Key, rec.Updates, "shed")
					l.noteShedding("worker queue full")
				}
			}
			l.ckptMu[shard].RUnlock()
			l.reassessHealth()
		}
	}
}

// pollOnce polls one shard's journal, retrying transient store errors
// with backoff inside the tick. On persistent failure it reports !ok
// and the poller retries at the next tick — the cursor only advances
// on success, so no journal entry is ever skipped.
func (l *Live) pollOnce(shard int, cursor uint64) ([]store.FlowRecord, uint64, bool) {
	if l.fdb == nil {
		recs, cur := l.DB.PollShard(shard, cursor, l.cfg.PollBatch)
		l.DB.TrimShard(shard, cur)
		return recs, cur, true
	}
	backoff := l.cfg.StoreRetryBackoff
	for attempt := 0; ; attempt++ {
		recs, cur, err := l.fdb.TryPollShard(shard, cursor, l.cfg.PollBatch)
		if err == nil {
			l.DB.TrimShard(shard, cur)
			return recs, cur, true
		}
		l.StoreRetries.Add(1)
		l.met.storeRetries.Inc()
		l.noteDegraded("store poll retry")
		if attempt >= l.cfg.StoreRetries || !l.sleepQuit(backoff) {
			return nil, cursor, false
		}
		backoff *= 2
	}
}
