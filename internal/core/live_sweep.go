package core

import "github.com/amlight/intddos/internal/flow"

// onEvict is the flow table's eviction hook: when Sweep removes a
// flow, its database record and vote window go with it — exact,
// single-pass eviction instead of the old two-pass scan, which left
// store rows behind for flows created between the scan and the sweep
// and let the store grow without bound under spoofed-source floods.
// Runs under the evicting table shard's lock, within the sweeper's
// hold of the shard's run lock (run → table → store, the order every
// pass takes them).
func (l *Live) onEvict(key flow.Key) {
	l.DB.DeleteFlow(key)
	l.dropWindow(l.shards[key.Shard(l.nShards)], key)
}

// dropWindow deletes a flow's vote window, marking the removal for the
// next delta checkpoint. Callers hold the shard's run lock.
func (l *Live) dropWindow(sh *liveShard, key flow.Key) {
	if _, ok := sh.windows[key]; ok {
		delete(sh.windows, key)
		if l.deltaTrack {
			sh.removed[key] = struct{}{}
			delete(sh.dirty, key)
		}
	}
}

// sweep evicts flows idle past FlowIdleTimeout, one shard at a time,
// each under its barrier's read side (sweeps mutate all three stores at
// once and must not interleave with a capture) and its run lock. The
// table sweep fires onEvict per eviction, which removes the database
// record and vote window in the same pass; an orphan pass then clears
// windows whose flow is gone (a journal tail decided after its flow
// was swept re-creates one).
func (l *Live) sweep() {
	evicted := 0
	for s, sh := range l.shards {
		l.ckptMu[s].RLock()
		sh.run.Lock()
		evicted += l.tables.SweepShard(s, now())
		for key := range sh.windows {
			if !l.tables.Get(key, nil) {
				l.dropWindow(sh, key)
			}
		}
		sh.run.Unlock()
		l.ckptMu[s].RUnlock()
	}
	l.Evictions.Add(int64(evicted))
	l.met.evictions.Add(int64(evicted))
	if evicted > 0 {
		l.event("flows evicted", "component", "sweep", "evicted", evicted)
	}
}
