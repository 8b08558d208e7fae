package core

import "github.com/amlight/intddos/internal/flow"

// onEvict is the flow table's eviction hook: when Sweep removes a
// flow, its database record and vote window go with it — exact,
// single-pass eviction instead of the old two-pass scan, which left
// store rows behind for flows created between the scan and the sweep
// and let the store grow without bound under spoofed-source floods.
// Runs under the evicting table shard's lock; it takes only the store
// and window locks (table → store, table → window — no path takes
// those locks and then the table's, so the order is acyclic).
func (l *Live) onEvict(key flow.Key) {
	l.DB.DeleteFlow(key)
	l.dropWindow(l.shards[key.Shard(l.nShards)], key)
}

// dropWindow deletes a flow's vote window, marking the removal for the
// next delta checkpoint.
func (l *Live) dropWindow(sh *liveShard, key flow.Key) {
	sh.mu.Lock()
	if _, ok := sh.windows[key]; ok {
		delete(sh.windows, key)
		if l.deltaTrack {
			sh.removed[key] = struct{}{}
			delete(sh.dirty, key)
		}
	}
	sh.mu.Unlock()
}

// sweep evicts flows idle past FlowIdleTimeout. The table sweep fires
// onEvict per eviction, which removes the database record and vote
// window in the same pass; a safety pass then clears orphaned windows
// (a late decision can re-create a window after its flow was swept).
func (l *Live) sweep() {
	// Checkpoint barrier: sweeps mutate all three stores at once and
	// must not interleave with a capture, so every shard's barrier is
	// held for read — in ascending order, the same order a capture
	// takes the write side.
	for s := range l.ckptMu {
		l.ckptMu[s].RLock()
	}
	defer func() {
		for s := range l.ckptMu {
			l.ckptMu[s].RUnlock()
		}
	}()
	evicted := l.tables.Sweep(now())
	// Orphan pass: collect keys under the window lock, probe the table
	// without holding it (the eviction hook locks window under table;
	// nesting the other way here would deadlock).
	for _, sh := range l.shards {
		sh.mu.Lock()
		keys := make([]flow.Key, 0, len(sh.windows))
		for key := range sh.windows {
			keys = append(keys, key)
		}
		sh.mu.Unlock()
		for _, key := range keys {
			if !l.tables.Get(key, nil) {
				l.dropWindow(sh, key)
			}
		}
	}
	l.Evictions.Add(int64(evicted))
	l.met.evictions.Add(int64(evicted))
	if evicted > 0 {
		l.event("flows evicted", "component", "sweep", "evicted", evicted)
	}
}
