package flow

import (
	"fmt"
	"sync"

	"github.com/amlight/intddos/internal/netsim"
)

// ShardedTable is a lock-striped flow table: N independent Tables,
// each behind its own mutex, with flows routed by Key.Hash. Unlike
// the plain Table — which relies on its caller for synchronization —
// a ShardedTable is safe for concurrent use, and two observations of
// flows on different shards never contend.
//
// With one shard it degenerates to a mutex around a single Table,
// i.e. exactly the legacy concurrency shape of core.Live.
type ShardedTable struct {
	shards []tableShard

	// track enables per-shard dirty/removed bookkeeping for
	// incremental checkpoints (SetDeltaTracking). Read on the observe
	// hot path; written only before concurrent use begins.
	track bool

	// onContention, when set, runs every time an observation finds its
	// shard's mutex already held. Set it before concurrent use begins
	// (SetContentionHook); core.Live points it at an obs counter.
	onContention func()
}

// SetContentionHook installs fn as the table's contention callback.
// Not safe to call concurrently with Observe.
func (t *ShardedTable) SetContentionHook(fn func()) { t.onContention = fn }

type tableShard struct {
	mu    sync.Mutex
	table *Table

	// Delta-checkpoint bookkeeping, maintained only while tracking is
	// on (SetDeltaTracking): keys written since the last export, and
	// keys evicted since the last export. A key lives in at most one
	// set — the last action wins — so an incremental capture exports
	// exactly the difference against its parent snapshot.
	dirty   map[Key]struct{}
	removed map[Key]struct{}
}

// NewShardedTable builds a striped table with n shards (n < 1 is
// treated as 1).
func NewShardedTable(n int) *ShardedTable {
	if n < 1 {
		n = 1
	}
	st := &ShardedTable{shards: make([]tableShard, n)}
	for i := range st.shards {
		st.shards[i].table = NewTable()
		st.shards[i].dirty = make(map[Key]struct{})
		st.shards[i].removed = make(map[Key]struct{})
	}
	return st
}

// SetDeltaTracking turns per-shard dirty/removed tracking on or off.
// Enable it before concurrent use begins (it is read on the observe
// hot path) and before the state an incremental export should diff
// against is captured; turning it on clears any stale marks.
func (t *ShardedTable) SetDeltaTracking(on bool) {
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		s.dirty = make(map[Key]struct{})
		s.removed = make(map[Key]struct{})
		s.mu.Unlock()
	}
	t.track = on
}

// Shards returns the stripe count.
func (t *ShardedTable) Shards() int { return len(t.shards) }

// SetIdleTimeout configures idle eviction on every shard.
func (t *ShardedTable) SetIdleTimeout(d netsim.Time) {
	for i := range t.shards {
		t.shards[i].mu.Lock()
		t.shards[i].table.IdleTimeout = d
		t.shards[i].mu.Unlock()
	}
}

// SetOnEvict installs fn as every shard's eviction hook. fn runs
// under the evicting shard's lock and must not call back into the
// table. The installed hook also feeds the delta-checkpoint removal
// set: a sweep eviction must reach the next incremental snapshot as a
// removal, or a restored chain would resurrect the flow.
func (t *ShardedTable) SetOnEvict(fn func(Key)) {
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		s.table.OnEvict = func(k Key) {
			if t.track {
				s.removed[k] = struct{}{}
				delete(s.dirty, k)
			}
			if fn != nil {
				fn(k)
			}
		}
		s.mu.Unlock()
	}
}

// ExportShard snapshots every record on one shard for checkpointing.
// Out-of-range shards yield nil. With delta tracking on, a full
// export resets the shard's dirty/removed marks — it is the new base
// an incremental export diffs against.
func (t *ShardedTable) ExportShard(shard int) []StateSnapshot {
	return t.ExportShardInto(shard, nil)
}

// ExportShardInto is ExportShard reusing dst's backing array when its
// capacity suffices. The checkpoint writer passes the previous
// capture's (already encoded, now dead) export back in, so a
// steady-state capture appends into warm memory instead of allocating
// — and zeroing — hundreds of megabytes inside the barrier. Callers
// must ensure nothing else still reads dst.
func (t *ShardedTable) ExportShardInto(shard int, dst []StateSnapshot) []StateSnapshot {
	if shard < 0 || shard >= len(t.shards) {
		return nil
	}
	s := &t.shards[shard]
	s.mu.Lock()
	defer s.mu.Unlock()
	out := dst[:0]
	if cap(out) < s.table.Len() {
		out = make([]StateSnapshot, 0, s.table.Len())
	}
	s.table.Range(func(st *State) bool {
		out = append(out, st.Snapshot())
		return true
	})
	if t.track {
		s.dirty = make(map[Key]struct{})
		s.removed = make(map[Key]struct{})
	}
	return out
}

// ExportShardDelta snapshots only the records written since the
// previous export on one shard, plus the keys evicted since then, and
// resets the marks — the capture side of an incremental checkpoint.
// Requires SetDeltaTracking(true); out-of-range shards yield nil.
func (t *ShardedTable) ExportShardDelta(shard int) (states []StateSnapshot, removed []Key) {
	if shard < 0 || shard >= len(t.shards) {
		return nil, nil
	}
	s := &t.shards[shard]
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.dirty) > 0 {
		states = make([]StateSnapshot, 0, len(s.dirty))
		for k := range s.dirty {
			if st := s.table.Get(k); st != nil {
				states = append(states, st.Snapshot())
			}
		}
	}
	if len(s.removed) > 0 {
		removed = make([]Key, 0, len(s.removed))
		for k := range s.removed {
			removed = append(removed, k)
		}
	}
	s.dirty = make(map[Key]struct{})
	s.removed = make(map[Key]struct{})
	return states, removed
}

// RestoreShard inserts restored records into one shard. Records whose
// key does not hash onto the shard are rejected — a snapshot taken at
// a different shard count must fail loud, not scatter flows onto the
// wrong stripes.
func (t *ShardedTable) RestoreShard(shard int, states []StateSnapshot) error {
	if shard < 0 || shard >= len(t.shards) {
		return fmt.Errorf("flow: restore shard %d out of range (have %d)", shard, len(t.shards))
	}
	for _, sn := range states {
		if got := sn.Key.Shard(len(t.shards)); got != shard {
			return fmt.Errorf("flow: restored record %s hashes to shard %d, not %d (snapshot from a different shard count?)",
				sn.Key, got, shard)
		}
	}
	s := &t.shards[shard]
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sn := range states {
		s.table.Insert(RestoreState(sn))
	}
	return nil
}

// RestoreShardDelta replays one incremental snapshot's changes on top
// of the shard's current state: removals first, then upserts — the
// order that lets a flow evicted and re-created within one delta
// interval survive the replay. Keys are validated against the shard
// hash exactly like RestoreShard.
func (t *ShardedTable) RestoreShardDelta(shard int, states []StateSnapshot, removed []Key) error {
	if shard < 0 || shard >= len(t.shards) {
		return fmt.Errorf("flow: restore shard %d out of range (have %d)", shard, len(t.shards))
	}
	for _, sn := range states {
		if got := sn.Key.Shard(len(t.shards)); got != shard {
			return fmt.Errorf("flow: restored record %s hashes to shard %d, not %d (snapshot from a different shard count?)",
				sn.Key, got, shard)
		}
	}
	for _, k := range removed {
		if got := k.Shard(len(t.shards)); got != shard {
			return fmt.Errorf("flow: removed key %s hashes to shard %d, not %d (snapshot from a different shard count?)",
				k, got, shard)
		}
	}
	s := &t.shards[shard]
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, k := range removed {
		s.table.Delete(k)
	}
	for _, sn := range states {
		s.table.Insert(RestoreState(sn))
	}
	return nil
}

// Observe folds one observation into its flow's shard and reports
// whether the record was created. The *State must not be retained —
// use ObserveFunc to read it safely.
func (t *ShardedTable) Observe(pi PacketInfo) (created bool) {
	_, created = t.observe(pi, nil)
	return created
}

// ObserveFunc folds one observation into its flow's shard and invokes
// fn on the updated record while the shard lock is held, so fn can
// extract features without racing other writers. fn must not block or
// call back into the table.
func (t *ShardedTable) ObserveFunc(pi PacketInfo, fn func(*State)) (created bool) {
	_, created = t.observe(pi, fn)
	return created
}

func (t *ShardedTable) observe(pi PacketInfo, fn func(*State)) (*State, bool) {
	s := &t.shards[pi.Key.Shard(len(t.shards))]
	if !s.mu.TryLock() {
		if t.onContention != nil {
			t.onContention()
		}
		s.mu.Lock()
	}
	defer s.mu.Unlock()
	st, created := s.table.Observe(pi)
	if t.track {
		s.dirty[pi.Key] = struct{}{}
		delete(s.removed, pi.Key)
	}
	if fn != nil {
		fn(st)
	}
	return st, created
}

// Get invokes fn on the record for k under the shard lock and reports
// whether the record exists. fn may be nil for a bare existence check.
func (t *ShardedTable) Get(k Key, fn func(*State)) bool {
	s := &t.shards[k.Shard(len(t.shards))]
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.table.Get(k)
	if st == nil {
		return false
	}
	if fn != nil {
		fn(st)
	}
	return true
}

// Len returns the number of live flow records across all shards.
func (t *ShardedTable) Len() int {
	n := 0
	for i := range t.shards {
		t.shards[i].mu.Lock()
		n += t.shards[i].table.Len()
		t.shards[i].mu.Unlock()
	}
	return n
}

// Created sums per-shard creation counts.
func (t *ShardedTable) Created() int {
	n := 0
	for i := range t.shards {
		t.shards[i].mu.Lock()
		n += t.shards[i].table.Created
		t.shards[i].mu.Unlock()
	}
	return n
}

// Sweep evicts idle records on every shard and returns the total
// removed. Shards are swept one at a time, so writers to other shards
// proceed during the pass.
func (t *ShardedTable) Sweep(now netsim.Time) int {
	n := 0
	for i := range t.shards {
		n += t.SweepShard(i, now)
	}
	return n
}

// SweepShard evicts idle records on one shard and returns how many it
// removed.
func (t *ShardedTable) SweepShard(shard int, now netsim.Time) int {
	s := &t.shards[shard]
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.table.Sweep(now)
}

// Range calls fn for every live record under its shard's lock;
// returning false stops early. fn must not call back into the table.
func (t *ShardedTable) Range(fn func(*State) bool) {
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		stop := false
		s.table.Range(func(st *State) bool {
			if !fn(st) {
				stop = true
				return false
			}
			return true
		})
		s.mu.Unlock()
		if stop {
			return
		}
	}
}
