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
// flows on different shards never contend. A key is hashed once per
// call: the one value picks the stripe and probes its index.
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
	// shard's mutex already held; onEvict, when set, runs for every
	// record a sweep removes, under the evicting shard's lock. Set both
	// before concurrent use begins (SetContentionHook, SetOnEvict).
	onContention func()
	onEvict      func(Key)
}

// SetContentionHook installs fn as the table's contention callback.
// Not safe to call concurrently with ObserveFunc.
func (t *ShardedTable) SetContentionHook(fn func()) { t.onContention = fn }

type tableShard struct {
	mu    sync.Mutex
	table *Table

	// Delta-checkpoint bookkeeping, maintained only while tracking is
	// on (SetDeltaTracking): keys written — observed or voted — since
	// the last export, and keys evicted since the last export. A key
	// lives in at most one set — the last action wins — so an
	// incremental capture exports exactly the difference against its
	// parent snapshot.
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

// SetOnEvict installs fn as the table's eviction hook. fn runs under
// the evicting shard's lock and must not call back into the table.
// Not safe to call concurrently with a sweep.
func (t *ShardedTable) SetOnEvict(fn func(Key)) { t.onEvict = fn }

// shardOf packs k and returns it, its hash and its stripe.
func (t *ShardedTable) shardOf(k Key) (slotKey, uint64, *tableShard) {
	pk := packKey(k)
	h := pk.hash()
	return pk, h, &t.shards[h%uint64(len(t.shards))]
}

// ExportShardInto snapshots every record on one shard for
// checkpointing, reusing dst's backing array when its capacity
// suffices. The checkpoint writer passes the previous capture's
// (already encoded, now dead) export back in, so a steady-state capture
// appends into warm memory instead of allocating — and zeroing —
// hundreds of megabytes inside the barrier. Callers must ensure nothing
// else still reads dst. window, when set, is called with every exported
// record's key and vote window (empty when it has none) under the shard
// lock; it must copy what it keeps. Out-of-range shards yield nil. With
// delta tracking on, a full export resets the shard's dirty/removed
// marks — it is the new base an incremental export diffs against.
func (t *ShardedTable) ExportShardInto(shard int, dst []StateSnapshot, window func(Key, []int)) []StateSnapshot {
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
	votes := make([]int, 0, MaxVoteWindow)
	s.table.Range(func(st *State) bool {
		out = append(out, st.Snapshot())
		if window != nil {
			window(out[len(out)-1].Key, st.Window.AppendTo(votes[:0]))
		}
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
// window, when set, sees each exported record's vote window as in
// ExportShardInto. Requires SetDeltaTracking(true); out-of-range shards
// yield nil.
func (t *ShardedTable) ExportShardDelta(shard int, window func(Key, []int)) (states []StateSnapshot, removed []Key) {
	if shard < 0 || shard >= len(t.shards) {
		return nil, nil
	}
	s := &t.shards[shard]
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.dirty) > 0 {
		states = make([]StateSnapshot, 0, len(s.dirty))
		votes := make([]int, 0, MaxVoteWindow)
		for k := range s.dirty {
			if st := s.table.Get(k); st != nil {
				states = append(states, st.Snapshot())
				if window != nil {
					window(k, st.Window.AppendTo(votes[:0]))
				}
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

// checkShard validates a restore against the shard hash: a snapshot
// taken at a different shard count must fail loud, not scatter flows
// onto the wrong stripes.
func (t *ShardedTable) checkShard(shard int, states []StateSnapshot, removed []Key) error {
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
	return nil
}

// RestoreShard inserts restored records, without vote windows, into
// one shard. Records whose key does not hash onto the shard are
// rejected.
func (t *ShardedTable) RestoreShard(shard int, states []StateSnapshot) error {
	if err := t.checkShard(shard, states, nil); err != nil {
		return err
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
// interval survive the replay. An upsert replaces a record's counters
// and keeps its vote window: a delta names window changes apart
// (RestoreWindow). Keys are validated against the shard hash exactly
// like RestoreShard.
func (t *ShardedTable) RestoreShardDelta(shard int, states []StateSnapshot, removed []Key) error {
	if err := t.checkShard(shard, states, removed); err != nil {
		return err
	}
	s := &t.shards[shard]
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, k := range removed {
		s.table.Delete(k)
	}
	for _, sn := range states {
		s.table.insert(RestoreState(sn), true)
	}
	return nil
}

// RestoreWindow sets k's vote window to votes — nil clears it — and
// reports whether k has a record: a window whose flow is absent is
// dropped. A vote other than 0 or 1, or more than MaxVoteWindow of
// them, fails it, naming the flow. It is the restore path's
// counterpart to Vote and marks nothing dirty.
func (t *ShardedTable) RestoreWindow(k Key, votes []int) (bool, error) {
	w, err := WindowOf(votes)
	if err != nil {
		return false, fmt.Errorf("flow: vote window of %s: %w", k, err)
	}
	pk, h, s := t.shardOf(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.table.lookup(&pk, h)
	if st == nil {
		return false, nil
	}
	st.Window = w
	return true, nil
}

// ObserveFunc folds one observation into its flow's shard and invokes
// fn, when set, on the updated record while the shard lock is held, so
// fn can extract features without racing other writers. fn must not
// block, call back into the table or keep the *State. It reports
// whether the record was created.
func (t *ShardedTable) ObserveFunc(pi PacketInfo, fn func(*State)) (created bool) {
	pk, h, s := t.shardOf(pi.Key)
	if !s.mu.TryLock() {
		if t.onContention != nil {
			t.onContention()
		}
		s.mu.Lock()
	}
	defer s.mu.Unlock()
	st, created := s.table.observe(pi, &pk, h)
	if t.track {
		s.dirty[pi.Key] = struct{}{}
		delete(s.removed, pi.Key)
	}
	if fn != nil {
		fn(st)
	}
	return created
}

// Vote slides k's vote window over raw under the shard lock (see
// Table.Vote) and returns the smoothed label. When the record exists
// it is marked dirty: a window voted after a capture — a journal tail
// decided late — must reach the next delta export.
func (t *ShardedTable) Vote(k Key, raw, n int) int {
	pk, h, s := t.shardOf(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	label, kept := s.table.vote(&pk, h, raw, n)
	if kept && t.track {
		s.dirty[k] = struct{}{}
	}
	return label
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
// removed. With delta tracking on, each eviction is marked for the
// next delta export — a removal the export missed would let a restored
// chain resurrect the flow — and then reported to the eviction hook.
func (t *ShardedTable) SweepShard(shard int, now netsim.Time) int {
	s := &t.shards[shard]
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.table.sweep(now, func(k Key) {
		if t.track {
			s.removed[k] = struct{}{}
			delete(s.dirty, k)
		}
		if t.onEvict != nil {
			t.onEvict(k)
		}
	})
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
