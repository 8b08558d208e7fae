package flow

import (
	"net/netip"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/amlight/intddos/internal/netsim"
)

func shardKey(i int) Key {
	return Key{
		Src:     netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)}),
		Dst:     netip.AddrFrom4([4]byte{192, 168, 0, 1}),
		SrcPort: uint16(1024 + i),
		DstPort: 80,
		Proto:   netsim.TCP,
	}
}

func TestKeyHashStableAndSpread(t *testing.T) {
	k := shardKey(7)
	if k.Hash() != k.Hash() {
		t.Fatal("hash not deterministic")
	}
	if k.Shard(1) != 0 {
		t.Fatal("single-shard mapping must be 0")
	}
	// Distinct tuples should spread: over 4096 keys and 8 shards, no
	// shard should be empty and none should hold the vast majority.
	const keys, shards = 4096, 8
	counts := make([]int, shards)
	for i := 0; i < keys; i++ {
		counts[shardKey(i).Shard(shards)]++
	}
	for s, n := range counts {
		if n == 0 {
			t.Errorf("shard %d empty", s)
		}
		if n > keys/2 {
			t.Errorf("shard %d holds %d of %d keys", s, n, keys)
		}
	}
}

// TestShardedTableMatchesTable drives the same observation stream
// through a plain Table and a ShardedTable and compares the visible
// per-flow state.
func TestShardedTableMatchesTable(t *testing.T) {
	for _, shards := range []int{1, 4} {
		plain := NewTable()
		sharded := NewShardedTable(shards)
		for i := 0; i < 500; i++ {
			pi := PacketInfo{
				Key:    shardKey(i % 17),
				Length: 100 + i%7,
				At:     netsim.Time(i) * netsim.Millisecond,
			}
			plain.Observe(pi)
			sharded.ObserveFunc(pi, nil)
		}
		if plain.Len() != sharded.Len() {
			t.Fatalf("shards=%d: len %d != %d", shards, sharded.Len(), plain.Len())
		}
		plain.Range(func(want *State) bool {
			got, found := stateOf(sharded, want.Key())
			if !found {
				t.Errorf("shards=%d: flow %s missing", shards, want.Key())
			} else if got != *want {
				t.Errorf("shards=%d: state mismatch for %s", shards, want.Key())
			}
			return true
		})
	}
}

func TestShardedTableSweep(t *testing.T) {
	st := NewShardedTable(4)
	st.SetIdleTimeout(10 * netsim.Millisecond)
	for i := 0; i < 32; i++ {
		st.ObserveFunc(PacketInfo{Key: shardKey(i), Length: 64, At: netsim.Time(i % 2)}, nil)
	}
	if got := st.Sweep(netsim.Second); got != 32 {
		t.Fatalf("swept %d, want 32", got)
	}
	if st.Len() != 0 {
		t.Fatalf("len after sweep = %d", st.Len())
	}
}

// TestShardedTableDeltaRecordsSweepWithoutHook: with delta tracking on
// and no eviction hook installed, a sweep's evictions still reach the
// next delta export as removals — otherwise a restored chain would
// bring the swept flows back.
func TestShardedTableDeltaRecordsSweepWithoutHook(t *testing.T) {
	st := NewShardedTable(1)
	st.SetDeltaTracking(true)
	st.SetIdleTimeout(10 * netsim.Millisecond)
	k := shardKey(1)
	st.ObserveFunc(PacketInfo{Key: k, Length: 64, At: 0}, nil)
	st.ExportShardInto(0, nil, nil) // the base the delta diffs against
	if got := st.Sweep(netsim.Second); got != 1 {
		t.Fatalf("swept %d, want 1", got)
	}
	states, removed := st.ExportShardDelta(0, nil)
	if len(states) != 0 || len(removed) != 1 || removed[0] != k {
		t.Fatalf("delta after sweep: states=%d removed=%v, want the swept key", len(states), removed)
	}
}

// TestShardedTableVoteWindow pins the vote window's life on the entry:
// Vote keeps the slid window and marks the entry for the next delta; a
// vote for a flow with no entry is voted over a fresh window and keeps
// nothing; a delta's table record keeps the restored window, and
// RestoreWindow drops a window whose flow is absent.
func TestShardedTableVoteWindow(t *testing.T) {
	st := NewShardedTable(2)
	st.SetDeltaTracking(true)
	k, gone := shardKey(1), shardKey(2)
	st.ObserveFunc(PacketInfo{Key: k, Length: 64, At: 1}, nil)
	st.ExportShardInto(k.Shard(2), nil, nil)
	if st.Vote(k, 1, 3) != 1 || st.Vote(k, 0, 3) != 0 {
		t.Fatal("votes 1, 0 over a kept window: want labels 1, 0")
	}
	// A fresh window for each vote: two attack votes never add up.
	if st.Vote(gone, 1, 3) != 1 || st.Vote(gone, 0, 3) != 0 {
		t.Fatal("votes for an absent flow: want each over a fresh window")
	}
	if _, ok := stateOf(st, gone); ok || st.Len() != 1 {
		t.Fatalf("vote for an absent flow created a record: table len %d", st.Len())
	}
	wins := map[Key][]int{}
	keep := func(key Key, w []int) { wins[key] = append([]int(nil), w...) }
	states, _ := st.ExportShardDelta(k.Shard(2), keep)
	if len(states) != 1 || !reflect.DeepEqual(wins[k], []int{1, 0}) {
		t.Fatalf("voted-only delta: %d states, windows %v", len(states), wins)
	}

	dst := NewShardedTable(2)
	if err := dst.RestoreShard(k.Shard(2), states); err != nil {
		t.Fatal(err)
	}
	kept, err := dst.RestoreWindow(k, wins[k])
	dropped, err2 := dst.RestoreWindow(gone, []int{1})
	if !kept || dropped || err != nil || err2 != nil {
		t.Fatal("RestoreWindow: want the present flow kept, the absent one dropped")
	}
	if err := dst.RestoreShardDelta(k.Shard(2), states, nil); err != nil {
		t.Fatal(err)
	}
	got, _ := stateOf(dst, k)
	if w := got.Window.AppendTo(nil); !reflect.DeepEqual(w, []int{1, 0}) {
		t.Fatalf("window after a delta's table record = %v, want it kept", w)
	}
	for _, bad := range [][]int{{1, 7}, make([]int, MaxVoteWindow+1)} {
		if _, err := dst.RestoreWindow(k, bad); err == nil || !strings.Contains(err.Error(), k.String()) {
			t.Errorf("RestoreWindow(%d votes) = %v, want an error naming %s", len(bad), err, k)
		}
	}
	if got, _ := stateOf(dst, k); got.Window.Len() != 2 {
		t.Errorf("a refused window replaced the record's: %v", got.Window.AppendTo(nil))
	}
}

// stateOf copies k's record out of the table, reporting whether it has
// one.
func stateOf(t *ShardedTable, k Key) (State, bool) {
	var out State
	found := false
	t.Range(func(st *State) bool {
		if st.Key() == k {
			out, found = *st, true
		}
		return !found
	})
	return out, found
}

// TestShardedTableConcurrent exercises cross-shard writers under the
// race detector, including the ObserveFunc feature-extraction path.
func TestShardedTableConcurrent(t *testing.T) {
	st := NewShardedTable(8)
	set := INTFeatures()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]float64, 0, len(set))
			for i := 0; i < 200; i++ {
				pi := PacketInfo{Key: shardKey(w*200 + i%50), Length: 64, At: netsim.Time(i)}
				st.ObserveFunc(pi, func(s *State) { buf = s.Features(buf[:0], set) })
			}
		}(w)
	}
	wg.Wait()
	if st.Len() == 0 {
		t.Fatal("no flows recorded")
	}
}
