// Property tests for the merge-on-read prediction log: per-shard logs
// stamped from a shared counter must merge back into exactly the one
// total order a single shared log would have recorded — strictly
// increasing Seq, no duplicates, no losses, per-writer program order
// intact — under sequential replay and under concurrent appenders
// with the race detector watching.
package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"github.com/amlight/intddos/internal/netsim"
)

// TestMergeCursorReconstructsTotalOrder partitions a known global
// sequence 1..n into k Seq-sorted logs at random and requires the
// cursor to emit exactly 1..n again: the merge is the inverse of any
// order-preserving partition.
func TestMergeCursorReconstructsTotalOrder(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(400)
		k := 1 + rng.Intn(9)
		logs := make([][]PredictionRecord, k)
		for seq := uint64(1); seq <= uint64(n); seq++ {
			i := rng.Intn(k)
			logs[i] = append(logs[i], PredictionRecord{Seq: seq, Label: int(seq % 2)})
		}
		c := newMergeCursor(packedLogs(t, logs), 0)
		if got := c.Remaining(); got != n {
			t.Fatalf("seed %d: Remaining = %d, want %d", seed, got, n)
		}
		for want := uint64(1); want <= uint64(n); want++ {
			rec, ok := c.Next()
			if !ok {
				t.Fatalf("seed %d: cursor dry at %d of %d", seed, want, n)
			}
			if rec.Seq != want {
				t.Fatalf("seed %d: merged Seq %d, want %d", seed, rec.Seq, want)
			}
		}
		if _, ok := c.Next(); ok {
			t.Fatalf("seed %d: cursor yielded past the end", seed)
		}
		if got := c.Remaining(); got != 0 {
			t.Fatalf("seed %d: Remaining after drain = %d", seed, got)
		}
	}
}

// TestMergedPredictionsLinearize is the concurrent half of the
// contract: W appenders hammer a ShardedDB over keys spanning every
// shard, and the merged log must be a linearization — gapless strictly
// increasing Seq covering every append exactly once, with each
// appender's program order preserved. Runs under -race in make check.
func TestMergedPredictionsLinearize(t *testing.T) {
	for _, nShards := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", nShards), func(t *testing.T) {
			const writers, perWriter = 8, 400
			db := NewSharded(nShards)
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(1000*nShards + w)))
					for i := 0; i < perWriter; i++ {
						db.AppendPrediction(PredictionRecord{
							Key:   testKey(rng.Intn(4 * nShards)),
							Label: w,
							At:    netsim.Time(i),
						})
					}
				}(w)
			}
			wg.Wait()

			merged := logged(db)
			if len(merged) != writers*perWriter {
				t.Fatalf("merged log holds %d records, want %d", len(merged), writers*perWriter)
			}
			// Gapless strictly increasing stamps: every append got a
			// unique Seq and none went missing.
			seen := make(map[[2]int]bool, len(merged))
			lastPerWriter := make([]netsim.Time, writers)
			for i := range lastPerWriter {
				lastPerWriter[i] = -1
			}
			for i, p := range merged {
				if want := uint64(i + 1); p.Seq != want {
					t.Fatalf("merged[%d].Seq = %d, want %d (total order broken)", i, p.Seq, want)
				}
				id := [2]int{p.Label, int(p.At)}
				if seen[id] {
					t.Fatalf("record writer=%d i=%d merged twice", p.Label, p.At)
				}
				seen[id] = true
				// Program order: writer p.Label appended At=0,1,2,... each
				// append completing before the next began, so the merged
				// stream must keep that subsequence in order.
				if p.At <= lastPerWriter[p.Label] {
					t.Fatalf("writer %d: append %d merged before %d", p.Label, lastPerWriter[p.Label], p.At)
				}
				lastPerWriter[p.Label] = p.At
			}
			// Every per-shard log the merge read is itself Seq-sorted.
			for s := 0; s < nShards; s++ {
				log := logged(db.shards[s])
				for i := 1; i < len(log); i++ {
					if log[i].Seq <= log[i-1].Seq {
						t.Fatalf("shard %d log not Seq-sorted at %d", s, i)
					}
				}
			}
		})
	}
}

// TestMergedPredictionsMatchSingleLogOracle replays one deterministic
// append sequence into the legacy single-log DB and into ShardedDBs
// of several widths: the sharded stores' merged logs must equal the
// legacy log element for element — the single shared log is the
// oracle the merge-on-read view is checked against.
func TestMergedPredictionsMatchSingleLogOracle(t *testing.T) {
	appends := func(db Store, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 1500; i++ {
			db.AppendPrediction(PredictionRecord{
				Key:        testKey(rng.Intn(17)),
				Label:      rng.Intn(2),
				At:         netsim.Time(i),
				Latency:    netsim.Time(rng.Intn(1000)),
				Votes:      []int{rng.Intn(2), rng.Intn(2), rng.Intn(2)},
				Truth:      rng.Intn(2) == 0,
				AttackType: fmt.Sprintf("type%d", rng.Intn(3)),
			})
		}
	}
	for seed := int64(0); seed < 3; seed++ {
		oracle := New()
		appends(oracle, seed)
		want := logged(oracle)
		for _, nShards := range []int{1, 2, 8} {
			sharded := NewSharded(nShards)
			appends(sharded, seed)
			got := logged(sharded)
			if !reflect.DeepEqual(want, got) {
				t.Errorf("seed %d shards %d: merged log diverged from single-log oracle (%d vs %d records)",
					seed, nShards, len(got), len(want))
			}
			if got := sharded.PredictionCount(); got != len(want) {
				t.Errorf("seed %d shards %d: PredictionCount = %d, want %d", seed, nShards, got, len(want))
			}
		}
	}
}

// logged reads db's whole prediction log in global decision order.
func logged(db Store) []PredictionRecord {
	return drain(db.(interface {
		PredictionCursor(after uint64) *MergeCursor
	}).PredictionCursor(0))
}

// drain reads the rest of c.
func drain(c *MergeCursor) []PredictionRecord {
	return c.appendTo(make([]PredictionRecord, 0, c.Remaining()))
}

// shardCount is a store's stripe count.
func shardCount(s Store) int {
	if sh, ok := s.(*ShardedDB); ok {
		return len(sh.shards)
	}
	return 1
}
