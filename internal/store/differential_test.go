// Differential tests: drive the legacy single-lock DB and a ShardedDB
// with the same randomized, interleaved operation sequence and assert
// the two are observably identical — same flow creations, same
// per-flow journal semantics, same prediction log. This is the
// contract that makes sharding a deployment substitution rather than
// a semantic change to the paper's mechanism.
package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"github.com/amlight/intddos/internal/flow"
	"github.com/amlight/intddos/internal/netsim"
)

// diffHarness holds one store plus the polling state a CentralServer
// would keep for it: one cursor per shard.
type diffHarness struct {
	db      Store
	cursors []uint64
	polled  map[flow.Key][]FlowRecord // journal entries seen, per flow
	created []bool                    // UpsertFlow's answers, in call order
}

func newDiffHarness(db Store) *diffHarness {
	return &diffHarness{
		db:      db,
		cursors: make([]uint64, shardCount(db)),
		polled:  make(map[flow.Key][]FlowRecord),
	}
}

// pollAll drains every shard's journal into the per-flow history.
func (h *diffHarness) pollAll(batch int, trim bool) {
	for s := 0; s < shardCount(h.db); s++ {
		for {
			recs, cur := h.db.PollShard(s, h.cursors[s], batch)
			if len(recs) == 0 {
				if trim {
					// Entries consumed by earlier no-trim polls still
					// occupy the journal until trimmed to the cursor.
					h.db.TrimShard(s, h.cursors[s])
				}
				break
			}
			for _, r := range recs {
				h.polled[r.Key] = append(h.polled[r.Key], r)
			}
			h.cursors[s] = cur
			if trim {
				h.db.TrimShard(s, cur)
			}
		}
	}
}

// upsert writes one snapshot and records whether it created the flow.
func (h *diffHarness) upsert(rng *rand.Rand, key flow.Key, step int) {
	feats := []float64{float64(step), float64(rng.Intn(100))}
	h.created = append(h.created, h.db.UpsertFlow(key, feats, netsim.Time(step), netsim.Time(step+1),
		step, step%3 == 0, "synflood"))
}

// applyOp runs one deterministic operation against a store.
func applyOp(rng *rand.Rand, h *diffHarness, keys []flow.Key, step int) {
	key := keys[rng.Intn(len(keys))]
	switch op := rng.Intn(10); {
	case op < 6: // upsert dominates, like the real ingest path
		h.upsert(rng, key, step)
	case op < 8: // poll a partial batch without trimming
		h.pollAll(1+rng.Intn(4), false)
	case op < 9: // poll and trim
		h.pollAll(1+rng.Intn(4), true)
	default:
		h.db.DeleteFlow(key)
	}
}

// applyLogOp runs one deterministic operation against a store driven
// as a decision log is: prediction appends among the ingest writes,
// polls of every shard and deletes.
func applyLogOp(rng *rand.Rand, h *diffHarness, keys []flow.Key, step int) {
	key := keys[rng.Intn(len(keys))]
	switch op := rng.Intn(10); {
	case op < 5:
		h.upsert(rng, key, step)
	case op < 7: // poll every shard without trim
		h.pollAll(1+rng.Intn(4), false)
	case op < 8: // poll every shard and trim
		h.pollAll(1+rng.Intn(4), true)
	case op < 9: // log a decision
		h.db.AppendPrediction(PredictionRecord{
			Key: key, Label: rng.Intn(2), At: netsim.Time(step),
			Latency: netsim.Time(rng.Intn(500)), Votes: []int{rng.Intn(2), rng.Intn(2)},
			Truth: step%3 == 0, AttackType: "synflood",
		})
	default:
		h.db.DeleteFlow(key)
	}
}

// replay runs steps operations from seed into a legacy DB and a
// ShardedDB of the given width, drains both journals, and returns the
// two harnesses.
func replay(shards int, seed int64, op func(*rand.Rand, *diffHarness, []flow.Key, int)) (legacy, sharded *diffHarness, keys []flow.Key) {
	keys = make([]flow.Key, 13)
	for i := range keys {
		keys[i] = testKey(i)
	}
	legacy = newDiffHarness(New())
	sharded = newDiffHarness(NewSharded(shards))
	// Two independent RNGs with the same seed: each harness consumes
	// randomness identically.
	rngA := rand.New(rand.NewSource(seed))
	rngB := rand.New(rand.NewSource(seed))
	for step := 0; step < 2000; step++ {
		op(rngA, legacy, keys, step)
		op(rngB, sharded, keys, step)
	}
	legacy.pollAll(64, true)
	sharded.pollAll(64, true)
	return legacy, sharded, keys
}

// TestDifferentialShardedVsLegacy replays identical operation
// sequences into a legacy DB and ShardedDBs of several widths.
func TestDifferentialShardedVsLegacy(t *testing.T) {
	for _, shards := range []int{1, 2, 8} {
		for seed := int64(0); seed < 4; seed++ {
			t.Run(fmt.Sprintf("shards=%d/seed=%d", shards, seed), func(t *testing.T) {
				legacy, sharded, keys := replay(shards, seed, applyOp)
				assertStoresEqual(t, legacy, sharded, keys)
			})
		}
	}
}

// TestDifferentialGlobalPollAndPredictions replays identical
// sequences of upserts, polls of the whole store, prediction appends,
// and deletes into a legacy DB and ShardedDBs of several widths: what
// the polls saw must agree flow by flow, and the merged prediction log
// must be identical element for element — cross-flow order included.
// This is the store-level contract behind a decision log that reads
// the same at every shard count.
func TestDifferentialGlobalPollAndPredictions(t *testing.T) {
	for _, shards := range []int{1, 2, 8} {
		for seed := int64(0); seed < 4; seed++ {
			t.Run(fmt.Sprintf("shards=%d/seed=%d", shards, seed), func(t *testing.T) {
				legacy, sharded, keys := replay(shards, seed, applyLogOp)
				assertStoresEqual(t, legacy, sharded, keys)
				if !reflect.DeepEqual(logged(legacy.db), logged(sharded.db)) {
					t.Errorf("prediction logs differ (%d vs %d records)",
						sharded.db.PredictionCount(), legacy.db.PredictionCount())
				}
			})
		}
	}
}

// assertStoresEqual compares every observable surface of two stores.
func assertStoresEqual(t *testing.T, want, got *diffHarness, keys []flow.Key) {
	t.Helper()
	if !reflect.DeepEqual(want.created, got.created) {
		t.Errorf("UpsertFlow created flows at different calls")
	}
	if want.db.JournalLen() != got.db.JournalLen() {
		t.Errorf("JournalLen after drain: legacy %d, sharded %d",
			want.db.JournalLen(), got.db.JournalLen())
	}
	for _, key := range keys {
		// Journal semantics: the same per-flow update sequence, in the
		// same order, must have been observable through polling.
		wj, gj := projectJournal(want.polled[key]), projectJournal(got.polled[key])
		if !reflect.DeepEqual(wj, gj) {
			t.Errorf("%s: journal sequences differ\nlegacy:  %v\nsharded: %v", key, wj, gj)
		}
	}
}

// projectJournal reduces polled records to the fields the prediction
// path consumes, dropping cross-flow ordering artifacts. Version
// numbers are per-shard bookkeeping and stay out.
func projectJournal(recs []FlowRecord) []string {
	out := make([]string, 0, len(recs))
	for _, r := range recs {
		out = append(out, fmt.Sprintf("reg=%v u=%d t=%v feat=%v truth=%v", r.RegisteredAt, r.Updates, r.UpdatedAt, r.Features, r.Truth))
	}
	return out
}

// TestDifferentialConcurrent hammers both stores with concurrent
// writers and per-shard pollers under the race detector, then checks
// that per-flow journal order survived. Cross-flow order is
// unspecified under concurrency; per-flow order is the invariant the
// vote window needs.
func TestDifferentialConcurrent(t *testing.T) {
	for _, db := range []Store{New(), NewSharded(8)} {
		db := db
		t.Run(fmt.Sprintf("shards=%d", shardCount(db)), func(t *testing.T) {
			const writers, perWriter, flows = 8, 500, 16
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					// Each writer owns two flows so per-flow updates are
					// strictly ordered at the source.
					for i := 0; i < perWriter; i++ {
						key := testKey(w*2 + i%2)
						db.UpsertFlow(key, []float64{float64(i)}, 0, netsim.Time(i), i, false, "")
					}
				}(w)
			}
			// Concurrent per-shard pollers drain while writes happen.
			history := make(chan FlowRecord, writers*perWriter)
			var pollWg sync.WaitGroup
			stop := make(chan struct{})
			for s := 0; s < shardCount(db); s++ {
				pollWg.Add(1)
				go func(s int) {
					defer pollWg.Done()
					cursor := uint64(0)
					for {
						recs, cur := db.PollShard(s, cursor, 32)
						for _, r := range recs {
							history <- r
						}
						if cur != cursor {
							cursor = cur
							db.TrimShard(s, cursor)
							continue
						}
						select {
						case <-stop:
							// One final drain after writers finished.
							recs, cur = db.PollShard(s, cursor, 1<<20)
							for _, r := range recs {
								history <- r
							}
							return
						default:
						}
					}
				}(s)
			}
			wg.Wait()
			close(stop)
			pollWg.Wait()
			close(history)

			perFlow := make(map[flow.Key][]int)
			for r := range history {
				perFlow[r.Key] = append(perFlow[r.Key], r.Updates)
			}
			if len(perFlow) != flows {
				t.Fatalf("saw %d flows, want %d", len(perFlow), flows)
			}
			for key, seq := range perFlow {
				for i := 1; i < len(seq); i++ {
					if seq[i] <= seq[i-1] {
						t.Fatalf("%s: journal order violated at %d: %v", key, i, seq)
					}
				}
			}
		})
	}
}
