package store

import (
	"net/netip"
	"strings"
	"testing"

	"github.com/amlight/intddos/internal/flow"
	"github.com/amlight/intddos/internal/netsim"
	"github.com/amlight/intddos/internal/obs"
)

func testKey(i int) flow.Key {
	return flow.Key{
		Src:     netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)}),
		Dst:     netip.AddrFrom4([4]byte{192, 168, 0, 1}),
		SrcPort: uint16(1024 + i),
		DstPort: 80,
		Proto:   netsim.TCP,
	}
}

func TestShardedBasics(t *testing.T) {
	s := NewSharded(4)
	if s.Shards() != 4 {
		t.Fatalf("Shards() = %d", s.Shards())
	}
	for i := 0; i < 64; i++ {
		created := s.UpsertFlow(testKey(i), []float64{float64(i)}, 1, 2, 1, false, "")
		if !created {
			t.Fatalf("flow %d not created", i)
		}
	}
	if s.JournalLen() != 64 {
		t.Fatalf("JournalLen = %d", s.JournalLen())
	}
	// Each shard journals exactly the upserts of the keys routed to it.
	for i, sh := range s.shards {
		want := 0
		for j := 0; j < 64; j++ {
			if testKey(j).Shard(s.Shards()) == i {
				want++
			}
		}
		if got := sh.JournalLen(); got != want {
			t.Fatalf("shard %d journals %d rows, want %d", i, got, want)
		}
	}
	s.DeleteFlow(testKey(3))
	if !s.UpsertFlow(testKey(3), []float64{3}, 1, 2, 1, false, "") {
		t.Fatal("flow 3 survived delete")
	}

	// Poll each shard to exhaustion; union must be every upsert.
	seen := 0
	for sh := 0; sh < s.Shards(); sh++ {
		cursor := uint64(0)
		for {
			recs, cur := s.PollShard(sh, cursor, 10)
			if len(recs) == 0 {
				break
			}
			seen += len(recs)
			cursor = cur
			s.TrimShard(sh, cur)
		}
	}
	if seen != 65 {
		t.Fatalf("polled %d records, want all 65 upserts", seen)
	}
	if s.JournalLen() != 0 {
		t.Fatalf("journal not drained: %d", s.JournalLen())
	}
}

func TestShardedPredictionsGlobalOrder(t *testing.T) {
	s := NewSharded(4)
	for i := 0; i < 10; i++ {
		s.AppendPrediction(PredictionRecord{Key: testKey(i), Label: i % 2})
	}
	preds := s.Predictions()
	if len(preds) != 10 || s.PredictionCount() != 10 {
		t.Fatalf("predictions = %d", len(preds))
	}
	for i, p := range preds {
		if p.Key != testKey(i) {
			t.Fatalf("prediction %d out of append order", i)
		}
	}
}

func TestShardedInstrument(t *testing.T) {
	s := NewSharded(2)
	reg := obs.NewRegistry()
	s.Instrument(reg)
	for i := 0; i < 32; i++ {
		s.UpsertFlow(testKey(i), []float64{1}, 1, 2, 1, false, "")
		s.AppendPrediction(PredictionRecord{Key: testKey(i)})
	}
	snap := reg.Snapshot()
	if got := snap.Gauges["intddos_store_shards"]; got != 2 {
		t.Errorf("shards gauge = %v", got)
	}
	if got := snap.Gauges["intddos_store_predictions_logged"]; got != 32 {
		t.Errorf("predictions gauge = %v, want 32", got)
	}
	// No journal series: the live pipeline, the one instrumented
	// caller, writes no journal.
	for name := range snap.Gauges {
		if strings.Contains(name, "journal_length") {
			t.Errorf("journal gauge %s registered", name)
		}
	}
	if _, ok := snap.Histogram("intddos_store_upsert_seconds"); ok {
		t.Error("upsert histogram registered")
	}
}

func TestPollShardOutOfRangeIsEmpty(t *testing.T) {
	// A stale shard index — e.g. a cursor restored from a checkpoint
	// taken at a different -shards value — must fail cleanly, not
	// panic the poller.
	db := New()
	db.UpsertFlow(key(1), []float64{1}, 0, 0, 1, false, "")
	for _, sh := range []int{-1, 1, 7} {
		if recs, cur := db.PollShard(sh, 42, 10); recs != nil || cur != 42 {
			t.Errorf("DB.PollShard(%d) = %v, %d; want empty, cursor unchanged", sh, recs, cur)
		}
		db.TrimShard(sh, 99) // must not panic or trim shard 0
	}
	if db.JournalLen() != 1 {
		t.Error("out-of-range trim touched the real journal")
	}

	s := NewSharded(4)
	s.UpsertFlow(key(2), []float64{1}, 0, 0, 1, false, "")
	for _, sh := range []int{-1, 4, 100} {
		if recs, cur := s.PollShard(sh, 7, 10); recs != nil || cur != 7 {
			t.Errorf("ShardedDB.PollShard(%d) = %v, %d; want empty, cursor unchanged", sh, recs, cur)
		}
		s.TrimShard(sh, 99)
	}
	if s.JournalLen() != 1 {
		t.Error("out-of-range trim touched a real journal")
	}
}
