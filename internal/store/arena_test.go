package store

import (
	"net/netip"
	"reflect"
	"testing"

	"github.com/amlight/intddos/internal/flow"
	"github.com/amlight/intddos/internal/netsim"
)

func arenaKey(i int) flow.Key {
	return flow.Key{Src: netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)}),
		Dst: netip.AddrFrom4([4]byte{10, 1, 0, 1}), SrcPort: uint16(i), DstPort: 80, Proto: netsim.TCP}
}

func arenaRow(i int) []float64 {
	row := make([]float64, 15)
	for j := range row {
		row[j] = float64(i*100 + j)
	}
	return row
}

// TestJournalArenaLendsUntilNextDrain: drained rows stay intact while
// the journal takes new rows, until the caller drains again; a drain
// cycle then runs on recycled chunks alone.
func TestJournalArenaLendsUntilNextDrain(t *testing.T) {
	db := New()
	const burst = 600 // rows a drain: more than two chunks
	var buf []FlowRecord
	for cycle := 0; cycle < 6; cycle++ {
		for i := 0; i < burst; i++ {
			db.AppendJournal(arenaKey(i), arenaRow(cycle*burst+i), 0, 0, 1, false, "")
		}
		buf = db.DrainShard(0, buf[:0])
		// New rows land while the drained batch is still being read.
		for i := 0; i < burst; i++ {
			db.AppendJournal(arenaKey(i), arenaRow(-1), 0, 0, 1, false, "")
		}
		for i := range buf {
			if want := arenaRow(cycle*burst + i); !reflect.DeepEqual(buf[i].Features, want) {
				t.Fatalf("cycle %d row %d: drained features %v, want %v", cycle, i, buf[i].Features, want)
			}
		}
		db.DrainShard(0, nil)
	}
	a := &db.arena
	chunks := len(a.chunks) + len(a.lent) + len(a.spare)
	buf = db.DrainShard(0, buf[:0])
	if got := testing.AllocsPerRun(10, func() {
		for i := 0; i < burst; i++ {
			db.AppendJournal(arenaKey(i), arenaRow(0), 0, 0, 1, false, "")
		}
		buf = db.DrainShard(0, buf[:0])
	}); got > 2*burst { // the test's own rows; none of the journal's
		t.Errorf("a warm drain cycle allocates %.0f objects, want only the test's %d rows", got, burst)
	}
	if after := len(a.chunks) + len(a.lent) + len(a.spare); after != chunks {
		t.Errorf("arena grew from %d to %d chunks on warm cycles", chunks, after)
	}
}

// TestJournalArenaBoundedUnderPollTrim: the Mechanism's cycle — upsert,
// poll in global order, trim — keeps the arena at its backlog's size,
// and polled records keep their rows after the chunks are reused.
func TestJournalArenaBoundedUnderPollTrim(t *testing.T) {
	for _, db := range []Store{New(), NewSharded(4)} {
		var cursor uint64
		var kept []FlowRecord
		n := 0
		for cycle := 0; cycle < 200; cycle++ {
			for i := 0; i < 100; i++ {
				db.UpsertFlow(arenaKey(i), arenaRow(n), 0, 0, n, false, "")
				n++
			}
			recs, cur := db.PollGlobal(cursor, 64) // leaves a backlog behind
			db.TrimGlobal(cur)
			cursor = cur
			if cycle%50 == 0 {
				kept = append(kept, recs...)
			}
		}
		total := 0
		switch s := db.(type) {
		case *DB:
			total = len(s.arena.chunks) + len(s.arena.spare)
		case *ShardedDB:
			for _, sh := range s.shards {
				total += len(sh.arena.chunks) + len(sh.arena.spare)
			}
		}
		// The backlog grows by 36 rows a cycle: 7 200 rows of 15 values
		// need 27 chunks, one more a shard for the partly filled one.
		if backlog := db.JournalLen(); total > backlog*15/arenaChunkLen+8 {
			t.Errorf("%T: %d arena chunks for a backlog of %d rows", db, total, backlog)
		}
		for _, rec := range kept {
			if want := arenaRow(rec.Updates); !reflect.DeepEqual(rec.Features, want) {
				t.Fatalf("%T: a polled record's row changed after its chunk was reused: %v, want %v", db, rec.Features, want)
			}
		}
	}
}
