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

// TestJournalArenaBoundedUnderPollTrim: the poll cycle — upsert, poll
// each shard, trim — keeps the arena at its backlog's size, and polled
// records keep their rows after the chunks are reused.
func TestJournalArenaBoundedUnderPollTrim(t *testing.T) {
	for _, db := range []Store{New(), NewSharded(4)} {
		cursors := make([]uint64, shardCount(db))
		var kept []FlowRecord
		n := 0
		for cycle := 0; cycle < 200; cycle++ {
			for i := 0; i < 100; i++ {
				db.UpsertFlow(arenaKey(i), arenaRow(n), 0, 0, n, false, "")
				n++
			}
			for s := range cursors {
				// 64 rows a cycle in all: the poll leaves a backlog behind.
				recs, cur := db.PollShard(s, cursors[s], 64/len(cursors))
				db.TrimShard(s, cur)
				cursors[s] = cur
				if cycle%50 == 0 {
					kept = append(kept, recs...)
				}
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
