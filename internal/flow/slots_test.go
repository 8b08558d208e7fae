package flow

import (
	"net/netip"
	"reflect"
	"runtime"
	"testing"

	"github.com/amlight/intddos/internal/netsim"
)

// spoofKey is the i-th key of a spoofed-source flood: a new source
// address and port per packet toward one victim.
func spoofKey(i int) Key {
	return Key{
		Src:     netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)}),
		Dst:     netip.AddrFrom4([4]byte{192, 168, 0, 1}),
		SrcPort: uint16(1024 + i%60000),
		DstPort: 80,
		Proto:   netsim.TCP,
	}
}

// TestStatePointerFree walks State's type: no field may hold a
// pointer, so the table's pages are never scanned by the collector.
func TestStatePointerFree(t *testing.T) {
	var walk func(ty reflect.Type, path string)
	walk = func(ty reflect.Type, path string) {
		switch ty.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Slice, reflect.String,
			reflect.Chan, reflect.Func, reflect.Interface:
			t.Errorf("%s is a %s: a State must hold no pointer", path, ty.Kind())
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				walk(ty.Field(i).Type, path+"."+ty.Field(i).Name)
			}
		case reflect.Array:
			walk(ty.Elem(), path+"[]")
		}
	}
	walk(reflect.TypeOf(State{}), "State")
}

// TestTableChurnAllocs: at a steady resident size, creating flows and
// evicting them allocates nothing — a new flow takes a freed slot, and
// the index and pages are already at their resident size.
func TestTableChurnAllocs(t *testing.T) {
	tbl := NewTable()
	tbl.IdleTimeout = 1
	const resident = 4096
	var at netsim.Time
	next := 0
	cycle := func() {
		at += 10
		for i := 0; i < resident; i++ {
			tbl.Observe(PacketInfo{Key: spoofKey(next), Length: 40, At: at})
			next++
		}
		at += 10
		if n := tbl.Sweep(at); n != resident {
			t.Fatalf("swept %d flows, want %d", n, resident)
		}
	}
	cycle()
	if got := testing.AllocsPerRun(20, cycle); got != 0 {
		t.Errorf("a create-then-evict cycle of %d flows allocates %.0f objects, want 0", resident, got)
	}
	if tbl.Len() != 0 || tbl.used != resident {
		t.Errorf("after the cycles: %d live, %d slots ever used, want 0 and %d", tbl.Len(), tbl.used, resident)
	}
}

// TestShardedTableSpoofedFloodFlat passes 10⁶ distinct spoofed keys
// through a ShardedTable with idle eviction: once the resident set is
// reached, slots are reused — each stripe holds exactly the pages its
// peak resident set needs — and the heap stays flat.
func TestShardedTableSpoofedFloodFlat(t *testing.T) {
	const (
		keys   = 1_000_000
		shards = 4
		dt     = netsim.Microsecond      // one new flow a microsecond
		idle   = 10 * netsim.Millisecond // ~10 000 resident flows
		every  = 10_000                  // a sweep each 10 ms of stream
	)
	tbl := NewShardedTable(shards)
	tbl.SetIdleTimeout(idle)
	peak := make([]int, shards)
	heapAt := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var reached uint64
	for i := 0; i < keys; i++ {
		at := netsim.Time(i) * dt
		tbl.ObserveFunc(PacketInfo{Key: spoofKey(i), Length: 40, At: at}, nil)
		if (i+1)%every != 0 {
			continue
		}
		for s := range tbl.shards {
			peak[s] = max(peak[s], tbl.shards[s].table.Len())
		}
		tbl.Sweep(at)
		if i+1 == keys/10 {
			reached = heapAt()
		}
	}
	grown := int64(heapAt()) - int64(reached)
	for s := range tbl.shards {
		tb := tbl.shards[s].table
		if want := (peak[s] + pageLen - 1) / pageLen; len(tb.pages) != want || tb.used != peak[s] {
			t.Errorf("shard %d: %d pages, %d slots used for a peak of %d flows, want %d pages",
				s, len(tb.pages), tb.used, peak[s], want)
		}
		if peak[s] > 2*(every+int(idle/dt))/shards {
			t.Errorf("shard %d: peak of %d resident flows", s, peak[s])
		}
	}
	if grown > 1<<20 {
		t.Errorf("heap grew %d bytes over the last 900 000 keys, want flat", grown)
	}
}
