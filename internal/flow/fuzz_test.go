package flow

import (
	"net/netip"
	"reflect"
	"testing"

	"github.com/amlight/intddos/internal/netsim"
)

// refSlide is the vote window as a plain slice: the reference Window's
// bits are checked against.
func refSlide(w []int, raw, n int) ([]int, int) {
	if drop := len(w) + 1 - n; drop > 0 {
		w = append(w[:0], w[drop:]...)
	}
	w = append(w, raw)
	sum := 0
	for _, v := range w {
		sum += v
	}
	if 2*sum > len(w) {
		return w, 1
	}
	return w, 0
}

// fuzzKey maps a byte onto a small key space whose addresses come in
// every form — IPv4, IPv6, and the IPv4-mapped IPv6 address that must
// stay a key of its own — so probes meet equal hashes' neighbours.
func fuzzKey(b byte) Key {
	v4 := [4]byte{10, 0, 0, b >> 2}
	var src netip.Addr
	switch b % 3 {
	case 0:
		src = netip.AddrFrom4(v4)
	case 1:
		src = netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 15: b >> 2})
	default:
		src = netip.AddrFrom16(netip.AddrFrom4(v4).As16())
	}
	return Key{Src: src, Dst: netip.AddrFrom4([4]byte{192, 168, 0, 1}), SrcPort: uint16(b & 3), DstPort: 80, Proto: netsim.TCP}
}

// FuzzTable runs random observe, vote, sweep, delete, insert and export
// sequences through a Table and a map of heap records, and requires the
// two to agree after every step. The first byte shifts the probe hash
// (Table.collide), so most inputs drive long probe runs, backward-shift
// deletes across them and index growth through them.
func FuzzTable(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 1, 0, 2, 1, 1, 1, 2, 0, 3, 9, 5, 0})
	f.Add([]byte{60, 0, 1, 0, 0, 2, 0, 0, 3, 0, 4, 0, 5, 2, 200, 0, 1, 1, 3, 0, 0, 5, 0})
	f.Add([]byte{63, 0, 7, 1, 0, 8, 1, 0, 9, 1, 4, 7, 2, 1, 3, 8, 2, 9, 5, 0, 0, 7, 1, 3, 7, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		tbl := NewTable()
		tbl.collide = data[0] % 64
		tbl.IdleTimeout = 4
		type ref struct {
			st  State
			win []int
		}
		want := map[Key]*ref{}
		var evicted []Key
		tbl.OnEvict = func(k Key) { evicted = append(evicted, k) }
		var at netsim.Time
		same := func(op string, k Key) {
			t.Helper()
			got, r := tbl.Get(k), want[k]
			switch {
			case (got == nil) != (r == nil):
				t.Fatalf("%s %s: table has it %v, reference %v", op, k, got != nil, r != nil)
			case got == nil:
			case got.Key() != k || got.Snapshot() != r.st.Snapshot():
				t.Fatalf("%s %s: record %+v, want %+v", op, k, got.Snapshot(), r.st.Snapshot())
			case !reflect.DeepEqual(got.Window.AppendTo([]int{}), append([]int{}, r.win...)):
				t.Fatalf("%s %s: window %v, want %v", op, k, got.Window.AppendTo(nil), r.win)
			}
			if tbl.Len() != len(want) {
				t.Fatalf("%s %s: Len %d, want %d", op, k, tbl.Len(), len(want))
			}
		}
		for ops := data[1:]; len(ops) >= 2; ops = ops[2:] {
			op, k := ops[0]%6, fuzzKey(ops[1])
			at += netsim.Time(ops[0] / 6 % 4)
			switch op {
			case 0: // observe
				pi := PacketInfo{Key: k, Length: int(ops[1]), At: at, HasTelemetry: ops[0]&64 != 0,
					IngressTS: netsim.Timestamp32(at) * 1000}
				st, created := tbl.Observe(pi)
				r := want[k]
				if created != (r == nil) {
					t.Fatalf("observe %s: created %v with a reference record %v", k, created, r != nil)
				}
				if r == nil {
					r = &ref{st: State{key: packKey(k), RegisteredAt: at}}
					want[k] = r
				}
				o := pi.Pack()
				r.st.update(&o)
				if st != tbl.Get(k) {
					t.Fatalf("observe %s: returned a slot Get does not find", k)
				}
			case 1: // vote
				raw := int(ops[0] >> 7)
				label, kept := tbl.Vote(k, raw, 3)
				var wantLabel int
				if r := want[k]; r != nil {
					r.win, wantLabel = refSlide(r.win, raw, 3)
				} else {
					_, wantLabel = refSlide(nil, raw, 3)
				}
				if label != wantLabel || kept != (want[k] != nil) {
					t.Fatalf("vote %s: label %d kept %v, want %d %v", k, label, kept, wantLabel, want[k] != nil)
				}
			case 2: // sweep
				evicted = evicted[:0]
				var gone []Key
				for key, r := range want {
					if at-r.st.LastAt > tbl.IdleTimeout {
						gone = append(gone, key)
						delete(want, key)
					}
				}
				if n := tbl.Sweep(at); n != len(gone) || len(evicted) != len(gone) {
					t.Fatalf("sweep at %d: removed %d, reported %d, want %d", at, n, len(evicted), len(gone))
				}
				for _, key := range gone {
					same("sweep", key)
				}
			case 3: // delete
				if tbl.Delete(k) != (want[k] != nil) {
					t.Fatalf("delete %s: disagrees on presence", k)
				}
				delete(want, k)
			case 4: // insert a restored record, replacing any with its window
				sn := State{key: packKey(k), RegisteredAt: at, LastAt: at, Updates: int(ops[1])}
				tbl.Insert(RestoreState(sn.Snapshot()))
				want[k] = &ref{st: sn}
			case 5: // export
				seen := map[Key]bool{}
				tbl.Range(func(st *State) bool {
					seen[st.Key()] = true
					return true
				})
				if len(seen) != len(want) {
					t.Fatalf("export: %d records, want %d", len(seen), len(want))
				}
				for key := range want {
					if !seen[key] {
						t.Fatalf("export: %s missing", key)
					}
					same("export", key)
				}
			}
			same([...]string{"observe", "vote", "sweep", "delete", "insert", "export"}[op], k)
		}
	})
}
