package store

import (
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"github.com/amlight/intddos/internal/flow"
	"github.com/amlight/intddos/internal/netsim"
)

// packedLogs packs plain Seq-stamped logs the way a restore does and
// freezes them, for tests that drive a MergeCursor directly.
func packedLogs(t *testing.T, logs [][]PredictionRecord) []predView {
	t.Helper()
	views := make([]predView, len(logs))
	for i, log := range logs {
		var pl predLog
		for j := range log {
			if err := pl.restore(&log[j], new(atomic.Uint64), false); err != nil {
				t.Fatal(err)
			}
		}
		views[i] = pl.view()
	}
	return views
}

func TestPredRecIsSmallAndPointerFree(t *testing.T) {
	if got := unsafe.Sizeof(predRec{}); got != 80 {
		t.Errorf("predRec is %d bytes, want 80", got)
	}
	rt := reflect.TypeOf(predRec{})
	for i := 0; i < rt.NumField(); i++ {
		switch k := rt.Field(i).Type.Kind(); k {
		case reflect.Pointer, reflect.Slice, reflect.String, reflect.Map, reflect.Interface, reflect.Chan, reflect.Func:
			t.Errorf("predRec.%s is a %s: the collector would scan every chunk", rt.Field(i).Name, k)
		}
	}
}

// randPrediction draws a record from everything the pipeline and the
// decoders can produce: IPv4, IPv6, IPv4-mapped and zero addresses,
// 0…MaxVotes votes with absent members, cascade exits, several attack
// types.
func randPrediction(rng *rand.Rand, nKeys int) PredictionRecord {
	addr := func(i int) netip.Addr {
		v4 := [4]byte{10, byte(i >> 8), byte(i), byte(rng.Intn(3))}
		switch rng.Intn(8) {
		case 0:
			var b [16]byte
			rng.Read(b[:])
			b[0] = 0x20 // never the IPv4-mapped prefix
			return netip.AddrFrom16(b)
		case 1:
			return netip.AddrFrom16(netip.AddrFrom4(v4).As16()) // ::ffff:10.x.x.x
		case 2:
			return netip.Addr{}
		default:
			return netip.AddrFrom4(v4)
		}
	}
	i := rng.Intn(nKeys)
	p := PredictionRecord{
		Key: flow.Key{
			Src: addr(i), Dst: addr(i + 1),
			SrcPort: uint16(i), DstPort: uint16(rng.Intn(1 << 16)),
			Proto: netsim.Proto(rng.Intn(256)),
		},
		Label:      rng.Intn(2),
		At:         netsim.Time(rng.Int63()),
		Latency:    netsim.Time(rng.Int63n(1<<40) - 1<<39),
		FlowSeq:    rng.Intn(1 << 40),
		Truth:      rng.Intn(2) == 0,
		AttackType: []string{"", "synflood", "udpflood", "slowloris"}[rng.Intn(4)],
	}
	if rng.Intn(4) == 0 {
		p.Stage = 1 + rng.Intn(3)
		p.Votes = []int{rng.Intn(2)}
		return p
	}
	if n := rng.Intn(MaxVotes + 1); n > 0 {
		p.Votes = make([]int, n)
		for j := range p.Votes {
			p.Votes[j] = rng.Intn(3) - 1 // VoteAbsent, 0, 1
		}
	}
	return p
}

// TestPredictionRoundTrip: what goes into the packed log comes out
// equal, field for field, for every shape of record.
func TestPredictionRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	db := New()
	var want []PredictionRecord
	for i := 0; i < 5000; i++ {
		p := randPrediction(rng, 200)
		db.AppendPrediction(p)
		p.Seq = uint64(i + 1)
		want = append(want, p)
	}
	// Every vote count, all members absent.
	for n := 0; n <= MaxVotes; n++ {
		p := PredictionRecord{Key: testKey(n), FlowSeq: n}
		for j := 0; j < n; j++ {
			p.Votes = append(p.Votes, VoteAbsent)
		}
		db.AppendPrediction(p)
		p.Seq = uint64(len(want) + 1)
		want = append(want, p)
	}
	got := db.Predictions()
	if len(got) != len(want) {
		t.Fatalf("log holds %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("record %d changed in the log:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
	// A materialised Votes slice is the reader's own.
	for i := range got {
		if len(got[i].Votes) > 0 {
			_ = append(got[i].Votes, 7)
		}
	}
	if again := db.Predictions(); !reflect.DeepEqual(again, want) {
		t.Error("appending to a returned Votes slice reached the log or a neighbour")
	}
}

// TestPredictionRejected: a record the packed layout cannot hold
// exactly is refused whole — AppendPrediction panics (a caller bug),
// an import fails and leaves the log as it was.
func TestPredictionRejected(t *testing.T) {
	zoned := testKey(1)
	zoned.Src = netip.MustParseAddr("fe80::1%eth0")
	for name, p := range map[string]PredictionRecord{
		"too many votes": {Key: testKey(1), Votes: make([]int, MaxVotes+1)},
		"vote value":     {Key: testKey(1), Votes: []int{0, 2}},
		"label":          {Key: testKey(1), Label: 256},
		"negative label": {Key: testKey(1), Label: -1},
		"stage":          {Key: testKey(1), Stage: 256},
		"zone":           {Key: zoned},
	} {
		t.Run(name, func(t *testing.T) {
			good := PredictionRecord{Key: testKey(2), Seq: 1, Label: 1, Votes: []int{1, 1, 0}}
			bad := p
			bad.Seq = 2
			db := NewSharded(1)
			if err := db.ImportShard(0, ShardExport{Preds: []PredictionRecord{good}}); err != nil {
				t.Fatal(err)
			}
			want := db.Predictions()

			func() {
				defer func() {
					if recover() == nil {
						t.Error("AppendPrediction accepted the record")
					}
				}()
				db.AppendPrediction(p)
			}()
			if err := db.ImportShard(0, ShardExport{Preds: []PredictionRecord{good, bad}}); err == nil {
				t.Error("ImportShard accepted the record")
			}
			if err := db.ApplyShardDelta(0, ShardExport{Preds: []PredictionRecord{bad}}); err == nil {
				t.Error("ApplyShardDelta accepted the record")
			}
			three := good
			three.Seq = 3
			if err := db.ApplyShardDelta(0, ShardExport{Preds: []PredictionRecord{three, bad}}); err == nil {
				t.Error("ApplyShardDelta accepted the record behind a good one")
			}
			if err := db.ImportPredictions([]PredictionRecord{good, bad}); err == nil {
				t.Error("ImportPredictions accepted the record")
			}
			if got := db.Predictions(); !reflect.DeepEqual(got, want) {
				t.Errorf("a refused record changed the log: %+v, want %+v", got, want)
			}
		})
	}
}

// samePrediction is reflect.DeepEqual for the two records, minus the
// reflection: the differential compares a few million of them.
func samePrediction(a, b PredictionRecord) bool {
	return a.Key == b.Key && a.Label == b.Label && a.At == b.At && a.Latency == b.Latency &&
		a.Seq == b.Seq && a.FlowSeq == b.FlowSeq && a.Stage == b.Stage &&
		a.Truth == b.Truth && a.AttackType == b.AttackType &&
		slices.Equal(a.Votes, b.Votes) && (a.Votes == nil) == (b.Votes == nil)
}

// shardDumper is the per-shard read surface DB and ShardedDB share.
type shardDumper interface {
	Store
	DeltaCheckpointable
	PredictionCursor(after uint64) *MergeCursor
	LastPredictionSeq() uint64
}

// TestPackedLogMatchesPlainSlice is the differential: the chunked,
// packed log against the plain []PredictionRecord it replaced, through
// every reader, at log sizes on and around the chunk boundary and with
// the delta mark on and around it too.
func TestPackedLogMatchesPlainSlice(t *testing.T) {
	if n := reflect.TypeOf(PredictionRecord{}).NumField(); n != 10 {
		t.Fatalf("samePrediction compares 10 fields, PredictionRecord has %d", n)
	}
	const c = predChunkLen
	type layout struct {
		name   string
		shards int
		mk     func() shardDumper
	}
	layouts := []layout{
		{"DB", 1, func() shardDumper { return New() }},
		{"Sharded1", 1, func() shardDumper { return NewSharded(1) }},
		{"Sharded4", 4, func() shardDumper { return NewSharded(4) }},
	}
	for _, lay := range layouts {
		for _, base := range []int{0, 1, c - 1, c, c + 1} {
			for _, more := range []int{0, 1, c} {
				// One shard's log lands exactly on the boundaries; four
				// shards share four times the records, so their logs land
				// either side of them.
				base, more := base*lay.shards, more*lay.shards
				t.Run(fmt.Sprintf("%s/base=%d/more=%d", lay.name, base, more), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(base*7 + more)))
					db := lay.mk()
					var want []PredictionRecord
					add := func(n int) {
						for i := 0; i < n; i++ {
							p := randPrediction(rng, 50)
							db.AppendPrediction(p)
							p.Seq = uint64(len(want) + 1)
							want = append(want, p)
						}
					}
					ofShard := func(recs []PredictionRecord, s int) []PredictionRecord {
						var out []PredictionRecord
						for _, p := range recs {
							if p.Key.Shard(lay.shards) == s {
								out = append(out, p)
							}
						}
						return out
					}
					equal := func(what string, got, want []PredictionRecord) {
						t.Helper()
						if len(got) != len(want) {
							t.Fatalf("%s: %d records, the plain log has %d", what, len(got), len(want))
						}
						for i := range want {
							if !samePrediction(got[i], want[i]) {
								t.Fatalf("%s: record %d is %+v, the plain log has %+v", what, i, got[i], want[i])
							}
						}
					}

					add(base)
					fulls := make([]ShardExport, lay.shards)
					for s := range fulls {
						fulls[s] = db.ExportShard(s)
						equal(fmt.Sprintf("full export of shard %d", s), fulls[s].Preds, ofShard(want, s))
					}
					add(more)
					if got := db.PredictionCount(); got != len(want) {
						t.Fatalf("PredictionCount = %d, want %d", got, len(want))
					}
					if got := db.LastPredictionSeq(); got != uint64(len(want)) {
						t.Fatalf("LastPredictionSeq = %d, want %d", got, len(want))
					}
					equal("Predictions", db.Predictions(), want)
					if sh, ok := db.(*ShardedDB); ok {
						for s := 0; s < lay.shards; s++ {
							equal(fmt.Sprintf("shard %d Predictions", s), sh.shards[s].Predictions(), ofShard(want, s))
						}
					}
					for _, after := range []int{0, 1, base, len(want)} {
						if after > len(want) {
							continue
						}
						cur := db.PredictionCursor(uint64(after))
						if got := cur.Remaining(); got != len(want)-after {
							t.Fatalf("cursor after %d: Remaining = %d, want %d", after, got, len(want)-after)
						}
						equal(fmt.Sprintf("cursor after %d", after), cur.All(), want[after:])
					}
					deltas := make([]ShardExport, lay.shards)
					for s := range deltas {
						deltas[s] = db.ExportShardDelta(s)
						equal(fmt.Sprintf("delta export of shard %d", s), deltas[s].Preds, ofShard(want[base:], s))
						// The mark moved: a second delta is empty.
						if again := db.ExportShardDelta(s); len(again.Preds) != 0 {
							t.Fatalf("shard %d: second delta export repeats %d predictions", s, len(again.Preds))
						}
					}

					// Full + delta replay into a fresh store, and the v1 path.
					dst := lay.mk()
					for s := range fulls {
						if err := dst.ImportShard(s, fulls[s]); err != nil {
							t.Fatal(err)
						}
						if err := dst.ApplyShardDelta(s, deltas[s]); err != nil {
							t.Fatal(err)
						}
					}
					equal("full+delta replay", dst.Predictions(), want)
					if got := dst.LastPredictionSeq(); got != uint64(len(want)) {
						t.Fatalf("replayed LastPredictionSeq = %d, want %d", got, len(want))
					}
					v1 := lay.mk()
					if err := v1.ImportPredictions(want); err != nil {
						t.Fatal(err)
					}
					equal("ImportPredictions", v1.Predictions(), want)
					// A replayed store keeps logging where the history ended.
					next := PredictionRecord{Key: testKey(3), Label: 1}
					dst.AppendPrediction(next)
					next.Seq = uint64(len(want) + 1)
					equal("append after replay", dst.Predictions(), append(want[:len(want):len(want)], next))
				})
			}
		}
	}
}

// TestPredictionLogConcurrentReaders: appenders on every shard while
// readers materialise, merge and export the log. Every reading must be
// a consistent prefix — strictly increasing Seq, each writer's program
// order intact, nothing torn — and -race must stay quiet about a view
// read outside the lock.
func TestPredictionLogConcurrentReaders(t *testing.T) {
	const shards, writers, perWriter = 4, 4, 3 * predChunkLen / 2
	db := NewSharded(shards)
	var wg sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWriter; i++ {
				db.AppendPrediction(PredictionRecord{
					Key: testKey(rng.Intn(64)), Label: w, At: netsim.Time(i),
					Votes: []int{1, VoteAbsent, 0}, AttackType: fmt.Sprint("type", w),
				})
			}
		}(w)
	}
	check := func(what string, recs []PredictionRecord) {
		last := make([]netsim.Time, writers)
		for i := range last {
			last[i] = -1
		}
		for i, p := range recs {
			if i > 0 && p.Seq <= recs[i-1].Seq {
				t.Errorf("%s: Seq %d after %d", what, p.Seq, recs[i-1].Seq)
				return
			}
			if p.Label < 0 || p.Label >= writers || p.AttackType != fmt.Sprint("type", p.Label) ||
				!reflect.DeepEqual(p.Votes, []int{1, VoteAbsent, 0}) {
				t.Errorf("%s: torn record %+v", what, p)
				return
			}
			if p.At <= last[p.Label] {
				t.Errorf("%s: writer %d's append %d read before %d", what, p.Label, last[p.Label], p.At)
				return
			}
			last[p.Label] = p.At
		}
	}
	var rg sync.WaitGroup
	for r := 0; r < 2; r++ {
		rg.Add(1)
		go func(r int) {
			defer rg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				check("Predictions", db.Predictions())
				check("cursor", db.PredictionCursor(uint64(r*100)).All())
				check("export", db.ExportShard(r).Preds)
			}
		}(r)
	}
	wg.Wait()
	close(done)
	rg.Wait()
	if got := db.PredictionCount(); got != writers*perWriter {
		t.Fatalf("log holds %d records, want %d", got, writers*perWriter)
	}
	check("final", db.Predictions())
}

// TestAppendPredictionAllocs pins the append at no allocation but the
// chunk a full one makes room for (AllocsPerRun's average truncates
// that one-in-a-thousand away).
func TestAppendPredictionAllocs(t *testing.T) {
	db := NewSharded(4)
	p := PredictionRecord{Key: testKey(1), Label: 1, Votes: []int{1, 0, 1}, AttackType: "synflood"}
	db.AppendPrediction(p)
	if got := testing.AllocsPerRun(4*predChunkLen, func() { db.AppendPrediction(p) }); got != 0 {
		t.Errorf("AppendPrediction allocates %.0f objects a record, want 0", got)
	}
}
