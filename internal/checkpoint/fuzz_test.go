// Fuzz target for the checkpoint decoder. The property is the crash
// model's last line of defense: Decode must reject arbitrary or
// corrupted bytes with an error — never panic, never load partial
// state — and anything it accepts must re-encode to a stable
// canonical form. Seeds span both format versions (the current
// per-shard layout and the version-1 global prediction log) so the
// fuzzer starts inside each valid-format region; the committed corpus
// lives under testdata/fuzz/ (checked, and with -update written, by TestFuzzSeedCorpus).
package checkpoint

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"net/netip"
	"os"
	"path/filepath"
	"testing"

	"github.com/amlight/intddos/internal/flow"
	"github.com/amlight/intddos/internal/netsim"
	"github.com/amlight/intddos/internal/store"
)

// fuzzSnapshot builds a small snapshot — under 2 KiB encoded in every
// version — that still reaches every branch of the decoder: two shards,
// each with one flow-table record, one store row, one journal entry
// (stamped, for version 2 on) and a Seq-sorted two-record prediction
// log; a key of each address form (IPv4, IPv6, zero); windows with and
// without votes; one version-1 global prediction; attack types empty
// and named. Seeds of tens of KiB leave the fuzzer a few dozen
// executions in a smoke run's ten seconds.
func fuzzSnapshot(seed int64) *Snapshot {
	rng := rand.New(rand.NewSource(seed))
	keys := []flow.Key{
		{Src: netip.AddrFrom4([4]byte{10, 0, 0, byte(seed)}), Dst: netip.AddrFrom4([4]byte{10, 0, 1, 1}),
			SrcPort: uint16(rng.Intn(65536)), DstPort: 80, Proto: netsim.TCP},
		{Src: netip.AddrFrom16([16]byte{0x20, 1, 15: byte(seed)}), Dst: netip.AddrFrom16([16]byte{0x20, 2, 15: 1}),
			SrcPort: 53, DstPort: uint16(rng.Intn(65536)), Proto: netsim.UDP},
		{SrcPort: 1, Proto: netsim.Proto(rng.Intn(256))},
	}
	stats := func() flow.StatsSnapshot {
		return flow.StatsSnapshot{N: 1 + rng.Intn(9), Last: rng.NormFloat64(), Sum: rng.NormFloat64(),
			Mean: rng.NormFloat64(), M2: rng.ExpFloat64()}
	}
	snap := &Snapshot{
		Shards: 2, Fingerprint: rng.Uint64(), FeatureWidth: 2, Seq: 2 + uint64(rng.Intn(100)),
		TakenAtUnixNano: rng.Int63(), ShardStates: make([]ShardState, 2),
		Windows: []Window{{Key: keys[0], Votes: []int{1, 0, 1}}, {Key: keys[2]}},
		Predictions: []store.PredictionRecord{{Key: keys[1], Label: 1, At: 7, Latency: 3,
			Votes: []int{1, 1, 0}, Truth: true, AttackType: "synflood"}},
	}
	gseq, pseq := uint64(0), uint64(0)
	for s := range snap.ShardStates {
		sh := &snap.ShardStates[s]
		k := keys[s]
		sh.Table = []flow.StateSnapshot{{
			Key: k, RegisteredAt: netsim.Time(rng.Int63()), LastAt: netsim.Time(rng.Int63()), Updates: 1 + s,
			Size: stats(), IAT: stats(), Queue: stats(), HopLat: stats(),
			LastIngress: netsim.Timestamp32(rng.Uint32()), HaveIngress: s == 0, HasTelemetry: true,
		}}
		rec := store.FlowRecord{Key: k, Features: []float64{rng.NormFloat64(), rng.NormFloat64()},
			RegisteredAt: 1, UpdatedAt: 2, Updates: 1 + s, Version: uint64(s), Truth: s == 0}
		sh.StoreFlows = []store.FlowRecord{rec}
		gseq += uint64(1 + s)
		sh.Store.Journal = []store.JournalEntry{{Seq: uint64(s + 1), GSeq: gseq, Rec: rec}}
		sh.Store.Seq = uint64(s + 1)
		for i := 0; i < 2; i++ {
			pseq += uint64(1 + (s+i)%4)
			sh.Store.Preds = append(sh.Store.Preds, store.PredictionRecord{
				Seq: pseq, Key: k, Label: i % 2, At: netsim.Time(int64(pseq)),
				Latency: netsim.Time(int64(i)), Votes: []int{i % 2, (i + 1) % 2},
				Truth: i%2 == 0, AttackType: []string{"", "synflood"}[i],
			})
		}
	}
	return snap
}

// fuzzDelta is fuzzSnapshot as a version-3 delta: a parent link, a
// removed key on each shard, a removed window, and no global log.
func fuzzDelta(seed int64) *Snapshot {
	snap := fuzzSnapshot(seed)
	snap.Delta, snap.BaseSeq, snap.BaseCRC = true, snap.Seq-1, uint32(seed)
	for s := range snap.ShardStates {
		snap.ShardStates[s].Removed = []flow.Key{snap.ShardStates[1-s].Table[0].Key}
	}
	snap.RemovedWindows = []flow.Key{snap.Windows[0].Key}
	snap.Predictions = nil
	return snap
}

// fuzzSeeds returns the byte strings committed as the seed corpus:
// valid encodings of every version (including a version-3 delta and a
// compressed file), an empty-ish snapshot, and mechanically damaged
// variants — truncation, a bit flip, and a forged hostile shard count
// — so the fuzzer starts inside each reject path too.
func fuzzSeeds() [][]byte {
	v3 := Encode(fuzzSnapshot(11))
	v3delta := Encode(fuzzDelta(19))
	v2 := EncodeV2(fuzzSnapshot(17))
	v1 := EncodeV1(fuzzSnapshot(13))
	var zbuf bytes.Buffer
	if _, _, err := WriteStream(&zbuf, fuzzSnapshot(23), EncodeOptions{Compress: true}); err != nil {
		panic(err)
	}
	tiny := Encode(&Snapshot{Shards: 1, ShardStates: make([]ShardState, 1)})
	truncated := v3[:len(v3)/2]
	flipped := append([]byte(nil), v3...)
	flipped[len(flipped)/3] ^= 0xFF
	hostileCount := forgeMetaShards(v3, 0xFFFFFFFF)
	return [][]byte{v3, v3delta, v2, v1, zbuf.Bytes(), tiny, truncated, flipped, hostileCount, {}}
}

// TestFuzzSeedsSmall holds the valid seeds under 4 KiB each and to the
// decoder branches they are there to reach: every section's records
// in every version, the delta's removal lists, the global log of
// version 1.
func TestFuzzSeedsSmall(t *testing.T) {
	seeds := fuzzSeeds()
	for i, name := range []string{"v3", "v3 delta", "v2", "v1", "v3 compressed"} {
		data := seeds[i]
		if len(data) >= 4096 {
			t.Errorf("%s seed is %d bytes, want under 4 KiB", name, len(data))
		}
		snap, err := Decode(data)
		if err != nil {
			t.Errorf("%s seed does not decode: %v", name, err)
			continue
		}
		sh := snap.ShardStates[len(snap.ShardStates)-1]
		v1, delta := name == "v1", name == "v3 delta"
		forms := map[uint8]bool{}
		for _, w := range snap.Windows {
			forms[addrForm(w.Key.Src)] = true
		}
		for _, sh := range snap.ShardStates {
			for _, st := range sh.Table {
				forms[addrForm(st.Key.Src)] = true
			}
		}
		for what, ok := range map[string]bool{
			"flow-table records":        len(sh.Table) > 0,
			"store rows":                len(sh.StoreFlows) > 0,
			"journal entries":           len(sh.Store.Journal) > 0,
			"shard prediction logs":     len(sh.Store.Preds) > 0 || v1,
			"removed keys":              len(sh.Removed) > 0 || !delta,
			"windows":                   len(snap.Windows) > 0,
			"removed windows":           len(snap.RemovedWindows) > 0 || !delta,
			"global prediction log":     len(snap.Predictions) > 0 || !v1,
			"key of every address form": len(forms) == 3,
		} {
			if !ok {
				t.Errorf("%s seed reaches no %s", name, what)
			}
		}
	}
}

func FuzzDecode(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := Decode(data)
		if err != nil {
			return
		}
		// Anything accepted must survive a canonical re-encode: Encode
		// sorts into the one wire form, so a second round trip is both
		// decodable and byte-stable.
		enc := Encode(snap)
		snap2, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-encode of accepted input does not decode: %v", err)
		}
		if enc2 := Encode(snap2); !bytes.Equal(enc, enc2) {
			t.Fatalf("canonical form unstable (%d vs %d bytes)", len(enc), len(enc2))
		}
		// The merge invariant the decoder promises: accepted per-shard
		// prediction logs are strictly Seq-sorted.
		for s := range snap.ShardStates {
			preds := snap.ShardStates[s].Store.Preds
			for i := 1; i < len(preds); i++ {
				if preds[i].Seq <= preds[i-1].Seq {
					t.Fatalf("accepted shard %d prediction log unsorted at %d", s, i)
				}
			}
		}
	})
}

var update = flag.Bool("update", false, "rewrite the committed seed corpus from the in-code seeds")

// TestFuzzSeedCorpus checks that the in-code seeds are committed as
// corpus files under testdata/fuzz/, so `go test` (no -fuzz) runs
// them from disk too; -update writes the missing ones.
func TestFuzzSeedCorpus(t *testing.T) {
	for _, seed := range fuzzSeeds() {
		checkCorpusEntry(t, "FuzzDecode", fmt.Sprintf("[]byte(%q)\n", seed))
	}
}

// checkCorpusEntry checks that the Go fuzz corpus file (format "go
// test fuzz v1") holding args is committed under testdata/fuzz/,
// named by its content hash; with -update it writes the file instead.
func checkCorpusEntry(t *testing.T, fuzzName, args string) {
	t.Helper()
	content := []byte("go test fuzz v1\n" + args)
	sum := uint64(14695981039346656037)
	for _, b := range content {
		sum = (sum ^ uint64(b)) * 1099511628211
	}
	path := filepath.Join("testdata", "fuzz", fuzzName, fmt.Sprintf("seed-%016x", sum))
	old, err := os.ReadFile(path)
	if err == nil && bytes.Equal(old, content) {
		return
	}
	if !*update {
		what := "stale"
		if err != nil {
			what = "missing"
		}
		t.Errorf("seed corpus file %s is %s: rerun TestFuzzSeedCorpus with -update and commit it", path, what)
		return
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
}
