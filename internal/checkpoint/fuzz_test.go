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
	"os"
	"path/filepath"
	"testing"

	"github.com/amlight/intddos/internal/netsim"
	"github.com/amlight/intddos/internal/store"
)

// fuzzSnapshot builds a snapshot that exercises the version-2
// additions on top of the randomized base: global journal stamps and
// strictly Seq-sorted per-shard prediction logs.
func fuzzSnapshot(seed int64) *Snapshot {
	snap := randSnapshot(seed)
	gseq, pseq := uint64(0), uint64(0)
	for s := range snap.ShardStates {
		sh := &snap.ShardStates[s]
		for i := range sh.Store.Journal {
			gseq += uint64(1 + (s+i)%3)
			sh.Store.Journal[i].GSeq = gseq
		}
		for i := 0; i < 2+s; i++ {
			pseq += uint64(1 + (s+i)%4)
			sh.Store.Preds = append(sh.Store.Preds, store.PredictionRecord{
				Seq: pseq, Label: i % 2, At: netsim.Time(int64(pseq)),
				Latency: netsim.Time(int64(i)), Votes: []int{i % 2, (i + 1) % 2},
				Truth: i%2 == 0, AttackType: "synflood",
			})
		}
	}
	return snap
}

// fuzzSeeds returns the byte strings committed as the seed corpus:
// valid encodings of every version (including a version-3 delta and a
// compressed file), an empty-ish snapshot, and mechanically damaged
// variants — truncation, a bit flip, and a forged hostile shard count
// — so the fuzzer starts inside each reject path too.
func fuzzSeeds() [][]byte {
	v3 := Encode(fuzzSnapshot(11))
	v3delta := Encode(deltaSnapshot(19))
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
