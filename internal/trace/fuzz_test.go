// Fuzz target for the .amtr trace reader: parsing arbitrary bytes
// never panics or preallocates unbounded memory, and any trace that
// parses survives a Write→Read round trip with identical records.
//
// This fuzzer found a real bug: Read trusted the header's record
// count for slice preallocation, so a 14-byte hostile header claiming
// 2^28 records reserved ~20 GB before the first record read could
// fail. Read now caps the preallocation (see trace.go).
package trace

import (
	"bytes"
	"flag"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/amlight/intddos/internal/netsim"
)

func seedRecords() []Record {
	return []Record{
		{
			At:  netsim.Millisecond,
			Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("192.168.0.9"),
			SrcPort: 4321, DstPort: 80, Proto: netsim.TCP, Flags: netsim.FlagSYN,
			Length: 512, Label: true, AttackType: "synflood",
		},
		{
			At:  2 * netsim.Millisecond,
			Src: netip.MustParseAddr("10.0.0.2"), Dst: netip.MustParseAddr("192.168.0.9"),
			SrcPort: 53, DstPort: 53, Proto: netsim.UDP,
			Length: 64, AttackType: "",
		},
	}
}

func encodeSeed(t testing.TB, recs []Record) []byte {
	var buf bytes.Buffer
	if err := Write(&buf, recs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func FuzzRead(f *testing.F) {
	f.Add(encodeSeed(f, seedRecords()))
	f.Add(encodeSeed(f, nil))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, recs); err != nil {
			t.Fatalf("re-encode of decoded trace: %v", err)
		}
		recs2, err := Read(&buf)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if len(recs) != len(recs2) {
			t.Fatalf("round trip changed count: %d -> %d", len(recs), len(recs2))
		}
		for i := range recs {
			if !reflect.DeepEqual(recs[i], recs2[i]) {
				t.Fatalf("record %d changed in round trip:\n%+v\n%+v", i, recs[i], recs2[i])
			}
		}
	})
}

// TestReadHostileCountBounded is the regression test for the
// fuzz-found preallocation bug: a valid header claiming the maximum
// plausible record count with no payload must fail fast instead of
// reserving gigabytes.
func TestReadHostileCountBounded(t *testing.T) {
	hostile := []byte{
		0x41, 0x4D, 0x54, 0x52, // magic "AMTR"
		1,                                              // version
		0,                                              // zero attack types
		0x00, 0x00, 0x00, 0x00, 0x10, 0x00, 0x00, 0x00, // count = 1<<28
	}
	if _, err := Read(bytes.NewReader(hostile)); err == nil {
		t.Fatal("truncated trace with huge claimed count parsed successfully")
	}
}

var update = flag.Bool("update", false, "rewrite the committed seed corpus from the in-code seeds")

// TestFuzzSeedCorpus checks that the in-code seeds are committed as
// corpus files under testdata/fuzz/, so `go test` (no -fuzz) runs
// them from disk too; -update writes the missing ones.
func TestFuzzSeedCorpus(t *testing.T) {
	checkCorpusEntry(t, "FuzzRead", fmt.Sprintf("[]byte(%q)\n", encodeSeed(t, seedRecords())))
	checkCorpusEntry(t, "FuzzRead", fmt.Sprintf("[]byte(%q)\n", encodeSeed(t, nil)))
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
