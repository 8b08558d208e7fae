// Fuzz target for the sFlow datagram parser: decoding arbitrary
// bytes never panics, and a successfully decoded sample re-encodes to
// exactly the bytes it was parsed from, but for the drops count, which
// the encoder always writes as 0 (the wire format has no optional
// fields, so byte-level round trips must be otherwise exact).
package sflow

import (
	"bytes"
	"flag"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"testing"

	"github.com/amlight/intddos/internal/netsim"
)

func seedFlowSample() *FlowSample {
	return &FlowSample{
		Seq: 9, SampleRate: DefaultSampleRate, SamplePool: 8192,
		InputPort: 3, OutputPort: 4,
		Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("192.168.0.9"),
		SrcPort: 4321, DstPort: 80, Proto: netsim.TCP, Flags: netsim.FlagSYN, Length: 512,
	}
}

func FuzzDecode(f *testing.F) {
	f.Add(EncodeFlowSample(seedFlowSample()))
	typ2 := EncodeFlowSample(seedFlowSample())
	typ2[5] = 2 // the retired interface counter-sample record: an error
	f.Add(typ2)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err != nil {
			return
		}
		re := EncodeFlowSample(s)
		// Decode ignores any trailer beyond the fixed record length,
		// and the drops count, which the encoder writes as 0.
		want := bytes.Clone(data[:min(len(data), len(re))])
		if len(want) >= 26 {
			clear(want[22:26])
		}
		if !bytes.Equal(re, want) {
			t.Fatalf("re-encode differs from input prefix:\n%x\n%x", re, data)
		}
	})
}

var update = flag.Bool("update", false, "rewrite the committed seed corpus from the in-code seeds")

// TestFuzzSeedCorpus checks that the in-code seeds are committed as
// corpus files under testdata/fuzz/, so `go test` (no -fuzz) runs
// them from disk too; -update writes the missing ones.
func TestFuzzSeedCorpus(t *testing.T) {
	checkCorpusEntry(t, "FuzzDecode", fmt.Sprintf("[]byte(%q)\n", EncodeFlowSample(seedFlowSample())))
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
