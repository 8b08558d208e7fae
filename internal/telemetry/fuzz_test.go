// Fuzz targets for the INT wire formats. Two properties hold for
// every parser here: decoding arbitrary bytes never panics, and any
// value that decodes successfully survives an encode→decode round
// trip unchanged. Seeds come from the package's own encoders so the
// fuzzer starts inside the valid-format region; the committed corpus
// lives under testdata/fuzz/ (checked, and with -update written, by TestFuzzSeedCorpus).
package telemetry

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

// seedHeaders covers the instruction bitmaps the deployment uses plus
// edge shapes (no instructions, all instructions).
func seedHeaders() []Header {
	insts := []Instruction{0, InstAll, InstQueue | InstIngressTS | InstEgressTS, InstSwitchID}
	hs := make([]Header, 0, len(insts))
	for _, inst := range insts {
		hs = append(hs, Header{
			Version:      Version,
			HopML:        uint8(inst.WordsPerHop()),
			RemainingHop: 4,
			Instructions: inst,
			DomainID:     0xA11C3,
		})
	}
	return hs
}

func seedHop() HopMetadata {
	return HopMetadata{
		SwitchID: 7, IngressPort: 1, EgressPort: 2, HopLatency: 1500,
		QueueID: 3, QueueDepth: 0x00ABCDEF, IngressTS: 1000, EgressTS: 2500,
	}
}

func seedReport() *Report {
	return &Report{
		Seq: 42,
		Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("192.168.0.9"),
		SrcPort: 4321, DstPort: 80, Proto: netsim.TCP, Flags: netsim.FlagSYN,
		Length: 512,
		Hops:   []HopMetadata{seedHop(), {SwitchID: 8, QueueDepth: 12, IngressTS: 3000, EgressTS: 3100}},
	}
}

func FuzzDecodeHeader(f *testing.F) {
	for _, h := range seedHeaders() {
		f.Add(EncodeHeader(nil, h))
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		h, rest, err := DecodeHeader(data)
		if err != nil {
			return
		}
		if len(rest) != len(data)-HeaderLen {
			t.Fatalf("rest = %d bytes, want %d", len(rest), len(data)-HeaderLen)
		}
		re := EncodeHeader(nil, h)
		h2, rest2, err := DecodeHeader(re)
		if err != nil {
			t.Fatalf("re-decode of re-encoded header: %v", err)
		}
		if h2 != h || len(rest2) != 0 {
			t.Fatalf("round trip changed header: %+v -> %+v", h, h2)
		}
	})
}

func FuzzDecodeHop(f *testing.F) {
	for _, inst := range []Instruction{0, InstAll, InstQueue | InstIngressTS | InstEgressTS} {
		f.Add(EncodeHop(nil, inst, seedHop()), uint16(inst))
	}
	f.Fuzz(func(t *testing.T, data []byte, instBits uint16) {
		inst := Instruction(instBits)
		m, rest, err := DecodeHop(data, inst)
		if err != nil {
			return
		}
		if len(rest) != len(data)-inst.BytesPerHop() {
			t.Fatalf("rest = %d bytes, want %d", len(rest), len(data)-inst.BytesPerHop())
		}
		re := EncodeHop(nil, inst, m)
		if len(re) != inst.BytesPerHop() {
			t.Fatalf("re-encode = %d bytes, want %d", len(re), inst.BytesPerHop())
		}
		m2, _, err := DecodeHop(re, inst)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if m2 != m {
			t.Fatalf("round trip changed hop: %+v -> %+v", m, m2)
		}
	})
}

func FuzzDecodeReport(f *testing.F) {
	f.Add(seedReport().Encode(InstAll))
	f.Add(seedReport().Encode(InstQueue | InstIngressTS | InstEgressTS))
	f.Add((&Report{Src: netip.MustParseAddr("0.0.0.0"), Dst: netip.MustParseAddr("0.0.0.0")}).Encode(0))
	// Truncated datagrams, as an impaired wire delivers them: cut
	// below the fixed header and cut mid-hop-stack.
	f.Add(seedReport().Encode(InstAll)[:20])
	full := seedReport().Encode(InstAll)
	f.Add(full[:len(full)-5])
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeReport(data)
		if err != nil {
			return
		}
		// Fields the wire's instruction bitmap omitted decode to zero,
		// so re-encoding with the full bitmap and decoding again must
		// reproduce the report exactly.
		re := r.Encode(InstAll)
		r2, err := DecodeReport(re)
		if err != nil {
			t.Fatalf("re-decode of re-encoded report: %v", err)
		}
		if !reflect.DeepEqual(r, r2) {
			t.Fatalf("round trip changed report:\n%+v\n%+v", r, r2)
		}
	})
}

var update = flag.Bool("update", false, "rewrite the committed seed corpus from the in-code seeds")

// TestFuzzSeedCorpus checks that the in-code seeds are committed as
// corpus files under testdata/fuzz/, so `go test` (no -fuzz) runs
// them from disk too; -update writes the missing ones.
func TestFuzzSeedCorpus(t *testing.T) {
	for _, h := range seedHeaders() {
		checkCorpusEntry(t, "FuzzDecodeHeader", fmt.Sprintf("[]byte(%q)\n", EncodeHeader(nil, h)))
	}
	for _, inst := range []Instruction{0, InstAll, InstQueue | InstIngressTS | InstEgressTS} {
		checkCorpusEntry(t, "FuzzDecodeHop",
			fmt.Sprintf("[]byte(%q)\nuint16(%d)\n", EncodeHop(nil, inst, seedHop()), uint16(inst)))
	}
	full := seedReport().Encode(InstAll)
	checkCorpusEntry(t, "FuzzDecodeReport", fmt.Sprintf("[]byte(%q)\n", full))
	checkCorpusEntry(t, "FuzzDecodeReport", fmt.Sprintf("[]byte(%q)\n", full[:20]))
	checkCorpusEntry(t, "FuzzDecodeReport", fmt.Sprintf("[]byte(%q)\n", full[:len(full)-5]))
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
