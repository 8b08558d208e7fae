package telemetry

import (
	"net/netip"
	"testing"

	"github.com/amlight/intddos/internal/netsim"
)

func sampleReport() *Report {
	return &Report{
		Seq:     42,
		Src:     netip.MustParseAddr("192.0.2.1"),
		Dst:     netip.MustParseAddr("198.51.100.7"),
		SrcPort: 51234,
		DstPort: 80,
		Proto:   netsim.TCP,
		Flags:   netsim.FlagSYN,
		Length:  1500,
		Hops: []HopMetadata{
			{SwitchID: 1, IngressPort: 1, EgressPort: 3, HopLatency: 900, QueueDepth: 4, IngressTS: 1000, EgressTS: 1900},
			{SwitchID: 1, IngressPort: 4, EgressPort: 2, HopLatency: 700, QueueDepth: 2, IngressTS: 2500, EgressTS: 3200},
		},
	}
}

func TestReportRoundTrip(t *testing.T) {
	r := sampleReport()
	buf := r.Encode(InstAll)
	got, err := DecodeReport(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != r.Seq || got.Src != r.Src || got.Dst != r.Dst ||
		got.SrcPort != r.SrcPort || got.DstPort != r.DstPort ||
		got.Proto != r.Proto || got.Flags != r.Flags || got.Length != r.Length {
		t.Errorf("header fields differ: got %+v", got)
	}
	if len(got.Hops) != 2 {
		t.Fatalf("hops = %d, want 2", len(got.Hops))
	}
	for i := range r.Hops {
		if got.Hops[i] != r.Hops[i] {
			t.Errorf("hop %d = %+v, want %+v", i, got.Hops[i], r.Hops[i])
		}
	}
}

func TestReportDecodeErrors(t *testing.T) {
	if _, err := DecodeReport(nil); err == nil {
		t.Error("nil buffer accepted")
	}
	buf := sampleReport().Encode(InstAll)
	buf[0] = 'X'
	if _, err := DecodeReport(buf); err == nil {
		t.Error("bad magic accepted")
	}
	good := sampleReport().Encode(InstAll)
	if _, err := DecodeReport(good[:len(good)-5]); err == nil {
		t.Error("truncated hop stack accepted")
	}
}

func TestReportPathLatencyWrapAware(t *testing.T) {
	r := &Report{Hops: []HopMetadata{
		{IngressTS: 0xFFFFFF00, EgressTS: 0x00000100}, // crosses the wrap: 0x200 ns
		{IngressTS: 1000, EgressTS: 1500},             // 500 ns
	}}
	if got := r.PathLatency(); got != 0x200+500 {
		t.Errorf("PathLatency = %d, want %d", got, 0x200+500)
	}
}

func TestReportHopAccessors(t *testing.T) {
	r := sampleReport()
	last, ok := r.LastHop()
	if !ok || last.IngressTS != 2500 {
		t.Errorf("LastHop = %+v ok=%v", last, ok)
	}
	empty := &Report{}
	if _, ok := empty.LastHop(); ok {
		t.Error("LastHop on empty stack reported ok")
	}
}

func TestReportTruthNotSerialized(t *testing.T) {
	r := sampleReport()
	r.Truth = Truth{Label: true, AttackType: "synflood"}
	got, err := DecodeReport(r.Encode(InstAll))
	if err != nil {
		t.Fatal(err)
	}
	if got.Truth.Label || got.Truth.AttackType != "" {
		t.Error("ground-truth labels leaked onto the wire")
	}
}

// TestDecodeReportAllocs pins the decode's allocations. A caller that
// keeps the report allocates it, with room for the usual hop stack
// inside, once, and a deeper stack once more. A caller that keeps
// nothing of it keeps it in its own frame — DecodeReport inlines — and
// allocates only a stack too deep for that room. That zero holds only
// while the compiler inlines DecodeReport, which depends on its cost
// model: on go1.24.0 the wrapper costs 80 of a budget of 80, with or
// without coverage counters. A coverage run skips the zero, so a
// toolchain whose counters tip the wrapper over the budget does not
// report it as a regression; the kept-report cases hold regardless.
func TestDecodeReportAllocs(t *testing.T) {
	inlined := testing.CoverMode() == ""
	r := sampleReport()
	for hops, want := range map[int][2]float64{0: {0, 1}, 2: {0, 1}, inlineHops: {0, 1}, inlineHops + 1: {1, 2}} {
		r.Hops = make([]HopMetadata, hops)
		for i := range r.Hops {
			r.Hops[i] = HopMetadata{SwitchID: uint32(i + 1), QueueDepth: 7, IngressTS: 10, EgressTS: 30}
		}
		buf := r.Encode(InstAll)
		var last HopMetadata
		allocs := testing.AllocsPerRun(200, func() {
			if got, err := DecodeReport(buf); err == nil {
				last, _ = got.LastHop()
			}
		})
		if inlined && allocs != want[0] {
			t.Errorf("%d hops, report not kept: DecodeReport allocates %.0f objects, want %.0f", hops, allocs, want[0])
		}
		if hops > 0 && last != r.Hops[hops-1] {
			t.Errorf("%d hops, report not kept: last hop %+v", hops, last)
		}
		var got *Report
		allocs = testing.AllocsPerRun(200, func() { got, _ = DecodeReport(buf) })
		if allocs != want[1] {
			t.Errorf("%d hops, report kept: DecodeReport allocates %.0f objects, want %.0f", hops, allocs, want[1])
		}
		if len(got.Hops) != hops || (hops > 0 && got.Hops[hops-1] != r.Hops[hops-1]) {
			t.Errorf("%d hops: decoded stack %+v", hops, got.Hops)
		}
	}
}
