package telemetry

import (
	"testing"
	"testing/quick"

	"github.com/amlight/intddos/internal/netsim"
)

func TestInstructionWordsPerHop(t *testing.T) {
	cases := []struct {
		inst Instruction
		want int
	}{
		{0, 0},
		{InstSwitchID, 1},
		{InstSwitchID | InstQueue, 2},
		{InstAll, 6},
	}
	for _, c := range cases {
		if got := c.inst.WordsPerHop(); got != c.want {
			t.Errorf("WordsPerHop(%#x) = %d, want %d", uint16(c.inst), got, c.want)
		}
		if got := c.inst.BytesPerHop(); got != 4*c.want {
			t.Errorf("BytesPerHop(%#x) = %d, want %d", uint16(c.inst), got, 4*c.want)
		}
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	h := Header{
		Version:      Version,
		HopML:        uint8(InstAll.WordsPerHop()),
		RemainingHop: 8,
		Instructions: InstAll,
		DomainID:     0xDEADBEEF,
	}
	buf := EncodeHeader(nil, h)
	if len(buf) != HeaderLen {
		t.Fatalf("encoded length %d, want %d", len(buf), HeaderLen)
	}
	got, rest, err := DecodeHeader(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Errorf("rest = %d bytes, want 0", len(rest))
	}
	if got != h {
		t.Errorf("round trip = %+v, want %+v", got, h)
	}
}

func TestDecodeHeaderErrors(t *testing.T) {
	if _, _, err := DecodeHeader(make([]byte, 5)); err == nil {
		t.Error("short buffer accepted")
	}
	h := Header{Version: Version, HopML: uint8(InstAll.WordsPerHop()), Instructions: InstAll}
	buf := EncodeHeader(nil, h)
	buf[0] = 0x10 // version 1
	if _, _, err := DecodeHeader(buf); err == nil {
		t.Error("bad version accepted")
	}
	buf = EncodeHeader(nil, h)
	buf[2] = 3 // hopML inconsistent with instructions
	if _, _, err := DecodeHeader(buf); err == nil {
		t.Error("bad hopML accepted")
	}
}

func TestHopRoundTripFullInstructions(t *testing.T) {
	m := HopMetadata{
		SwitchID:    7,
		IngressPort: 1,
		EgressPort:  2,
		HopLatency:  12345,
		QueueID:     3,
		QueueDepth:  991,
		IngressTS:   0xFFFFFFF0,
		EgressTS:    0x00000010,
	}
	buf := EncodeHop(nil, InstAll, m)
	if len(buf) != InstAll.BytesPerHop() {
		t.Fatalf("encoded %d bytes, want %d", len(buf), InstAll.BytesPerHop())
	}
	got, rest, err := DecodeHop(buf, InstAll)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Errorf("rest = %d bytes", len(rest))
	}
	if got != m {
		t.Errorf("round trip = %+v, want %+v", got, m)
	}
}

func TestHopRoundTripSubsetInstructions(t *testing.T) {
	inst := InstQueue | InstIngressTS | InstEgressTS // the paper's 3 fields
	m := HopMetadata{QueueDepth: 55, IngressTS: 100, EgressTS: 200}
	buf := EncodeHop(nil, inst, m)
	if len(buf) != 12 {
		t.Fatalf("encoded %d bytes, want 12", len(buf))
	}
	got, _, err := DecodeHop(buf, inst)
	if err != nil {
		t.Fatal(err)
	}
	if got != m {
		t.Errorf("round trip = %+v, want %+v", got, m)
	}
}

func TestDecodeHopShortBuffer(t *testing.T) {
	if _, _, err := DecodeHop(make([]byte, 3), InstAll); err == nil {
		t.Error("short hop buffer accepted")
	}
}

func TestHopRoundTripProperty(t *testing.T) {
	f := func(swid uint32, inPort, egPort uint16, lat, depth uint32, its, ets uint32) bool {
		m := HopMetadata{
			SwitchID:    swid,
			IngressPort: inPort,
			EgressPort:  egPort,
			HopLatency:  lat,
			QueueDepth:  depth & 0x00FFFFFF, // 24-bit field on the wire
			IngressTS:   netsim.Timestamp32(its),
			EgressTS:    netsim.Timestamp32(ets),
		}
		buf := EncodeHop(nil, InstAll, m)
		got, _, err := DecodeHop(buf, InstAll)
		return err == nil && got == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHopFromRecordTruncatesTimestamps(t *testing.T) {
	rec := netsim.HopRecord{
		SwitchID:    1,
		IngressPort: 1,
		EgressPort:  2,
		IngressTime: netsim.Time(1<<32) + 100, // past one wrap
		EgressTime:  netsim.Time(1<<32) + 500,
		QueueDepth:  9,
	}
	m := HopFromRecord(rec)
	if m.IngressTS != 100 || m.EgressTS != 500 {
		t.Errorf("timestamps = %d/%d, want 100/500 (wrapped)", m.IngressTS, m.EgressTS)
	}
	if m.HopLatency != 400 {
		t.Errorf("hop latency = %d, want 400", m.HopLatency)
	}
	if m.QueueDepth != 9 {
		t.Errorf("queue depth = %d, want 9", m.QueueDepth)
	}
}
