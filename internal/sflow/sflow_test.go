package sflow

import (
	"net/netip"
	"testing"
	"testing/quick"

	"github.com/amlight/intddos/internal/netsim"
)

func sampleFlow() *FlowSample {
	return &FlowSample{
		Seq:        9,
		SampleRate: 4096,
		SamplePool: 4100,
		InputPort:  1,
		OutputPort: 2,
		Src:        netip.MustParseAddr("192.0.2.10"),
		Dst:        netip.MustParseAddr("198.51.100.20"),
		SrcPort:    55555,
		DstPort:    443,
		Proto:      netsim.TCP,
		Flags:      netsim.FlagSYN | netsim.FlagACK,
		Length:     1500,
	}
}

func TestFlowSampleRoundTrip(t *testing.T) {
	s := sampleFlow()
	fs, err := Decode(EncodeFlowSample(s))
	if err != nil {
		t.Fatal(err)
	}
	want := *s
	if *fs != want {
		t.Errorf("round trip = %+v, want %+v", *fs, want)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(nil); err == nil {
		t.Error("nil accepted")
	}
	if _, err := Decode([]byte("XXXXXXXX")); err == nil {
		t.Error("bad magic accepted")
	}
	buf := EncodeFlowSample(sampleFlow())
	if _, err := Decode(buf[:20]); err == nil {
		t.Error("truncated flow sample accepted")
	}
	for _, rec := range []byte{2, 99} { // 2 was the interface counter sample
		buf[5] = rec
		if _, err := Decode(buf); err == nil {
			t.Errorf("record type %d accepted", rec)
		}
	}
	buf[4] = 4 // version
	if _, err := Decode(buf); err == nil {
		t.Error("bad version accepted")
	}
}

func TestFlowSampleRoundTripProperty(t *testing.T) {
	f := func(seq uint64, rate, pool uint32, sport, dport uint16, length uint16) bool {
		s := &FlowSample{
			Seq: seq, SampleRate: rate, SamplePool: pool,
			Src: netip.MustParseAddr("10.1.2.3"), Dst: netip.MustParseAddr("10.4.5.6"),
			SrcPort: sport, DstPort: dport, Proto: netsim.UDP, Length: length,
		}
		got, err := Decode(EncodeFlowSample(s))
		return err == nil && *got == *s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// sflowTestbed: host a → switch(port 1 → 2) → host b, sFlow agent at
// the configured rate exporting toward a collector host.
func sflowTestbed(t *testing.T, cfg AgentConfig) (*netsim.Engine, *netsim.Host, *netsim.Host, *Agent, *Collector) {
	t.Helper()
	eng := netsim.NewEngine()
	a := netsim.NewHost(eng, "a", netip.MustParseAddr("10.0.0.1"))
	b := netsim.NewHost(eng, "b", netip.MustParseAddr("10.0.0.2"))
	colHost := netsim.NewHost(eng, "col", netip.MustParseAddr("10.0.0.9"))
	col := NewCollector(eng)
	colHost.OnReceive = col.Receive
	sw := netsim.NewSwitch(eng, netsim.DefaultSwitchConfig(1))
	fwd := netsim.NewStaticForwarder()
	fwd.ByDst[b.Addr] = 2
	sw.Forwarder = fwd
	a.Attach(0, sw.Port(1))
	sw.Connect(2, 0, b)
	cfg.CollectorAddr = colHost.Addr
	cfg.Wire = netsim.NewLink(eng, netsim.Microsecond, colHost)
	agent := NewAgent(eng, sw, cfg)
	return eng, a, b, agent, col
}

func TestAgentDeterministicSampling(t *testing.T) {
	eng, a, b, agent, col := sflowTestbed(t, AgentConfig{SampleRate: 10, deterministic: true})
	for i := 0; i < 100; i++ {
		sendAt(eng, a, netsim.Time(i)*100*netsim.Microsecond, &netsim.Packet{
			Dst: b.Addr, Proto: netsim.TCP, Length: 500,
		})
	}
	eng.Run()
	if agent.Observed != 100 {
		t.Errorf("observed = %d, want 100", agent.Observed)
	}
	if agent.Sampled != 10 {
		t.Errorf("sampled = %d, want 10 (1-in-10 of 100)", agent.Sampled)
	}
	if col.FlowSamples != 10 {
		t.Errorf("collector flow samples = %d, want 10", col.FlowSamples)
	}
}

func TestAgentRandomizedSamplingMean(t *testing.T) {
	eng, a, b, agent, _ := sflowTestbed(t, AgentConfig{SampleRate: 16, Seed: 3})
	n := 8000
	for i := 0; i < n; i++ {
		sendAt(eng, a, netsim.Time(i)*20*netsim.Microsecond, &netsim.Packet{
			Dst: b.Addr, Proto: netsim.UDP, Length: 200,
		})
	}
	eng.Run()
	want := n / 16
	if agent.Sampled < want*7/10 || agent.Sampled > want*13/10 {
		t.Errorf("sampled = %d of %d at 1/16, want ≈%d", agent.Sampled, n, want)
	}
}

func TestAgentSamplePoolAccounting(t *testing.T) {
	eng, a, b, _, col := sflowTestbed(t, AgentConfig{SampleRate: 10, deterministic: true})
	var pools []uint32
	col.OnFlowSample = func(s *FlowSample, _ netsim.Time) { pools = append(pools, s.SamplePool) }
	for i := 0; i < 30; i++ {
		sendAt(eng, a, netsim.Time(i)*100*netsim.Microsecond, &netsim.Packet{
			Dst: b.Addr, Proto: netsim.TCP, Length: 500,
		})
	}
	eng.Run()
	if len(pools) != 3 {
		t.Fatalf("samples = %d, want 3", len(pools))
	}
	for _, p := range pools {
		if p != 10 {
			t.Errorf("sample pool = %d, want 10", p)
		}
	}
}

func TestAgentTruthPropagation(t *testing.T) {
	eng, a, b, _, col := sflowTestbed(t, AgentConfig{SampleRate: 1, deterministic: true})
	var got []Truth
	col.OnFlowSample = func(s *FlowSample, _ netsim.Time) { got = append(got, s.Truth) }
	a.Send(&netsim.Packet{Dst: b.Addr, Proto: netsim.TCP, Length: 100, Label: true, AttackType: "synscan"})
	eng.Run()
	if len(got) != 1 || !got[0].Label || got[0].AttackType != "synscan" {
		t.Errorf("truth = %+v", got)
	}
}

func TestAgentLowRateFlowEscapesSampling(t *testing.T) {
	// The paper's core sFlow limitation: a SlowLoris-style flow with
	// few packets is invisible at 1/4096 sampling. Send 50 packets
	// through an agent sampling 1/4096: expect zero samples.
	eng, a, b, agent, _ := sflowTestbed(t, AgentConfig{SampleRate: 4096, deterministic: true})
	for i := 0; i < 50; i++ {
		sendAt(eng, a, netsim.Time(i)*netsim.Millisecond, &netsim.Packet{
			Dst: b.Addr, Proto: netsim.TCP, Length: 80, Label: true, AttackType: "slowloris",
		})
	}
	eng.Run()
	if agent.Sampled != 0 {
		t.Errorf("sampled = %d, want 0 — low-rate flow must escape 1/4096 sampling", agent.Sampled)
	}
}

func TestCollectorDecodeErrorCount(t *testing.T) {
	eng := netsim.NewEngine()
	col := NewCollector(eng)
	col.Receive(&netsim.Packet{Payload: []byte("junk!")})
	if col.DecodeErrors != 1 {
		t.Errorf("decode errors = %d, want 1", col.DecodeErrors)
	}
}

// sendAt schedules h to send p at virtual time at.
func sendAt(eng *netsim.Engine, h *netsim.Host, at netsim.Time, p *netsim.Packet) {
	eng.Schedule(at, func() { h.Send(p) })
}
