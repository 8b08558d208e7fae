package telemetry

import (
	"net/netip"
	"testing"

	"github.com/amlight/intddos/internal/netsim"
)

// intTestbed builds the Figure 6 single-switch topology: source host
// on port 1, target on port 2, external loop between ports 3 and 4,
// collector on port 5. Data path: 1 → 3 →(loop)→ 4 → 2, so each
// packet transits the switch twice and accumulates two hops.
type intTestbed struct {
	eng       *netsim.Engine
	src, dst  *netsim.Host
	sw        *netsim.Switch
	agent     *Agent
	collector *Collector
}

func newINTTestbed(t *testing.T, sampler Sampler) *intTestbed {
	t.Helper()
	eng := netsim.NewEngine()
	src := netsim.NewHost(eng, "source", netip.MustParseAddr("10.0.0.1"))
	dst := netsim.NewHost(eng, "target", netip.MustParseAddr("10.0.0.2"))
	colHost := netsim.NewHost(eng, "collector", netip.MustParseAddr("10.0.0.5"))
	sw := netsim.NewSwitch(eng, netsim.DefaultSwitchConfig(1))

	fwd := netsim.NewStaticForwarder()
	fwd.ByIngress[1] = 3 // first pass: out the loop
	fwd.ByIngress[4] = 2 // second pass: toward the target
	sw.Forwarder = fwd

	src.Attach(netsim.Microsecond, sw.Port(1))
	sw.Connect(3, netsim.Microsecond, sw.Port(4)) // external loopback cable
	sw.Connect(2, netsim.Microsecond, dst)

	collector := NewCollector(eng)
	colHost.OnReceive = collector.Receive
	reportWire := netsim.NewLink(eng, netsim.Microsecond, colHost)
	sw.Connect(5, netsim.Microsecond, colHost)

	agent := NewAgent(eng, sw, AgentConfig{
		SourcePorts:   []uint16{3},
		SinkPorts:     []uint16{2},
		CollectorAddr: colHost.Addr,
		ReportWire:    reportWire,
		Sampler:       sampler,
		DomainID:      1,
	})
	return &intTestbed{eng: eng, src: src, dst: dst, sw: sw, agent: agent, collector: collector}
}

func (tb *intTestbed) sendTCP(n int) {
	// Pace packets so bursts fit the egress queues.
	for i := 0; i < n; i++ {
		sendAt(tb.eng, tb.src, netsim.Time(i)*10*netsim.Microsecond, &netsim.Packet{
			Dst: tb.dst.Addr, SrcPort: 40000, DstPort: 80,
			Proto: netsim.TCP, Flags: netsim.FlagSYN, Length: 400,
			Label: true, AttackType: "synflood",
		})
	}
}

func TestAgentEndToEndReport(t *testing.T) {
	tb := newINTTestbed(t, nil)
	var reports []*Report
	tb.collector.OnReport = func(r *Report, at netsim.Time) { reports = append(reports, r) }
	tb.sendTCP(1)
	tb.eng.Run()

	if tb.dst.Received != 1 {
		t.Fatalf("target received %d, want 1", tb.dst.Received)
	}
	if len(reports) != 1 {
		t.Fatalf("collector got %d reports, want 1", len(reports))
	}
	r := reports[0]
	if len(r.Hops) != 2 {
		t.Fatalf("hops = %d, want 2 (double transit through the loop)", len(r.Hops))
	}
	if r.Hops[0].EgressPort != 3 || r.Hops[1].EgressPort != 2 {
		t.Errorf("hop egress ports = %d,%d, want 3,2", r.Hops[0].EgressPort, r.Hops[1].EgressPort)
	}
	if r.Length != 400 {
		t.Errorf("report length = %d, want original 400", r.Length)
	}
	if r.Proto != netsim.TCP || !r.Flags.Has(netsim.FlagSYN) {
		t.Errorf("proto/flags = %v/%v", r.Proto, r.Flags)
	}
	if !r.Truth.Label || r.Truth.AttackType != "synflood" {
		t.Errorf("truth bookkeeping lost: %+v", r.Truth)
	}
}

func TestAgentStripsOverheadBeforeDelivery(t *testing.T) {
	tb := newINTTestbed(t, nil)
	var deliveredLen int
	tb.dst.OnReceive = func(p *netsim.Packet) { deliveredLen = p.Length }
	tb.sendTCP(1)
	tb.eng.Run()
	if deliveredLen != 400 {
		t.Errorf("delivered length = %d, want 400 (INT stripped at sink)", deliveredLen)
	}
	if tb.agent.OverheadB == 0 {
		t.Error("no INT overhead accounted — header was never added")
	}
	// Header once + metadata twice (two hops).
	wantOverhead := int64(HeaderLen + 2*InstAll.BytesPerHop())
	if tb.agent.OverheadB != wantOverhead {
		t.Errorf("overhead = %d, want %d", tb.agent.OverheadB, wantOverhead)
	}
}

func TestAgentEveryPacketInstrumented(t *testing.T) {
	tb := newINTTestbed(t, nil)
	tb.sendTCP(50)
	tb.eng.Run()
	if tb.agent.Instrumented != 50 {
		t.Errorf("instrumented = %d, want 50", tb.agent.Instrumented)
	}
	if tb.collector.Received != 50 {
		t.Errorf("collector received = %d, want 50", tb.collector.Received)
	}
	if tb.collector.SeqGaps != 0 {
		t.Errorf("seq gaps = %d, want 0", tb.collector.SeqGaps)
	}
}

func TestAgentProbabilisticSampling(t *testing.T) {
	tb := newINTTestbed(t, NewProbabilistic(0.25, 7))
	tb.sendTCP(2000)
	tb.eng.Run()
	got := tb.agent.Instrumented
	if got < 400 || got > 600 {
		t.Errorf("instrumented = %d of 2000 at p=0.25, want ≈500", got)
	}
	if tb.collector.Received != got {
		t.Errorf("collector received %d, want %d", tb.collector.Received, got)
	}
	// All packets still delivered regardless of sampling.
	if tb.dst.Received != 2000 {
		t.Errorf("target received %d, want 2000", tb.dst.Received)
	}
}

// everyNth instruments one packet in every n.
type everyNth struct{ n, count int }

func (s *everyNth) Sample(*netsim.Packet) bool {
	s.count++
	if s.count >= s.n {
		s.count = 0
		return true
	}
	return false
}

// TestAgentEveryNthSampling pins that the agent instruments exactly
// the packets its Sampler picks.
func TestAgentEveryNthSampling(t *testing.T) {
	tb := newINTTestbed(t, &everyNth{n: 10})
	tb.sendTCP(100)
	tb.eng.Run()
	if tb.agent.Instrumented != 10 {
		t.Errorf("instrumented = %d, want 10", tb.agent.Instrumented)
	}
}

func TestAgentReportsNotThemselvesInstrumented(t *testing.T) {
	// Reports leave via port 5, which is neither source nor sink; but
	// even if report datagrams crossed a source port they must not be
	// tagged. Simulate by making every port a source port.
	tb := newINTTestbed(t, nil)
	cfgPorts := []uint16{2, 3, 5}
	agent2 := NewAgent(tb.eng, tb.sw, AgentConfig{
		SourcePorts: cfgPorts, SinkPorts: nil,
	})
	tb.sendTCP(5)
	tb.eng.Run()
	// agent2 must not have instrumented the 5 report datagrams (they
	// carry Payload). It may instrument data packets on port 2.
	if agent2.Instrumented > 10 {
		t.Errorf("second agent instrumented %d, suspicious", agent2.Instrumented)
	}
	if tb.collector.DecodeErrors != 0 {
		t.Errorf("decode errors = %d", tb.collector.DecodeErrors)
	}
}

func TestAgentMaxHopsBudget(t *testing.T) {
	eng := netsim.NewEngine()
	src := netsim.NewHost(eng, "src", netip.MustParseAddr("10.0.0.1"))
	dst := netsim.NewHost(eng, "dst", netip.MustParseAddr("10.0.0.2"))
	colHost := netsim.NewHost(eng, "col", netip.MustParseAddr("10.0.0.5"))
	collector := NewCollector(eng)
	colHost.OnReceive = collector.Receive

	sw := netsim.NewSwitch(eng, netsim.DefaultSwitchConfig(1))
	fwd := netsim.NewStaticForwarder()
	// Loop through the switch 4 times: 1→3, 4→5... use ports 1..8.
	fwd.ByIngress[1] = 3
	fwd.ByIngress[4] = 6
	fwd.ByIngress[7] = 8
	sw.Forwarder = fwd
	src.Attach(0, sw.Port(1))
	sw.Connect(3, 0, sw.Port(4))
	sw.Connect(6, 0, sw.Port(7))
	sw.Connect(8, 0, dst)

	wire := netsim.NewLink(eng, 0, colHost)
	agent := NewAgent(eng, sw, AgentConfig{
		SourcePorts: []uint16{3}, SinkPorts: []uint16{8},
		maxHops: 2, ReportWire: wire, CollectorAddr: colHost.Addr,
	})
	var rep *Report
	collector.OnReport = func(r *Report, _ netsim.Time) { rep = r }
	src.Send(&netsim.Packet{Dst: dst.Addr, Proto: netsim.UDP, Length: 300})
	eng.Run()
	if rep == nil {
		t.Fatal("no report")
	}
	if len(rep.Hops) != 2 {
		t.Errorf("hops = %d, want 2 (MaxHops budget)", len(rep.Hops))
	}
	_ = agent
}

func TestCollectorSeqGapDetection(t *testing.T) {
	eng := netsim.NewEngine()
	c := NewCollector(eng)
	mk := func(seq uint64) *netsim.Packet {
		r := &Report{Seq: seq, Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("10.0.0.2")}
		return &netsim.Packet{Payload: r.Encode(InstAll)}
	}
	c.Receive(mk(1))
	c.Receive(mk(2))
	c.Receive(mk(5)) // 3, 4 lost
	if c.SeqGaps != 2 {
		t.Errorf("SeqGaps = %d, want 2", c.SeqGaps)
	}
	if c.Received != 3 {
		t.Errorf("Received = %d, want 3", c.Received)
	}
}

func TestCollectorDecodeErrorCounting(t *testing.T) {
	eng := netsim.NewEngine()
	c := NewCollector(eng)
	c.Receive(&netsim.Packet{Payload: []byte("garbage")})
	if c.DecodeErrors != 1 || c.Received != 0 {
		t.Errorf("errors=%d received=%d, want 1/0", c.DecodeErrors, c.Received)
	}
}

// sendAt schedules h to send p at virtual time at.
func sendAt(eng *netsim.Engine, h *netsim.Host, at netsim.Time, p *netsim.Packet) {
	eng.Schedule(at, func() { h.Send(p) })
}
