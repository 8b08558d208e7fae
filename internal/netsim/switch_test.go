package netsim

import (
	"net/netip"
	"testing"
)

// twoHostTopology wires hostA -> switch port 1 -> port 2 -> hostB.
func twoHostTopology(eng *Engine) (*Host, *Host, *Switch) {
	a := NewHost(eng, "a", netip.MustParseAddr("10.0.0.1"))
	b := NewHost(eng, "b", netip.MustParseAddr("10.0.0.2"))
	sw := NewSwitch(eng, DefaultSwitchConfig(1))
	fwd := NewStaticForwarder()
	fwd.ByDst[a.Addr] = 1
	fwd.ByDst[b.Addr] = 2
	sw.Forwarder = fwd
	a.Attach(1*Microsecond, sw.Port(1))
	b.Attach(1*Microsecond, sw.Port(2))
	sw.Connect(1, 1*Microsecond, a)
	sw.Connect(2, 1*Microsecond, b)
	return a, b, sw
}

func TestSwitchDeliversEndToEnd(t *testing.T) {
	eng := NewEngine()
	a, b, sw := twoHostTopology(eng)
	var got *Packet
	b.OnReceive = func(p *Packet) { got = p }
	p := &Packet{Dst: b.Addr, DstPort: 80, SrcPort: 12345, Proto: TCP, Length: 1000}
	a.Send(p)
	eng.Run()
	if got == nil {
		t.Fatal("packet not delivered")
	}
	if got.Src != a.Addr {
		t.Errorf("Src = %v, want %v", got.Src, a.Addr)
	}
	if got.DeliveredAt == 0 {
		t.Error("DeliveredAt not stamped")
	}
	if sw.RxPackets != 1 || sw.TxPackets != 1 {
		t.Errorf("switch rx=%d tx=%d, want 1/1", sw.RxPackets, sw.TxPackets)
	}
}

func TestSwitchHopRecord(t *testing.T) {
	eng := NewEngine()
	a, b, sw := twoHostTopology(eng)
	var got *Packet
	b.OnReceive = func(p *Packet) { got = p }
	a.Send(&Packet{Dst: b.Addr, Proto: UDP, Length: 500})
	eng.Run()
	if got == nil {
		t.Fatal("packet not delivered")
	}
	if len(got.Hops) != 1 {
		t.Fatalf("hops = %d, want 1", len(got.Hops))
	}
	h := got.Hops[0]
	if h.SwitchID != sw.cfg.ID {
		t.Errorf("SwitchID = %d, want %d", h.SwitchID, sw.cfg.ID)
	}
	if h.IngressPort != 1 || h.EgressPort != 2 {
		t.Errorf("ports = %d->%d, want 1->2", h.IngressPort, h.EgressPort)
	}
	if h.EgressTime <= h.IngressTime {
		t.Errorf("egress %v not after ingress %v", h.EgressTime, h.IngressTime)
	}
	if lat := h.EgressTime - h.IngressTime; lat < sw.cfg.PipelineDelay {
		t.Errorf("hop latency %v below pipeline delay", lat)
	}
	if h.QueueDepth != 0 {
		t.Errorf("lone packet saw queue depth %d, want 0", h.QueueDepth)
	}
}

func TestSwitchQueueDepthUnderBurst(t *testing.T) {
	eng := NewEngine()
	a, b, _ := twoHostTopology(eng)
	var depths []int
	b.OnReceive = func(p *Packet) {
		h := p.Hops[len(p.Hops)-1]
		depths = append(depths, h.QueueDepth)
	}
	// Burst of simultaneous sends: later packets must observe deeper queues.
	for i := 0; i < 10; i++ {
		a.Send(&Packet{Dst: b.Addr, Proto: TCP, Length: 1500})
	}
	eng.Run()
	if len(depths) != 10 {
		t.Fatalf("delivered %d, want 10", len(depths))
	}
	if depths[0] != 9 || depths[9] != 0 {
		t.Errorf("depths = %v, want first 9, last 0", depths)
	}
}

func TestSwitchDropsUnroutable(t *testing.T) {
	eng := NewEngine()
	a, _, sw := twoHostTopology(eng)
	p := &Packet{Dst: netip.MustParseAddr("192.0.2.99"), Proto: TCP, Length: 100}
	a.Send(p)
	eng.Run()
	if sw.FwdDrops != 1 {
		t.Errorf("FwdDrops = %d, want 1", sw.FwdDrops)
	}
	if !p.Dropped {
		t.Error("unroutable packet not marked Dropped")
	}
}

func TestSwitchQueueOverflowDrops(t *testing.T) {
	eng := NewEngine()
	cfg := DefaultSwitchConfig(1)
	cfg.QueueCapPackets = 4
	a := NewHost(eng, "a", netip.MustParseAddr("10.0.0.1"))
	b := NewHost(eng, "b", netip.MustParseAddr("10.0.0.2"))
	sw := NewSwitch(eng, cfg)
	fwd := NewStaticForwarder()
	fwd.ByDst[b.Addr] = 2
	sw.Forwarder = fwd
	a.Attach(0, sw.Port(1))
	sw.Connect(2, 0, b)
	for i := 0; i < 20; i++ {
		a.Send(&Packet{Dst: b.Addr, Proto: UDP, Length: 1500})
	}
	eng.Run()
	if sw.QueueDrops == 0 {
		t.Error("expected queue drops under overload")
	}
	if b.Received+sw.QueueDrops != 20 {
		t.Errorf("delivered %d + dropped %d != 20", b.Received, sw.QueueDrops)
	}
}

func TestSwitchIngressOverrideForwarding(t *testing.T) {
	eng := NewEngine()
	a, b, sw := twoHostTopology(eng)
	// Override: everything arriving on port 1 goes to port 2 regardless
	// of destination (models the testbed port loop wiring).
	fwd := sw.Forwarder.(*StaticForwarder)
	fwd.ByIngress[1] = 2
	var got int
	b.OnReceive = func(p *Packet) { got++ }
	a.Send(&Packet{Dst: netip.MustParseAddr("203.0.113.50"), Proto: TCP, Length: 100})
	eng.Run()
	if got != 1 {
		t.Errorf("ingress override delivered %d, want 1", got)
	}
}

func TestSwitchOnForwardHook(t *testing.T) {
	eng := NewEngine()
	a, b, sw := twoHostTopology(eng)
	var hookPort uint16
	var hookHop HopRecord
	sw.OnForward = func(p *Packet, hop HopRecord, egress uint16) {
		hookPort = egress
		hookHop = hop
	}
	a.Send(&Packet{Dst: b.Addr, Proto: TCP, Length: 100})
	eng.Run()
	if hookPort != 2 {
		t.Errorf("hook egress = %d, want 2", hookPort)
	}
	if hookHop.SwitchID != sw.cfg.ID {
		t.Errorf("hook hop switch = %d, want %d", hookHop.SwitchID, sw.cfg.ID)
	}
}

func TestTCPFlagsString(t *testing.T) {
	if got := (FlagSYN | FlagACK).String(); got != "SYN|ACK" {
		t.Errorf("flags = %q, want SYN|ACK", got)
	}
	if got := TCPFlags(0).String(); got != "-" {
		t.Errorf("zero flags = %q, want -", got)
	}
	if !(FlagSYN | FlagACK).Has(FlagSYN) {
		t.Error("Has(SYN) = false on SYN|ACK")
	}
	if (FlagSYN).Has(FlagSYN | FlagACK) {
		t.Error("Has(SYN|ACK) = true on bare SYN")
	}
}

func TestProtoString(t *testing.T) {
	if TCP.String() != "TCP" || UDP.String() != "UDP" || ICMP.String() != "ICMP" {
		t.Error("proto names wrong")
	}
	if Proto(99).String() != "proto(99)" {
		t.Errorf("unknown proto = %q", Proto(99).String())
	}
}
