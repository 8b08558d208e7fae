package netsim

import (
	"net/netip"
	"testing"
)

func aclPkt(src string, sport uint16) *Packet {
	return &Packet{
		Src: netip.MustParseAddr(src), Dst: netip.MustParseAddr("10.0.0.2"),
		SrcPort: sport, DstPort: 80, Proto: TCP, Length: 100,
	}
}

func TestACLExactMatch(t *testing.T) {
	var a ACL
	a.Install(ACLRule{
		Src: netip.MustParseAddr("203.0.113.77"), Dst: netip.MustParseAddr("10.0.0.2"),
		SrcPort: 5, DstPort: 80, Proto: TCP,
	})
	if !a.Match(aclPkt("203.0.113.77", 5), 0) {
		t.Error("exact rule did not match")
	}
	if a.Match(aclPkt("203.0.113.77", 6), 0) {
		t.Error("different sport matched")
	}
	if a.Match(aclPkt("203.0.113.78", 5), 0) {
		t.Error("different src matched")
	}
	if a.Hits != 1 {
		t.Errorf("hits = %d", a.Hits)
	}
}

func TestACLSourceWildcard(t *testing.T) {
	var a ACL
	a.Install(ACLRule{Src: netip.MustParseAddr("203.0.113.77")})
	for _, sport := range []uint16{1, 999, 40000} {
		if !a.Match(aclPkt("203.0.113.77", sport), 0) {
			t.Errorf("source rule missed sport %d", sport)
		}
	}
	if a.Match(aclPkt("10.9.9.9", 1), 0) {
		t.Error("other source matched")
	}
}

func TestACLExpiry(t *testing.T) {
	var a ACL
	a.Install(ACLRule{Src: netip.MustParseAddr("203.0.113.77"), ExpiresAt: 100})
	if !a.Match(aclPkt("203.0.113.77", 1), 50) {
		t.Error("live rule missed")
	}
	if a.Match(aclPkt("203.0.113.77", 1), 100) {
		t.Error("expired rule matched")
	}
}

func TestACLForwarderDropsInDataPlane(t *testing.T) {
	eng := NewEngine()
	a := NewHost(eng, "a", netip.MustParseAddr("10.0.0.1"))
	b := NewHost(eng, "b", netip.MustParseAddr("10.0.0.2"))
	sw := NewSwitch(eng, DefaultSwitchConfig(1))
	base := NewStaticForwarder()
	base.ByDst[b.Addr] = 2
	aclFwd := NewACLForwarder(eng, base)
	sw.Forwarder = aclFwd
	a.Attach(0, sw.Port(1))
	sw.Connect(2, 0, b)

	// Pre-rule traffic passes.
	a.Send(&Packet{Dst: b.Addr, SrcPort: 7, DstPort: 80, Proto: TCP, Length: 100})
	eng.Run()
	if b.Received != 1 {
		t.Fatalf("received = %d before rule", b.Received)
	}
	// Install a source drop, then the same sender is cut off.
	aclFwd.ACL.Install(ACLRule{Src: a.Addr})
	for i := 0; i < 5; i++ {
		a.Send(&Packet{Dst: b.Addr, SrcPort: uint16(10 + i), DstPort: 80, Proto: TCP, Length: 100})
	}
	eng.Run()
	if b.Received != 1 {
		t.Errorf("received = %d after rule, want still 1", b.Received)
	}
	if aclFwd.Dropped != 5 {
		t.Errorf("dropped = %d, want 5", aclFwd.Dropped)
	}
	if sw.FwdDrops != 5 {
		t.Errorf("switch fwd drops = %d", sw.FwdDrops)
	}
}

func TestACLForwarderIgnoresControlDatagrams(t *testing.T) {
	eng := NewEngine()
	var a ACL
	a.Install(ACLRule{}) // match-everything rule
	f := &ACLForwarder{eng: eng, ACL: &a, Next: portOne{}}
	report := &Packet{Payload: []byte{1, 2, 3}}
	if got := f.EgressPort(report, 1); got != 1 {
		t.Errorf("telemetry datagram dropped by ACL (port %d)", got)
	}
	data := &Packet{}
	if got := f.EgressPort(data, 1); got != -1 {
		t.Errorf("data packet passed the match-all rule (port %d)", got)
	}
}

// portOne forwards every packet to port 1.
type portOne struct{}

func (portOne) EgressPort(*Packet, uint16) int { return 1 }
