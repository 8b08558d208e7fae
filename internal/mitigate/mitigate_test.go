package mitigate

import (
	"net/netip"
	"testing"

	"github.com/amlight/intddos/internal/core"
	"github.com/amlight/intddos/internal/flow"
	"github.com/amlight/intddos/internal/netsim"
)

func attacker(sport uint16) flow.Key {
	return flow.Key{
		Src: netip.MustParseAddr("203.0.113.77"), Dst: netip.MustParseAddr("10.0.0.2"),
		SrcPort: sport, DstPort: 80, Proto: netsim.TCP,
	}
}

func decision(k flow.Key, label int, at netsim.Time) core.Decision {
	return core.Decision{Key: k, Label: label, At: at}
}

// drops reports whether g's rules, compiled into a data-plane ACL,
// drop a packet of flow k at now.
func drops(g *Generator, k flow.Key, now netsim.Time) bool {
	var acl netsim.ACL
	for _, r := range g.Rules() {
		acl.Install(Compile(r))
	}
	return acl.Match(packetOf(k), now)
}

func TestGeneratorIgnoresBenign(t *testing.T) {
	g := NewGenerator(Config{})
	g.HandleDecision(decision(attacker(1), 0, 0))
	if g.Len() != 0 {
		t.Errorf("benign decision generated %d rules", g.Len())
	}
}

func TestGeneratorFlowRule(t *testing.T) {
	g := NewGenerator(Config{TTL: netsim.Second})
	k := attacker(1)
	g.HandleDecision(decision(k, 1, 100))
	if g.Len() != 1 {
		t.Fatalf("rules = %d", g.Len())
	}
	if !drops(g, k, 200) {
		t.Error("flagged flow not matched")
	}
	if drops(g, attacker(2), 200) {
		t.Error("unrelated flow matched")
	}
	// Expiry.
	if drops(g, k, 100+netsim.Second+1) {
		t.Error("expired rule still matches")
	}
}

func TestGeneratorEscalatesToSource(t *testing.T) {
	g := NewGenerator(Config{})
	for p := uint16(1); p <= sourceThreshold; p++ {
		g.HandleDecision(decision(attacker(p), 1, netsim.Time(p)))
	}
	if g.Escalated != 1 {
		t.Fatalf("escalations = %d, want 1", g.Escalated)
	}
	// Any flow from that source now matches, even a fresh port.
	if !drops(g, attacker(999), 10) {
		t.Error("source rule did not cover new flow")
	}
}

// TestGeneratorEscalationForgets pins escalation to flows flagged
// within one TTL of each other: three flags spread over three TTLs
// leave the source with flow rules, three inside one TTL escalate it.
func TestGeneratorEscalationForgets(t *testing.T) {
	for _, c := range []struct {
		at   [sourceThreshold]netsim.Time
		want int
	}{
		{[sourceThreshold]netsim.Time{0, 150, 300}, 0},
		{[sourceThreshold]netsim.Time{0, 10, 20}, 1},
	} {
		g := NewGenerator(Config{TTL: 100})
		for i, at := range c.at {
			g.HandleDecision(decision(attacker(uint16(i+1)), 1, at))
		}
		if g.Escalated != c.want {
			t.Errorf("flags at %v: %d escalations, want %d", c.at, g.Escalated, c.want)
		}
	}
}

// TestGeneratorSweepsStaleFlows floods the generator with one-flow
// sources, as a spoofed flood makes them, over three TTLs: after one
// more decision, flowsBySrc holds only flows flagged in the last two
// TTLs, and no source without a flow.
func TestGeneratorSweepsStaleFlows(t *testing.T) {
	const ttl, sources = 100, 10000
	g := NewGenerator(Config{TTL: ttl})
	for i := range sources {
		k := attacker(80)
		k.Src = netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)})
		g.HandleDecision(decision(k, 1, netsim.Time(i*3*ttl/sources)))
	}
	now := netsim.Time(3 * ttl)
	g.HandleDecision(decision(attacker(1), 1, now))
	held := 0
	for src, flows := range g.flowsBySrc {
		if len(flows) == 0 {
			t.Errorf("source %s kept with no flow", src)
		}
		for k, at := range flows {
			held++
			if now-at >= 2*ttl {
				t.Fatalf("flow %v flagged at %v still held at %v", k, at, now)
			}
		}
	}
	if held == 0 || held > sources*2/3+1 {
		t.Errorf("%d flows held of %d flagged, want at most the last two TTLs' share", held, sources+1)
	}
}

func TestGeneratorRefreshExtendsTTL(t *testing.T) {
	g := NewGenerator(Config{TTL: 100})
	k := attacker(1)
	g.HandleDecision(decision(k, 1, 0))
	g.HandleDecision(decision(k, 1, 80)) // refresh at t=80 → expires 180
	if !drops(g, k, 150) {
		t.Error("refreshed rule expired early")
	}
	if g.Generated != 1 {
		t.Errorf("generated = %d, want 1 (refresh, not new)", g.Generated)
	}
}

func TestGeneratorMaxRules(t *testing.T) {
	g := NewGenerator(Config{})
	g.maxRules = 2
	for p := uint16(1); p <= 5; p++ {
		k := attacker(p)
		k.Src = netip.AddrFrom4([4]byte{10, 1, 0, byte(p)}) // distinct sources
		g.HandleDecision(decision(k, 1, 0))
	}
	if g.Len() != 2 {
		t.Errorf("rules = %d, want cap 2", g.Len())
	}
	if g.Rejected != 3 {
		t.Errorf("rejected = %d, want 3", g.Rejected)
	}
}

// packetOf is a packet of flow k.
func packetOf(k flow.Key) *netsim.Packet {
	return &netsim.Packet{Src: k.Src, Dst: k.Dst, SrcPort: k.SrcPort, DstPort: k.DstPort, Proto: k.Proto}
}

func TestInstallIntoRefreshesDataPlaneExpiry(t *testing.T) {
	g := NewGenerator(Config{TTL: 100})
	var acl netsim.ACL
	install := g.InstallInto(&acl)
	k := attacker(1)
	install(decision(k, 1, 0))
	install(decision(k, 1, 80)) // refresh at t=80 → expires 180
	if !acl.Match(packetOf(k), 150) {
		t.Error("the ACL entry expired at its first decision's TTL, not the refresh's")
	}
	if acl.Match(packetOf(k), 181) {
		t.Error("the ACL entry outlived the refreshed TTL")
	}
	if acl.Installed != 1 {
		t.Errorf("installed = %d, want 1 (a refresh is no new entry)", acl.Installed)
	}
}

func TestGeneratorReclaimsExpiredRulesAtBound(t *testing.T) {
	g := NewGenerator(Config{TTL: 100})
	g.maxRules = 2
	src := func(p uint16) flow.Key {
		k := attacker(p)
		k.Src = netip.AddrFrom4([4]byte{10, 1, 0, byte(p)}) // distinct sources
		return k
	}
	g.HandleDecision(decision(src(1), 1, 0))
	g.HandleDecision(decision(src(2), 1, 10))
	g.HandleDecision(decision(src(3), 1, 200)) // both rules expired by now
	if g.Rejected != 0 || g.Generated != 3 || g.Len() != 1 {
		t.Errorf("rejected %d, generated %d, live %d: want the new attacker accepted once the expired rules are reclaimed",
			g.Rejected, g.Generated, g.Len())
	}
	if !drops(g, src(3), 250) {
		t.Error("the new attacker's rule does not drop it")
	}
}

func TestRulesSortedAndRendered(t *testing.T) {
	g := NewGenerator(Config{})
	g.HandleDecision(decision(attacker(1), 1, 10))
	g.HandleDecision(decision(attacker(2), 1, 20))
	g.HandleDecision(decision(attacker(3), 1, 30)) // escalates
	rules := g.Rules()
	if len(rules) != 3 {
		t.Fatalf("rules = %d", len(rules))
	}
	if rules[0].CreatedAt > rules[1].CreatedAt {
		t.Error("rules not sorted by creation")
	}
	foundSrc := false
	for _, r := range rules {
		if r.Scope == ScopeSource {
			foundSrc = true
			if r.String() == "" || r.String()[:8] != "drop src" {
				t.Errorf("render = %q", r.String())
			}
		}
	}
	if !foundSrc {
		t.Error("no source-scoped rule after escalation")
	}
}
