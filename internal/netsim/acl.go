package netsim

import "net/netip"

// ACLRule is one drop rule in a P4-style match-action table: each
// field matches exactly or, when zero-valued, wildcards. An expired
// rule stops matching but keeps its entry, which a later Install of
// the same match fields revives.
type ACLRule struct {
	Src       netip.Addr // invalid = wildcard
	Dst       netip.Addr
	SrcPort   uint16 // 0 = wildcard
	DstPort   uint16
	Proto     Proto // 0 = wildcard
	ExpiresAt Time  // 0 = never expires
}

// matches reports whether p falls under the rule at time now.
func (r *ACLRule) matches(p *Packet, now Time) bool {
	if r.ExpiresAt != 0 && now >= r.ExpiresAt {
		return false
	}
	if r.Src.IsValid() && p.Src != r.Src {
		return false
	}
	if r.Dst.IsValid() && p.Dst != r.Dst {
		return false
	}
	if r.SrcPort != 0 && p.SrcPort != r.SrcPort {
		return false
	}
	if r.DstPort != 0 && p.DstPort != r.DstPort {
		return false
	}
	if r.Proto != 0 && p.Proto != r.Proto {
		return false
	}
	return true
}

// ACL is the drop table a controller installs mitigation rules into —
// the switch-side half of the flow-rule generation loop the paper
// lists as future work. First match wins; evaluation is linear, as in
// a TCAM priority list.
type ACL struct {
	rules []ACLRule
	// entry indexes rules by their match fields (ExpiresAt zeroed).
	entry map[ACLRule]int

	// Stats
	Installed int // entries added, not refreshed
	Hits      int
}

// Install adds a rule. A rule whose match fields equal an existing
// entry's replaces that entry's expiry instead, keeping its place.
func (a *ACL) Install(r ACLRule) {
	match := r
	match.ExpiresAt = 0
	if i, ok := a.entry[match]; ok {
		a.rules[i].ExpiresAt = r.ExpiresAt
		return
	}
	if a.entry == nil {
		a.entry = make(map[ACLRule]int)
	}
	a.entry[match] = len(a.rules)
	a.rules = append(a.rules, r)
	a.Installed++
}

// Match reports whether p should be dropped at time now.
func (a *ACL) Match(p *Packet, now Time) bool {
	for i := range a.rules {
		if a.rules[i].matches(p, now) {
			a.Hits++
			return true
		}
	}
	return false
}

// ACLForwarder wraps a forwarding decision with the drop table: a
// match discards the packet before it reaches an egress queue,
// exactly where a P4 ingress ACL sits.
type ACLForwarder struct {
	eng  *Engine
	ACL  *ACL
	Next Forwarder

	// Dropped counts packets discarded by the table.
	Dropped int
}

// NewACLForwarder chains an ACL ahead of next.
func NewACLForwarder(eng *Engine, next Forwarder) *ACLForwarder {
	return &ACLForwarder{eng: eng, ACL: &ACL{}, Next: next}
}

// EgressPort implements Forwarder.
func (f *ACLForwarder) EgressPort(p *Packet, ingressPort uint16) int {
	if p.Payload == nil && f.ACL.Match(p, f.eng.Now()) {
		f.Dropped++
		return -1
	}
	if f.Next == nil {
		return -1
	}
	return f.Next.EgressPort(p, ingressPort)
}
