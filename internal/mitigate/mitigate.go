// Package mitigate implements the flow-rule generation hooks the
// paper leaves as future work (§III footnote 2; cf. Aslam et al.'s
// ONOS flood defender): it turns attack decisions from the detection
// mechanism into expiring drop rules a programmable data plane could
// install. Detection remains the paper's scope; this module exists so
// a deployment has somewhere to send its verdicts.
package mitigate

import (
	"fmt"
	"sort"

	"github.com/amlight/intddos/internal/core"
	"github.com/amlight/intddos/internal/flow"
	"github.com/amlight/intddos/internal/netsim"
)

// RuleScope selects what a generated rule matches.
type RuleScope int

// Rule scopes, narrowest first.
const (
	// ScopeFlow drops the exact 5-tuple.
	ScopeFlow RuleScope = iota
	// ScopeSource drops everything from the offending source address
	// (the right scope for scans and SlowLoris; useless against
	// spoofed floods).
	ScopeSource
)

// Rule is one generated drop rule.
type Rule struct {
	Scope     RuleScope
	Key       flow.Key // fully meaningful for ScopeFlow; Src for ScopeSource
	CreatedAt netsim.Time
	ExpiresAt netsim.Time
	Hits      int
}

// String renders the rule like a flow-table entry.
func (r Rule) String() string {
	switch r.Scope {
	case ScopeSource:
		return fmt.Sprintf("drop src=%s until %v", r.Key.Src, r.ExpiresAt)
	default:
		return fmt.Sprintf("drop %s until %v", r.Key, r.ExpiresAt)
	}
}

// Config parameterizes rule generation: the rule lifetime. A source
// is escalated to a source-scoped rule once sourceThreshold of its
// flows are flagged within one TTL; new rules are rejected beyond
// maxRules live ones.
type Config struct {
	// TTL is the rule lifetime; refreshed when the same target is
	// re-flagged (default 5 s virtual).
	TTL netsim.Time
}

const sourceThreshold, maxRules = 3, 10000

// Generator turns decisions into rules.
type Generator struct {
	cfg Config
	// maxRules is the constant of the same name; tests lower it.
	maxRules int

	rules map[string]*Rule
	// flowsBySrc holds each source's flagged flows with the time each
	// was last flagged. Flows flagged a TTL or more ago no longer count
	// toward escalation; sweep deletes them, and emptied sources, at
	// most once per TTL, so the map holds the flows of the last two TTLs.
	flowsBySrc map[string]map[flow.Key]netsim.Time
	// sweepAt is when the next sweep of flowsBySrc is due.
	sweepAt netsim.Time
	// expiresFrom is a lower bound on every rule's ExpiresAt (a
	// refresh only raises one): before it, no rule can be reclaimed.
	expiresFrom netsim.Time

	// Stats
	Generated int
	Escalated int // source-scope escalations
	Rejected  int // dropped at the table bound
}

// NewGenerator builds a generator; zero-valued config fields take
// defaults.
func NewGenerator(cfg Config) *Generator {
	if cfg.TTL <= 0 {
		cfg.TTL = 5 * netsim.Second
	}
	return &Generator{
		cfg:        cfg,
		maxRules:   maxRules,
		rules:      make(map[string]*Rule),
		flowsBySrc: make(map[string]map[flow.Key]netsim.Time),
	}
}

// HandleDecision consumes one mechanism decision; benign decisions
// are ignored. Wire it to core.Mechanism.OnDecision.
func (g *Generator) HandleDecision(d core.Decision) { g.handle(d) }

// handle is HandleDecision, returning the rule the decision created
// or refreshed (nil if none).
func (g *Generator) handle(d core.Decision) *Rule {
	if d.Label != 1 {
		return nil
	}
	if d.At >= g.sweepAt {
		g.sweep(d.At)
	}
	src := d.Key.Src.String()
	flows := g.flowsBySrc[src]
	if flows == nil {
		flows = make(map[flow.Key]netsim.Time)
		g.flowsBySrc[src] = flows
	}
	flows[d.Key] = d.At

	if g.live(flows, d.At) >= sourceThreshold {
		return g.install("src:"+src, Rule{Scope: ScopeSource, Key: flow.Key{Src: d.Key.Src}}, d.At, true)
	}
	return g.install("flow:"+d.Key.String(), Rule{Scope: ScopeFlow, Key: d.Key}, d.At, false)
}

// live counts a source's flows flagged within the TTL before now,
// stopping at sourceThreshold.
func (g *Generator) live(flows map[flow.Key]netsim.Time, now netsim.Time) int {
	n := 0
	for _, at := range flows {
		if now-at < g.cfg.TTL {
			if n++; n == sourceThreshold {
				break
			}
		}
	}
	return n
}

// sweep forgets the flows last flagged a TTL or more before now, and
// the sources left with none, and schedules the next sweep a TTL on.
func (g *Generator) sweep(now netsim.Time) {
	g.sweepAt = now + g.cfg.TTL
	for src, flows := range g.flowsBySrc {
		for k, at := range flows {
			if now-at >= g.cfg.TTL {
				delete(flows, k)
			}
		}
		if len(flows) == 0 {
			delete(g.flowsBySrc, src)
		}
	}
}

// install adds or refreshes a rule and returns it; at the bound it
// first reclaims expired rules, and returns nil if none has expired.
func (g *Generator) install(id string, r Rule, now netsim.Time, escalation bool) *Rule {
	if existing, ok := g.rules[id]; ok {
		existing.ExpiresAt = now + g.cfg.TTL
		existing.Hits++
		return existing
	}
	if len(g.rules) >= g.maxRules {
		g.reclaim(now)
	}
	if len(g.rules) >= g.maxRules {
		g.Rejected++
		return nil
	}
	r.CreatedAt = now
	r.ExpiresAt = now + g.cfg.TTL
	r.Hits = 1
	g.rules[id] = &r
	g.Generated++
	if escalation {
		g.Escalated++
	}
	return &r
}

// reclaim deletes the rules expired at now.
func (g *Generator) reclaim(now netsim.Time) {
	if now < g.expiresFrom {
		return
	}
	g.expiresFrom = now + g.cfg.TTL
	for id, r := range g.rules {
		if r.ExpiresAt <= now {
			delete(g.rules, id)
		} else {
			g.expiresFrom = min(g.expiresFrom, r.ExpiresAt)
		}
	}
}

// Rules returns the active rules sorted by creation time.
func (g *Generator) Rules() []Rule {
	out := make([]Rule, 0, len(g.rules))
	for _, r := range g.rules {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].CreatedAt < out[j].CreatedAt })
	return out
}

// Len returns the number of installed rules.
func (g *Generator) Len() int { return len(g.rules) }

// Compile translates one generated rule into the data-plane ACL form.
func Compile(r Rule) netsim.ACLRule {
	out := netsim.ACLRule{Src: r.Key.Src, ExpiresAt: r.ExpiresAt}
	if r.Scope == ScopeFlow {
		out.Dst = r.Key.Dst
		out.SrcPort = r.Key.SrcPort
		out.DstPort = r.Key.DstPort
		out.Proto = r.Key.Proto
	}
	return out
}

// InstallInto wires the generator to a switch ACL: the rule each
// decision creates or refreshes is compiled and installed in the data
// plane at once, so a refresh extends the data-plane entry's expiry
// too. Returns the wrapped decision handler to hook to
// core.Mechanism.OnDecision.
func (g *Generator) InstallInto(acl *netsim.ACL) func(core.Decision) {
	return func(d core.Decision) {
		if r := g.handle(d); r != nil {
			acl.Install(Compile(*r))
		}
	}
}
