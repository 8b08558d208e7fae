// Package testbed assembles the paper's Figure 6 topology on the
// simulator: a source agent and a target agent joined by one
// INT-capable switch, with the data path looped out port 3 and back
// in port 4 so every packet transits the switch twice (one source
// hop, one sink hop), and the INT collector hanging off port 5.
// An sFlow agent can be enabled on the same switch for the
// comparative experiments.
package testbed

import (
	"net/netip"

	"github.com/amlight/intddos/internal/fault"
	"github.com/amlight/intddos/internal/netsim"
	"github.com/amlight/intddos/internal/sflow"
	"github.com/amlight/intddos/internal/telemetry"
	"github.com/amlight/intddos/internal/trace"
)

// Well-known testbed addresses.
var (
	SourceAddr    = netip.AddrFrom4([4]byte{10, 0, 0, 1})
	TargetAddr    = netip.AddrFrom4([4]byte{10, 0, 0, 2})
	CollectorAddr = netip.AddrFrom4([4]byte{10, 0, 0, 5})
)

// Config parameterizes the rig. The switch is
// netsim.DefaultSwitchConfig(1) and every cable's propagation delay is
// linkDelay.
type Config struct {
	// INTSampler selects packets for INT instrumentation; nil =
	// every packet (the deployment default).
	INTSampler telemetry.Sampler
	// INTMode selects embed (INT-MD, default) or postcard (INT-XD)
	// telemetry export.
	INTMode telemetry.Mode

	// EnableSFlow attaches an sFlow agent alongside INT.
	EnableSFlow bool
	// SFlowRate is the 1-in-N sampling rate (default 4096).
	SFlowRate int
	// Seed drives the sFlow randomized countdown.
	Seed int64

	// Netem applies netem-style impairment (delay/jitter, loss, dup,
	// reorder, rate caps) to the rig's named links — see the Link*
	// constants for the names; "*" matches every link. Nil or all-zero
	// leaves every link on the exact unimpaired fast path.
	Netem fault.NetemSpec
	// NetemSeed drives each impaired link's RNG (links are salted by
	// name, so two impaired links never share a stream).
	NetemSeed int64
}

// linkDelay is the propagation delay of every cable.
const linkDelay = netsim.Microsecond

// Names of the rig's impairable links, as the netem grammar addresses
// them.
const (
	LinkSourceSwitch    = "source->switch"    // source host uplink
	LinkSwitchLoop      = "switch->loop"      // port 3 → port 4 loopback cable
	LinkSwitchTarget    = "switch->target"    // port 2 egress
	LinkSwitchCollector = "switch->collector" // port 5 egress (embed-mode reports)
	LinkAgentCollector  = "agent->collector"  // INT sink's report wire
	LinkSFlowCollector  = "sflow->collector"  // sFlow agent's export wire
)

// Testbed is the assembled rig.
type Testbed struct {
	Eng    *netsim.Engine
	Source *netsim.Host
	Target *netsim.Host
	Switch *netsim.Switch

	INTAgent  *telemetry.Agent
	Collector *telemetry.Collector

	SFlowAgent     *sflow.Agent
	SFlowCollector *sflow.Collector

	collectorHost *netsim.Host
	links         map[string]*netsim.Link
}

// ImpairedStats returns per-link impairment ledgers for every link
// that has an impairment attached.
func (tb *Testbed) ImpairedStats() map[string]netsim.ImpairStats {
	out := map[string]netsim.ImpairStats{}
	for name, l := range tb.links {
		if l.Impaired() {
			out[name] = *l.ImpairStats()
		}
	}
	return out
}

// linkSeed salts the rig seed by link name (FNV-1a) so each impaired
// link draws from its own deterministic stream.
func linkSeed(seed int64, name string) int64 {
	sum := uint64(14695981039346656037)
	for _, b := range []byte(name) {
		sum = (sum ^ uint64(b)) * 1099511628211
	}
	return seed ^ int64(sum)
}

// toImpairment converts the grammar's units into the simulator's.
func toImpairment(li fault.LinkImpairment, seed int64) netsim.Impairment {
	return netsim.Impairment{
		Delay:    netsim.Time(li.Delay.Nanoseconds()),
		Jitter:   netsim.Time(li.Jitter.Nanoseconds()),
		ReorderP: li.Reorder,
		Loss:     li.Loss,
		Dup:      li.Dup,
		RateBps:  li.RateBps,
		Limit:    li.Limit,
		Seed:     seed,
	}
}

// New assembles the topology.
func New(cfg Config) *Testbed {
	eng := netsim.NewEngine()
	if cfg.SFlowRate <= 0 {
		cfg.SFlowRate = sflow.DefaultSampleRate
	}

	tb := &Testbed{Eng: eng}
	tb.Source = netsim.NewHost(eng, "source", SourceAddr)
	tb.Target = netsim.NewHost(eng, "target", TargetAddr)
	tb.collectorHost = netsim.NewHost(eng, "collector", CollectorAddr)
	tb.Switch = netsim.NewSwitch(eng, netsim.DefaultSwitchConfig(1))

	// Data path 1 → 3 ⇒(loop)⇒ 4 → 2: two transits per packet.
	fwd := netsim.NewStaticForwarder()
	fwd.ByIngress[1] = 3
	fwd.ByIngress[4] = 2
	tb.Switch.Forwarder = fwd

	tb.Source.Attach(linkDelay, tb.Switch.Port(1))
	tb.Switch.Connect(3, linkDelay, tb.Switch.Port(4))
	tb.Switch.Connect(2, linkDelay, tb.Target)
	tb.Switch.Connect(5, linkDelay, tb.collectorHost)

	tb.Collector = telemetry.NewCollector(eng)
	tb.collectorHost.OnReceive = tb.Collector.Receive

	reportWire := netsim.NewLink(eng, linkDelay, tb.collectorHost)
	tb.INTAgent = telemetry.NewAgent(eng, tb.Switch, telemetry.AgentConfig{
		Mode:          cfg.INTMode,
		SourcePorts:   []uint16{3},
		SinkPorts:     []uint16{2},
		CollectorAddr: CollectorAddr,
		ReportWire:    reportWire,
		Sampler:       cfg.INTSampler,
		DomainID:      1,
	})
	tb.links = map[string]*netsim.Link{
		LinkSourceSwitch:    tb.Source.Uplink,
		LinkSwitchLoop:      tb.Switch.Wire(3),
		LinkSwitchTarget:    tb.Switch.Wire(2),
		LinkSwitchCollector: tb.Switch.Wire(5),
		LinkAgentCollector:  reportWire,
	}

	if cfg.EnableSFlow {
		tb.SFlowCollector = sflow.NewCollector(eng)
		sfHost := netsim.NewHost(eng, "sflow-collector", netip.AddrFrom4([4]byte{10, 0, 0, 6}))
		sfHost.OnReceive = tb.SFlowCollector.Receive
		sfWire := netsim.NewLink(eng, linkDelay, sfHost)
		tb.SFlowAgent = sflow.NewAgent(eng, tb.Switch, sflow.AgentConfig{
			SampleRate: cfg.SFlowRate,
			Seed:       cfg.Seed,
			// Observe only the target-facing interface so each packet
			// is counted once against the sampling rate, as on a
			// production monitored link.
			Ports:         []uint16{2},
			CollectorAddr: sfHost.Addr,
			Wire:          sfWire,
		})
		tb.links[LinkSFlowCollector] = sfWire
	}
	// Attach impairments last, so every named link exists. An absent
	// or all-zero spec never touches a link: Send stays on the exact
	// legacy path and results are byte-identical to an unimpaired rig.
	for name, l := range tb.links {
		if li, ok := cfg.Netem.For(name); ok && !li.Zero() {
			l.SetImpairment(toImpairment(li, linkSeed(cfg.NetemSeed, name)))
		}
	}
	return tb
}

// Replayer builds a tcpreplay-equivalent replayer injecting recs from
// the source agent.
func (tb *Testbed) Replayer(recs []trace.Record) *trace.Replayer {
	return trace.NewReplayer(tb.Eng, tb.Source, recs)
}

// Run drains the event queue.
func (tb *Testbed) Run() { tb.Eng.Run() }

// RunUntil advances to the deadline.
func (tb *Testbed) RunUntil(t netsim.Time) { tb.Eng.RunUntil(t) }
