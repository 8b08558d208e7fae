package telemetry

import (
	"net/netip"

	"github.com/amlight/intddos/internal/netsim"
)

// intState is the in-flight INT header + metadata stack attached to a
// packet between source and sink, standing in for bytes a hardware
// deployment would embed in the packet itself.
type intState struct {
	header  Header
	hops    []HopMetadata
	origLen int // packet length before INT overhead was added
}

// Mode selects how telemetry leaves the network.
type Mode int

const (
	// ModeEmbed is classic INT-MD: metadata rides inside the packet
	// from source to sink, where it is extracted and exported. A
	// packet lost before the sink loses its whole telemetry stack.
	ModeEmbed Mode = iota
	// ModePostcard is INT-XD-style per-hop export: every monitored
	// hop sends its own single-hop report straight to the collector,
	// adding no bytes to data packets and surviving downstream loss.
	ModePostcard
)

// AgentConfig parameterizes a switch-attached INT agent. A single
// switch may act as source on some egress ports and sink on others,
// exactly as the testbed switch does with its port 3↔4 loop.
type AgentConfig struct {
	// Mode selects embed (INT-MD, default) or postcard (INT-XD)
	// telemetry export.
	Mode Mode
	// SourcePorts are egress ports where untagged packets get an INT
	// header inserted.
	SourcePorts []uint16
	// SinkPorts are egress ports where the metadata stack is
	// extracted and exported to the collector before final delivery.
	SinkPorts []uint16
	// DomainID tags the observation domain in the header.
	DomainID uint32
	// Sampler selects packets for instrumentation at the source; nil
	// means every packet (the deployment default).
	Sampler Sampler
	// CollectorAddr is the destination of report datagrams.
	CollectorAddr netip.Addr
	// ReportWire carries encoded reports to the collector (the port-5
	// link in the testbed topology). If nil the agent counts reports
	// but exports nothing.
	ReportWire *netsim.Link

	// maxHops bounds the metadata stack (the INT remaining-hop-count);
	// zero means maxHops. Tests lower it.
	maxHops int
}

// maxHops is the INT remaining-hop-count a source sets. Every hop
// pushes all of InstAll's metadata.
const maxHops = 8

// Agent attaches INT source/transit/sink behaviour to a netsim
// switch via its OnForward hook.
type Agent struct {
	eng *netsim.Engine
	sw  *netsim.Switch
	cfg AgentConfig

	source map[uint16]bool
	sink   map[uint16]bool
	seq    uint64

	// Stats
	Instrumented int // packets tagged at source
	HopsPushed   int
	Reports      int   // reports exported at sink
	OverheadB    int64 // total INT bytes added on the wire
}

// NewAgent wires an agent onto sw. It chains any existing OnForward
// hook so multiple observers can coexist (e.g. INT and sFlow on the
// same switch).
func NewAgent(eng *netsim.Engine, sw *netsim.Switch, cfg AgentConfig) *Agent {
	if cfg.maxHops == 0 {
		cfg.maxHops = maxHops
	}
	if cfg.Sampler == nil {
		cfg.Sampler = AllPackets{}
	}
	a := &Agent{
		eng:    eng,
		sw:     sw,
		cfg:    cfg,
		source: make(map[uint16]bool, len(cfg.SourcePorts)),
		sink:   make(map[uint16]bool, len(cfg.SinkPorts)),
	}
	for _, p := range cfg.SourcePorts {
		a.source[p] = true
	}
	for _, p := range cfg.SinkPorts {
		a.sink[p] = true
	}
	prev := sw.OnForward
	sw.OnForward = func(p *netsim.Packet, hop netsim.HopRecord, egress uint16) {
		a.onForward(p, hop, egress)
		if prev != nil {
			prev(p, hop, egress)
		}
	}
	return a
}

// onForward implements the source/transit/sink pipeline for one
// forwarded packet.
func (a *Agent) onForward(p *netsim.Packet, hop netsim.HopRecord, egress uint16) {
	if a.cfg.Mode == ModePostcard {
		a.postcard(p, hop, egress)
		return
	}
	st, tagged := p.Aux.(*intState)

	// Source role: insert header on untagged packets leaving a source
	// port, subject to sampling.
	if !tagged && a.source[egress] {
		if p.Payload != nil || !a.cfg.Sampler.Sample(p) {
			return // never instrument report datagrams or unsampled packets
		}
		st = &intState{
			header: Header{
				Version:      Version,
				HopML:        uint8(InstAll.WordsPerHop()),
				RemainingHop: uint8(a.cfg.maxHops),
				Instructions: InstAll,
				DomainID:     a.cfg.DomainID,
			},
			origLen: p.Length,
		}
		p.Aux = st
		p.INTEnabled = true
		p.Length += HeaderLen
		a.OverheadB += HeaderLen
		a.Instrumented++
		tagged = true
	}
	if !tagged {
		return
	}

	// Source and transit roles push this hop's metadata if the
	// remaining-hop budget allows.
	if len(st.hops) < int(st.header.RemainingHop) {
		st.hops = append(st.hops, HopFromRecord(hop))
		p.Length += st.header.Instructions.BytesPerHop()
		a.OverheadB += int64(st.header.Instructions.BytesPerHop())
		a.HopsPushed++
	}

	// Sink role: extract the stack, restore the packet, export a
	// report toward the collector.
	if a.sink[egress] {
		a.exportEmbedded(p, st)
	}
}

// exportEmbedded finishes the INT-MD path at the sink: strip the
// in-packet state, restore the original length, export the report.
func (a *Agent) exportEmbedded(p *netsim.Packet, st *intState) {
	a.seq++
	rep := &Report{
		Seq:     a.seq,
		Src:     p.Src,
		Dst:     p.Dst,
		SrcPort: p.SrcPort,
		DstPort: p.DstPort,
		Proto:   p.Proto,
		Flags:   p.Flags,
		Length:  uint16(st.origLen),
		Hops:    st.hops,
	}
	p.Length = st.origLen
	p.Aux = nil
	p.INTEnabled = false
	a.export(rep, st.header.Instructions, p)
}

// postcard implements the INT-XD path: one single-hop report per
// monitored egress, nothing embedded in the data packet.
func (a *Agent) postcard(p *netsim.Packet, hop netsim.HopRecord, egress uint16) {
	if p.Payload != nil {
		return
	}
	if !a.source[egress] && !a.sink[egress] {
		return
	}
	if !a.cfg.Sampler.Sample(p) {
		return
	}
	a.seq++
	a.Instrumented++
	rep := &Report{
		Seq:     a.seq,
		Src:     p.Src,
		Dst:     p.Dst,
		SrcPort: p.SrcPort,
		DstPort: p.DstPort,
		Proto:   p.Proto,
		Flags:   p.Flags,
		Length:  uint16(p.Length),
		Hops:    []HopMetadata{HopFromRecord(hop)},
	}
	a.export(rep, InstAll, p)
}

// export encodes rep and ships it toward the collector, carrying the
// data packet's ground-truth bookkeeping.
func (a *Agent) export(rep *Report, inst Instruction, p *netsim.Packet) {
	a.Reports++
	if a.cfg.ReportWire == nil {
		return
	}
	buf := rep.Encode(inst)
	a.cfg.ReportWire.Send(&netsim.Packet{
		ID:      a.eng.NextPacketID(),
		Src:     p.Dst, // report originates at the exporting device
		Dst:     a.cfg.CollectorAddr,
		Proto:   netsim.UDP,
		Length:  len(buf) + 42, // UDP/IP/Ethernet framing
		Payload: buf,
		SentAt:  a.eng.Now(),
		// Ground-truth bookkeeping for training/eval only.
		Label:      p.Label,
		AttackType: p.AttackType,
	})
}
