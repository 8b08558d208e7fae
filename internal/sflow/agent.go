package sflow

import (
	"net/netip"

	"github.com/amlight/intddos/internal/netsim"
)

// AgentConfig parameterizes a switch-attached sFlow agent.
type AgentConfig struct {
	// SampleRate selects 1-in-N packet sampling; zero means the
	// AmLight production default of 1/4096. The agent draws a fresh
	// skip after each sample (the sFlow-spec randomized countdown).
	SampleRate int
	// Seed drives the randomized countdown.
	Seed int64
	// Ports restricts observation to packets egressing the listed
	// ports, like enabling sFlow on specific interfaces; empty means
	// every port.
	Ports []uint16
	// CollectorAddr is the destination of datagrams.
	CollectorAddr netip.Addr
	// Wire carries encoded datagrams to the collector. If nil samples
	// are counted but not exported.
	Wire *netsim.Link

	// deterministic makes the agent sample exactly every Nth packet;
	// tests set it to count samples exactly.
	deterministic bool
}

// Agent samples forwarded packets at a fixed rate and exports flow
// samples, mirroring a device-resident sFlow agent.
type Agent struct {
	eng *netsim.Engine
	cfg AgentConfig

	rng       interface{ Int63n(int64) int64 }
	ports     map[uint16]bool
	countdown int
	pool      uint32
	seq       uint64

	// Stats
	Observed int // packets seen by the agent
	Sampled  int // flow samples exported
}

// NewAgent wires an sFlow agent onto sw, chaining any existing
// OnForward hook.
func NewAgent(eng *netsim.Engine, sw *netsim.Switch, cfg AgentConfig) *Agent {
	if cfg.SampleRate <= 0 {
		cfg.SampleRate = DefaultSampleRate
	}
	a := &Agent{eng: eng, cfg: cfg, rng: netsim.NewRNG(cfg.Seed)}
	if len(cfg.Ports) > 0 {
		a.ports = make(map[uint16]bool, len(cfg.Ports))
		for _, p := range cfg.Ports {
			a.ports[p] = true
		}
	}
	a.resetCountdown()
	prev := sw.OnForward
	sw.OnForward = func(p *netsim.Packet, hop netsim.HopRecord, egress uint16) {
		a.observe(p, hop, egress)
		if prev != nil {
			prev(p, hop, egress)
		}
	}
	return a
}

// resetCountdown arms the next sample: exactly N packets away in
// deterministic mode, uniform in [1, 2N-1] otherwise (mean N, per the
// sFlow spec's unbiased countdown).
func (a *Agent) resetCountdown() {
	if a.cfg.deterministic {
		a.countdown = a.cfg.SampleRate
		return
	}
	a.countdown = 1 + int(a.rng.Int63n(int64(2*a.cfg.SampleRate-1)))
}

// observe runs on every forwarded packet.
func (a *Agent) observe(p *netsim.Packet, hop netsim.HopRecord, egress uint16) {
	if p.Payload != nil {
		return // never sample telemetry/control datagrams
	}
	if a.ports != nil && !a.ports[egress] {
		return
	}
	a.Observed++
	a.pool++
	a.countdown--
	if a.countdown > 0 {
		return
	}
	a.resetCountdown()
	a.seq++
	s := &FlowSample{
		Seq:        a.seq,
		SampleRate: uint32(a.cfg.SampleRate),
		SamplePool: a.pool,
		InputPort:  hop.IngressPort,
		OutputPort: egress,
		Src:        p.Src,
		Dst:        p.Dst,
		SrcPort:    p.SrcPort,
		DstPort:    p.DstPort,
		Proto:      p.Proto,
		Flags:      p.Flags,
		Length:     uint16(p.Length),
	}
	a.pool = 0
	a.Sampled++
	if a.cfg.Wire != nil {
		buf := EncodeFlowSample(s)
		a.cfg.Wire.Send(&netsim.Packet{
			ID:      a.eng.NextPacketID(),
			Dst:     a.cfg.CollectorAddr,
			Proto:   netsim.UDP,
			Length:  len(buf) + 42,
			Payload: buf,
			SentAt:  a.eng.Now(),
			// Ground truth for evaluation bookkeeping only.
			Label:      p.Label,
			AttackType: p.AttackType,
		})
	}
}
