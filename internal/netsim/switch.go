package netsim

import (
	"fmt"
	"net/netip"
)

// Forwarder decides the egress port for a packet arriving on
// ingressPort. Returning a negative port drops the packet.
type Forwarder interface {
	EgressPort(p *Packet, ingressPort uint16) int
}

// StaticForwarder forwards by destination address, with an optional
// per-ingress-port override (used to model the testbed's port 1↔2 and
// 3↔4 loops).
type StaticForwarder struct {
	ByDst     map[netip.Addr]uint16
	ByIngress map[uint16]uint16
	Default   int // egress when no rule matches; negative drops
}

// NewStaticForwarder returns a forwarder that drops unmatched packets.
func NewStaticForwarder() *StaticForwarder {
	return &StaticForwarder{
		ByDst:     make(map[netip.Addr]uint16),
		ByIngress: make(map[uint16]uint16),
		Default:   -1,
	}
}

// EgressPort implements Forwarder. Ingress overrides win over
// destination rules so loop wiring takes precedence.
func (f *StaticForwarder) EgressPort(p *Packet, ingressPort uint16) int {
	if out, ok := f.ByIngress[ingressPort]; ok {
		return int(out)
	}
	if out, ok := f.ByDst[p.Dst]; ok {
		return int(out)
	}
	return f.Default
}

// SwitchConfig parameterizes a Switch.
type SwitchConfig struct {
	ID uint32
	// Ports is the number of egress-capable ports, numbered 1..Ports.
	Ports int
	// PortRateBps is the egress line rate per port.
	PortRateBps int64
	// QueueCapPackets bounds each egress queue.
	QueueCapPackets int
	// PipelineDelay is the fixed parse/match/action latency added
	// between ingress and enqueue.
	PipelineDelay Time
}

// DefaultSwitchConfig mirrors the testbed switch at a scaled-down
// rate: the paper ran its experiments "at much lower packet rate
// levels" (§V) than the 100 Gbps line rate for exactly this reason.
func DefaultSwitchConfig(id uint32) SwitchConfig {
	return SwitchConfig{
		ID:              id,
		Ports:           8,
		PortRateBps:     1_000_000_000, // 1 Gbps scaled stand-in
		QueueCapPackets: 512,
		PipelineDelay:   400 * Nanosecond,
	}
}

// Switch is an output-queued packet switch. Each egress port has a
// rate-limited FIFO OutputQueue; per-packet HopRecords capture
// ingress time, egress time, and queue depth at dequeue — the INT
// metadata triple from the paper.
type Switch struct {
	eng *Engine
	cfg SwitchConfig

	Forwarder Forwarder
	queues    []*OutputQueue // index 0 unused; ports are 1-based
	wires     []*Link        // egress wiring, parallel to queues

	// OnForward is called after a packet's hop record is appended,
	// before it leaves on the egress link. The telemetry layer hooks
	// here to act as INT source/transit/sink.
	OnForward func(p *Packet, hop HopRecord, egressPort uint16)

	// Stats
	RxPackets   int
	TxPackets   int
	FwdDrops    int // dropped by forwarding decision
	QueueDrops  int // dropped by full egress queues
	RxBytes     int64
	TxBytes     int64
	pendingHops map[uint64]HopRecord // in-flight per-packet ingress records
}

// NewSwitch constructs a switch from cfg. Attach egress wiring with
// Connect and set Forwarder before injecting traffic.
func NewSwitch(eng *Engine, cfg SwitchConfig) *Switch {
	sw := &Switch{
		eng:         eng,
		cfg:         cfg,
		queues:      make([]*OutputQueue, cfg.Ports+1),
		wires:       make([]*Link, cfg.Ports+1),
		pendingHops: make(map[uint64]HopRecord),
	}
	for port := 1; port <= cfg.Ports; port++ {
		q := NewOutputQueue(eng, cfg.PortRateBps, cfg.QueueCapPackets)
		p := uint16(port)
		q.OnDequeue = func(pkt *Packet, depthPkts, depthBytes int) {
			sw.finishForward(pkt, p, depthPkts, depthBytes)
		}
		q.OnDrop = func(*Packet) { sw.QueueDrops++ }
		sw.queues[port] = q
	}
	return sw
}

// Connect attaches the egress side of port to dst over a link with
// the given propagation delay.
func (sw *Switch) Connect(port uint16, delay Time, dst Receiver) {
	sw.mustPort(port)
	sw.wires[port] = NewLink(sw.eng, delay, dst)
}

// Port returns a Receiver that injects packets into the switch as if
// arriving on the given ingress port.
func (sw *Switch) Port(port uint16) Receiver {
	sw.mustPort(port)
	return ReceiverFunc(func(p *Packet) { sw.ingress(p, port) })
}

// Wire exposes the egress link for a connected port (nil before
// Connect), so callers can attach link impairments or read stats.
func (sw *Switch) Wire(port uint16) *Link {
	sw.mustPort(port)
	return sw.wires[port]
}

func (sw *Switch) mustPort(port uint16) {
	if port == 0 || int(port) > sw.cfg.Ports {
		panic(fmt.Sprintf("netsim: switch %d has no port %d", sw.cfg.ID, port))
	}
}

// ingress runs the forwarding pipeline for a packet arriving on port.
func (sw *Switch) ingress(p *Packet, port uint16) {
	sw.RxPackets++
	sw.RxBytes += int64(p.Length)
	ingressTime := sw.eng.Now()
	out := -1
	if sw.Forwarder != nil {
		out = sw.Forwarder.EgressPort(p, port)
	}
	if out <= 0 || out > sw.cfg.Ports {
		sw.FwdDrops++
		p.Dropped = true
		return
	}
	sw.pendingHops[p.ID] = HopRecord{
		SwitchID:    sw.cfg.ID,
		IngressPort: port,
		EgressPort:  uint16(out),
		IngressTime: ingressTime,
	}
	sw.eng.After(sw.cfg.PipelineDelay, func() {
		if !sw.queues[out].Enqueue(p) {
			delete(sw.pendingHops, p.ID)
		}
	})
}

// finishForward completes the hop record at dequeue time and sends the
// packet out the egress wire.
func (sw *Switch) finishForward(p *Packet, port uint16, depthPkts, depthBytes int) {
	hop, ok := sw.pendingHops[p.ID]
	if !ok {
		// A packet can legitimately lose its pending record only via a
		// queue drop, which deletes it before dequeue can fire.
		panic(fmt.Sprintf("netsim: switch %d dequeued packet %d with no pending hop", sw.cfg.ID, p.ID))
	}
	delete(sw.pendingHops, p.ID)
	hop.EgressTime = sw.eng.Now()
	hop.QueueDepth = depthPkts
	hop.QueueBytes = depthBytes
	p.Hops = append(p.Hops, hop)
	sw.TxPackets++
	sw.TxBytes += int64(p.Length)
	if sw.OnForward != nil {
		sw.OnForward(p, hop, port)
	}
	if wire := sw.wires[port]; wire != nil {
		wire.Send(p)
	}
}
