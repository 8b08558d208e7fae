package netsim

import "net/netip"

// Host is a traffic endpoint: it emits packets onto an attached wire
// and records the packets it receives. It stands in for the testbed's
// source and target agents.
type Host struct {
	eng  *Engine
	Addr netip.Addr
	Name string

	// Uplink carries transmitted packets toward the network; set with
	// Attach before sending.
	Uplink *Link

	// OnReceive, if set, observes every delivered packet.
	OnReceive func(p *Packet)

	// Stats
	Sent     int
	Received int
	SentB    int64
	RecvB    int64
}

// NewHost constructs a named host with the given address.
func NewHost(eng *Engine, name string, addr netip.Addr) *Host {
	return &Host{eng: eng, Name: name, Addr: addr}
}

// Attach connects the host's uplink to dst (typically a switch port)
// with the given propagation delay.
func (h *Host) Attach(delay Time, dst Receiver) {
	h.Uplink = NewLink(h.eng, delay, dst)
}

// Send stamps and transmits a packet at the current virtual time. The
// packet's Src is filled from the host address if unset, and a fresh
// ID is assigned if the packet has none.
func (h *Host) Send(p *Packet) {
	if h.Uplink == nil {
		panic("netsim: host " + h.Name + " sending with no uplink")
	}
	if !p.Src.IsValid() {
		p.Src = h.Addr
	}
	if p.ID == 0 {
		p.ID = h.eng.NextPacketID()
	}
	p.SentAt = h.eng.Now()
	h.Sent++
	h.SentB += int64(p.Length)
	h.Uplink.Send(p)
}

// Receive implements Receiver.
func (h *Host) Receive(p *Packet) {
	p.DeliveredAt = h.eng.Now()
	h.Received++
	h.RecvB += int64(p.Length)
	if h.OnReceive != nil {
		h.OnReceive(p)
	}
}
