package netsim

import (
	"fmt"
	"net/netip"
)

// Proto identifies the transport protocol of a packet. Values follow
// the IANA protocol numbers so traces serialize compatibly.
type Proto uint8

// Transport protocols used by the workloads in the paper.
const (
	TCP  Proto = 6
	UDP  Proto = 17
	ICMP Proto = 1
)

// String returns the conventional protocol name.
func (p Proto) String() string {
	switch p {
	case TCP:
		return "TCP"
	case UDP:
		return "UDP"
	case ICMP:
		return "ICMP"
	default:
		return fmt.Sprintf("proto(%d)", uint8(p))
	}
}

// TCPFlags is the bitfield of TCP control flags carried by a packet.
type TCPFlags uint8

// TCP flag bits, matching the on-the-wire ordering.
const (
	FlagFIN TCPFlags = 1 << iota
	FlagSYN
	FlagRST
	FlagPSH
	FlagACK
	FlagURG
)

// Has reports whether all flags in mask are set.
func (f TCPFlags) Has(mask TCPFlags) bool { return f&mask == mask }

// String renders set flags in the conventional order, e.g. "SYN|ACK".
func (f TCPFlags) String() string {
	if f == 0 {
		return "-"
	}
	names := []struct {
		bit  TCPFlags
		name string
	}{
		{FlagSYN, "SYN"}, {FlagACK, "ACK"}, {FlagFIN, "FIN"},
		{FlagRST, "RST"}, {FlagPSH, "PSH"}, {FlagURG, "URG"},
	}
	out := ""
	for _, n := range names {
		if f.Has(n.bit) {
			if out != "" {
				out += "|"
			}
			out += n.name
		}
	}
	return out
}

// HopRecord is the ground-truth per-hop forwarding record the
// simulator attaches as a packet transits a switch. The telemetry
// layer selects and encodes these into INT metadata; the sFlow layer
// ignores them (sFlow samples only header fields).
type HopRecord struct {
	SwitchID    uint32
	IngressPort uint16
	EgressPort  uint16
	IngressTime Time // full-resolution arrival at the switch
	EgressTime  Time // full-resolution departure from the egress queue
	QueueDepth  int  // packets in the egress queue when this packet was dequeued
	QueueBytes  int  // bytes in the egress queue when this packet was dequeued
}

// Packet is a simulated network packet. Only header-level information
// is modelled; payload bytes are represented by Length alone, which is
// all the paper's feature set consumes.
type Packet struct {
	ID      uint64
	Src     netip.Addr
	Dst     netip.Addr
	SrcPort uint16
	DstPort uint16
	Proto   Proto
	Flags   TCPFlags // meaningful only when Proto == TCP
	Length  int      // total packet length in bytes, headers included

	// SentAt is when the originating host emitted the packet.
	SentAt Time
	// DeliveredAt is when the destination host received it; zero until
	// delivery, and remains zero if the packet was dropped.
	DeliveredAt Time
	// Dropped marks a packet discarded by a full queue.
	Dropped bool

	// INTEnabled marks packets selected for telemetry by the INT
	// source switch. The sink strips metadata before final delivery,
	// mirroring a hardware deployment.
	INTEnabled bool
	// Hops accumulates per-switch forwarding records in path order.
	Hops []HopRecord

	// Payload carries opaque bytes for control-plane datagrams such as
	// sink→collector telemetry reports. Data-plane packets leave it
	// nil; their size is modelled by Length alone.
	Payload []byte

	// Aux carries overlay-protocol state attached by layers above the
	// simulator, e.g. the in-flight INT header and metadata stack that
	// a real network would embed in the packet.
	Aux any

	// Label carries the generator's ground truth: true for attack
	// traffic. It is never visible to the detection pipeline; it is
	// used only for training labels and accuracy accounting.
	Label bool
	// AttackType names the generating workload ("benign", "synflood",
	// ...); used for per-attack-type result breakdowns (Table VI).
	AttackType string
}
