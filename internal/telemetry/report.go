package telemetry

import (
	"encoding/binary"
	"fmt"
	"net/netip"

	"github.com/amlight/intddos/internal/netsim"
)

// reportMagic brands the start of a sink→collector report datagram.
const reportMagic uint32 = 0x494E5452 // "INTR"

// Report is the telemetry record the sink switch exports to the INT
// collector for one packet: the IP/transport header fields the
// paper's INT Data Collection module reads, plus the full hop
// metadata stack.
type Report struct {
	// Seq is the sink-assigned report sequence number, used to detect
	// collector-side loss.
	Seq uint64

	// Packet header fields (the paper's packet-level features).
	Src     netip.Addr
	Dst     netip.Addr
	SrcPort uint16
	DstPort uint16
	Proto   netsim.Proto
	Flags   netsim.TCPFlags
	Length  uint16 // original packet length, before INT overhead

	// Hops is the metadata stack in path order (source hop first).
	Hops []HopMetadata

	// Source identifies the transport endpoint the report arrived
	// from (the exporting device's address). It is attached by the
	// receiving collector, NOT serialized: sequence numbers are only
	// meaningful per exporter, so dedup/reorder state must be keyed
	// by source, never shared across interleaved agent streams.
	Source string

	// Truth carries generator ground truth for accounting only; it is
	// NOT serialized — a real collector never sees labels.
	Truth Truth
}

// Truth is label metadata attached in simulation for training and
// evaluation bookkeeping.
type Truth struct {
	Label      bool
	AttackType string
	SentAt     netsim.Time
}

// LastHop returns the sink-side hop (last pushed) and true, or zero
// and false for an empty stack.
func (r *Report) LastHop() (HopMetadata, bool) {
	if len(r.Hops) == 0 {
		return HopMetadata{}, false
	}
	return r.Hops[len(r.Hops)-1], true
}

// SourceKey identifies the exporter whose sequence numbers a report
// carries: the sink switch that assigned them when the metadata stack
// names one (robust even when several exporters share a relay
// address), the transport source otherwise. It is comparable, so
// keying a SeqTracker by it builds nothing per report. The zero
// SourceKey is a report with neither.
type SourceKey struct {
	Switch    uint32 // the sink switch's ID, when BySwitch
	BySwitch  bool
	Transport string // the transport source, when !BySwitch
}

// SourceKey returns the identity sequence tracking is keyed by.
func (r *Report) SourceKey() SourceKey {
	if h, ok := r.LastHop(); ok {
		return SourceKey{Switch: h.SwitchID, BySwitch: true}
	}
	return SourceKey{Transport: r.Source}
}

// PathLatency sums wrap-aware per-hop residence times across the
// stack. End-to-end link delays are not visible to INT.
func (r *Report) PathLatency() netsim.Time {
	var total netsim.Time
	for _, h := range r.Hops {
		total += netsim.WrapDiff(h.IngressTS, h.EgressTS)
	}
	return total
}

// Encode serializes the report (without Truth) to wire form using the
// full instruction set layout:
//
//	magic(4) seq(8) src(4) dst(4) sport(2) dport(2) proto(1) flags(1)
//	len(2) hopCount(1) inst(2) hops(inst.BytesPerHop() each)
//
// Only IPv4 addresses are supported, matching the deployment.
func (r *Report) Encode(inst Instruction) []byte {
	buf := make([]byte, 0, 31+len(r.Hops)*inst.BytesPerHop())
	var w8 [8]byte
	binary.BigEndian.PutUint32(w8[:4], reportMagic)
	buf = append(buf, w8[:4]...)
	binary.BigEndian.PutUint64(w8[:], r.Seq)
	buf = append(buf, w8[:]...)
	src := r.Src.As4()
	dst := r.Dst.As4()
	buf = append(buf, src[:]...)
	buf = append(buf, dst[:]...)
	binary.BigEndian.PutUint16(w8[:2], r.SrcPort)
	buf = append(buf, w8[:2]...)
	binary.BigEndian.PutUint16(w8[:2], r.DstPort)
	buf = append(buf, w8[:2]...)
	buf = append(buf, byte(r.Proto), byte(r.Flags))
	binary.BigEndian.PutUint16(w8[:2], r.Length)
	buf = append(buf, w8[:2]...)
	buf = append(buf, byte(len(r.Hops)))
	binary.BigEndian.PutUint16(w8[:2], uint16(inst))
	buf = append(buf, w8[:2]...)
	for _, h := range r.Hops {
		buf = EncodeHop(buf, inst, h)
	}
	return buf
}

// inlineHops is the hop-stack depth a decoded report makes room for
// inside its own value (the testbed's paths are one to three switches).
const inlineHops = 4

// decoded is a report with room for the usual hop stack beside it, so
// the report and its hops are one value.
type decoded struct {
	Report
	hops [inlineHops]HopMetadata
}

// DecodeReport parses a wire-form report produced by Encode, returning
// nil with every error. It is small enough to inline, so the report
// lives in its caller's frame: a caller that hands it to a consumer
// retaining nothing of it (Live.HandleReport) allocates nothing; one
// that keeps it allocates the report, with its hop room, once. A stack
// deeper than inlineHops gets an allocation of its own. The inlining
// rests on the compiler's cost model: on go1.24.0 this body costs 80
// of a budget of 80, so anything added here, or another toolchain,
// may put the report back on the heap (TestDecodeReportAllocs pins it).
func DecodeReport(buf []byte) (r *Report, err error) {
	var d decoded
	if d.Hops, err = d.decode(buf); err == nil {
		r = &d.Report
	}
	return r, err
}

// decode parses buf into d's report and returns its hop stack, which
// the caller links as d.Hops: backed by d.hops when it fits.
func (d *decoded) decode(buf []byte) ([]HopMetadata, error) {
	if len(buf) < 31 {
		return nil, ErrShortBuffer
	}
	if binary.BigEndian.Uint32(buf[:4]) != reportMagic {
		return nil, fmt.Errorf("telemetry: bad report magic %#x", binary.BigEndian.Uint32(buf[:4]))
	}
	r := &d.Report
	r.Seq = binary.BigEndian.Uint64(buf[4:12])
	r.Src = netip.AddrFrom4([4]byte(buf[12:16]))
	r.Dst = netip.AddrFrom4([4]byte(buf[16:20]))
	r.SrcPort = binary.BigEndian.Uint16(buf[20:22])
	r.DstPort = binary.BigEndian.Uint16(buf[22:24])
	r.Proto = netsim.Proto(buf[24])
	r.Flags = netsim.TCPFlags(buf[25])
	r.Length = binary.BigEndian.Uint16(buf[26:28])
	hopCount := int(buf[28])
	inst := Instruction(binary.BigEndian.Uint16(buf[29:31]))
	rest := buf[31:]
	hops := d.hops[:0]
	if hopCount > inlineHops {
		hops = make([]HopMetadata, 0, hopCount)
	}
	for i := 0; i < hopCount; i++ {
		var (
			h   HopMetadata
			err error
		)
		h, rest, err = DecodeHop(rest, inst)
		if err != nil {
			return nil, fmt.Errorf("telemetry: hop %d: %w", i, err)
		}
		hops = append(hops, h)
	}
	return hops, nil
}
