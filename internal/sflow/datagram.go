// Package sflow implements the sampled-flow monitoring substrate the
// paper compares INT against: a counter-based sampling agent embedded
// in a switch (1-in-4096 in the AmLight deployment) and a collector
// that decodes the exported datagrams.
//
// Only header-level flow samples are modelled — the record type the
// paper's analysis consumes. The wire format is a compact sFlow-v5-style layout rather
// than the full XDR encoding; what matters for the comparison is the
// sampling semantics, which are reproduced exactly.
package sflow

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"

	"github.com/amlight/intddos/internal/netsim"
)

// DefaultSampleRate is the production sampling rate at AmLight: one
// packet in every 4096.
const DefaultSampleRate = 4096

const (
	datagramMagic uint32 = 0x53464C57 // "SFLW"
	version       uint8  = 5

	recFlowSample uint8 = 1
)

// FlowSample is one sampled packet's header snapshot. Unlike INT,
// there is no per-hop telemetry — no queue occupancy, no hop
// timestamps (the Table II difference driving the paper's
// comparison).
type FlowSample struct {
	Seq        uint64
	SampleRate uint32 // 1-in-SampleRate
	SamplePool uint32 // packets observed since the previous sample
	InputPort  uint16
	OutputPort uint16

	Src     netip.Addr
	Dst     netip.Addr
	SrcPort uint16
	DstPort uint16
	Proto   netsim.Proto
	Flags   netsim.TCPFlags
	Length  uint16

	// Truth carries generator ground truth for accounting; it is not
	// serialized.
	Truth Truth
}

// Truth is label metadata used only for training and evaluation.
type Truth struct {
	Label      bool
	AttackType string
	SentAt     netsim.Time
}

// ErrShort reports a truncated datagram.
var ErrShort = errors.New("sflow: datagram too short")

// EncodeFlowSample serializes s to wire form.
func EncodeFlowSample(s *FlowSample) []byte {
	buf := make([]byte, 0, 48)
	var w8 [8]byte
	binary.BigEndian.PutUint32(w8[:4], datagramMagic)
	buf = append(buf, w8[:4]...)
	buf = append(buf, version, recFlowSample)
	binary.BigEndian.PutUint64(w8[:], s.Seq)
	buf = append(buf, w8[:]...)
	binary.BigEndian.PutUint32(w8[:4], s.SampleRate)
	buf = append(buf, w8[:4]...)
	binary.BigEndian.PutUint32(w8[:4], s.SamplePool)
	buf = append(buf, w8[:4]...)
	// The drops count: 0, since the agent never drops a sample.
	buf = append(buf, 0, 0, 0, 0)
	binary.BigEndian.PutUint16(w8[:2], s.InputPort)
	buf = append(buf, w8[:2]...)
	binary.BigEndian.PutUint16(w8[:2], s.OutputPort)
	buf = append(buf, w8[:2]...)
	src, dst := s.Src.As4(), s.Dst.As4()
	buf = append(buf, src[:]...)
	buf = append(buf, dst[:]...)
	binary.BigEndian.PutUint16(w8[:2], s.SrcPort)
	buf = append(buf, w8[:2]...)
	binary.BigEndian.PutUint16(w8[:2], s.DstPort)
	buf = append(buf, w8[:2]...)
	buf = append(buf, byte(s.Proto), byte(s.Flags))
	binary.BigEndian.PutUint16(w8[:2], s.Length)
	buf = append(buf, w8[:2]...)
	return buf
}

// Decode parses a flow-sample datagram.
func Decode(buf []byte) (*FlowSample, error) {
	if len(buf) < 6 {
		return nil, ErrShort
	}
	if binary.BigEndian.Uint32(buf[:4]) != datagramMagic {
		return nil, fmt.Errorf("sflow: bad magic %#x", binary.BigEndian.Uint32(buf[:4]))
	}
	if buf[4] != version {
		return nil, fmt.Errorf("sflow: unsupported version %d", buf[4])
	}
	if buf[5] != recFlowSample {
		return nil, fmt.Errorf("sflow: unknown record type %d", buf[5])
	}
	if len(buf) < 46 {
		return nil, ErrShort
	}
	return &FlowSample{
		Seq:        binary.BigEndian.Uint64(buf[6:14]),
		SampleRate: binary.BigEndian.Uint32(buf[14:18]),
		SamplePool: binary.BigEndian.Uint32(buf[18:22]),
		// buf[22:26] is the drops count, which the agent never sets.
		InputPort:  binary.BigEndian.Uint16(buf[26:28]),
		OutputPort: binary.BigEndian.Uint16(buf[28:30]),
		Src:        netip.AddrFrom4([4]byte(buf[30:34])),
		Dst:        netip.AddrFrom4([4]byte(buf[34:38])),
		SrcPort:    binary.BigEndian.Uint16(buf[38:40]),
		DstPort:    binary.BigEndian.Uint16(buf[40:42]),
		Proto:      netsim.Proto(buf[42]),
		Flags:      netsim.TCPFlags(buf[43]),
		Length:     binary.BigEndian.Uint16(buf[44:46]),
	}, nil
}
