package flow

import (
	"fmt"
	"net/netip"

	"github.com/amlight/intddos/internal/netsim"
	"github.com/amlight/intddos/internal/sflow"
	"github.com/amlight/intddos/internal/telemetry"
)

// Key is the Flow ID: the five-tuple {source IP, destination IP,
// source port, destination port, protocol} the paper (and [17])
// identifies flows by.
type Key struct {
	Src     netip.Addr
	Dst     netip.Addr
	SrcPort uint16
	DstPort uint16
	Proto   netsim.Proto
}

// String renders the key in the repository's canonical flow notation.
func (k Key) String() string {
	return fmt.Sprintf("%s:%d>%s:%d/%s", k.Src, k.SrcPort, k.Dst, k.DstPort, k.Proto)
}

// Hash returns a stable FNV-1a hash of the five-tuple. Every sharded
// structure in the pipeline (flow tables, the database, the report
// queues) derives its shard from this one value, so a
// flow lands on the same shard at every layer; the flow table's index
// probes with it too.
func (k Key) Hash() uint64 {
	return hashTuple(k.Src.As16(), k.Dst.As16(), k.SrcPort, k.DstPort, k.Proto)
}

// hashTuple is Hash over the five-tuple's bytes, so a packed key
// (slotKey) hashes to the same value as the Key it was packed from.
func hashTuple(src, dst [16]byte, srcPort, dstPort uint16, proto netsim.Proto) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range src {
		h = (h ^ uint64(b)) * prime64
	}
	for _, b := range dst {
		h = (h ^ uint64(b)) * prime64
	}
	h = (h ^ uint64(srcPort>>8)) * prime64
	h = (h ^ uint64(srcPort&0xFF)) * prime64
	h = (h ^ uint64(dstPort>>8)) * prime64
	h = (h ^ uint64(dstPort&0xFF)) * prime64
	h = (h ^ uint64(proto)) * prime64
	// FNV-1a's low bits disperse poorly under modulo sharding; run a
	// 64-bit avalanche finalizer so every output bit depends on every
	// input byte.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Shard maps the key onto one of n shards (n must be positive).
func (k Key) Shard(n int) int { return int(k.Hash() % uint64(n)) }

// Address forms of a packed address, so an unpacked address is the
// exact netip.Addr that was packed (an IPv4 address and its IPv4-mapped
// IPv6 form are different keys). A form fits in two bits.
const (
	FormInvalid = 0
	Form4       = 1
	Form6       = 2
)

// PackAddr packs a into 16 bytes plus its form, the pointer-free layout
// the flow table's slots and the store's prediction log share. A zoned
// address has no packed form.
func PackAddr(a netip.Addr) (b [16]byte, form uint8, err error) {
	b, form, ok := packAddr(a)
	if !ok {
		return b, 0, fmt.Errorf("address %s carries a zone", a)
	}
	return b, form, nil
}

// packAddr is PackAddr reporting a zone as !ok. It keeps nothing of a,
// so packing a report's addresses does not make the report escape.
func packAddr(a netip.Addr) (b [16]byte, form uint8, ok bool) {
	switch {
	case !a.IsValid():
		return b, FormInvalid, true
	case a.Zone() != "":
		return b, 0, false
	case a.Is4():
		return a.As16(), Form4, true
	default:
		return a.As16(), Form6, true
	}
}

// UnpackAddr is PackAddr's inverse.
func UnpackAddr(b [16]byte, form uint8) netip.Addr {
	switch form {
	case Form4:
		return netip.AddrFrom4([4]byte(b[12:16]))
	case Form6:
		return netip.AddrFrom16(b)
	default:
		return netip.Addr{}
	}
}

// slotKey is a Key packed pointer-free (a netip.Addr holds a zone
// pointer): what a flow-table slot stores and compares on probe.
type slotKey struct {
	src, dst         [16]byte
	srcPort, dstPort uint16
	proto            netsim.Proto
	forms            uint8 // src form | dst form<<2
}

// packKey packs k. A zoned address panics: no monitored flow carries
// one, and the prediction log refuses them too.
func packKey(k Key) slotKey {
	src, srcForm, err := PackAddr(k.Src)
	var dst [16]byte
	var dstForm uint8
	if err == nil {
		dst, dstForm, err = PackAddr(k.Dst)
	}
	if err != nil {
		panic(fmt.Sprintf("flow: key %s: %v", k, err))
	}
	return slotKey{src: src, dst: dst, srcPort: k.SrcPort, dstPort: k.DstPort, proto: k.Proto,
		forms: srcForm | dstForm<<2}
}

func (p *slotKey) key() Key {
	return Key{
		Src: UnpackAddr(p.src, p.forms&3), Dst: UnpackAddr(p.dst, p.forms>>2&3),
		SrcPort: p.srcPort, DstPort: p.dstPort, Proto: p.proto,
	}
}

func (p *slotKey) hash() uint64 {
	return hashTuple(p.src, p.dst, p.srcPort, p.dstPort, p.proto)
}

// PacketInfo is one monitored packet observation, normalized from
// either monitoring source. Telemetry fields are valid only when
// HasTelemetry is set (INT); sFlow observations carry header fields
// alone — the Table II gap between the two tools.
type PacketInfo struct {
	Key    Key
	Length int
	Flags  netsim.TCPFlags

	// At is the collector-local arrival time of the observation (the
	// only full-resolution clock available; INT's own stamps are
	// 32-bit and wrap).
	At netsim.Time

	// HasTelemetry marks INT observations.
	HasTelemetry bool
	// IngressTS/EgressTS are the sink-hop 32-bit hardware timestamps.
	IngressTS netsim.Timestamp32
	EgressTS  netsim.Timestamp32
	// QueueDepth is the sink-hop queue occupancy at dequeue.
	QueueDepth uint32
	// HopLatencyNs is the total path residence time.
	HopLatencyNs uint64

	// Ground truth for training/evaluation bookkeeping.
	Label      bool
	AttackType string
}

// Observation is one observation packed pointer-free, its key hashed
// once: the element of the live pipeline's shard queues. A PacketInfo
// holds pointers — each netip.Addr's zone handle and the AttackType
// string —, so a queue of them is scanned by the collector and a report
// packed into one escapes to the heap; here the key is packed as a
// flow-table slot packs it, and the attack type is an index into a
// table of names the producer keeps (zero is the empty name).
type Observation struct {
	key          slotKey
	Flags        netsim.TCPFlags
	HasTelemetry bool
	hash         uint64 // key.hash(): the shard, the stripe and the probe

	At           netsim.Time
	HopLatencyNs uint64
	Length       uint32
	IngressTS    netsim.Timestamp32
	EgressTS     netsim.Timestamp32
	QueueDepth   uint32
	AttackType   uint32
	Label        bool
}

// Pack packs pi, hashing its key, with AttackType zero: the index is
// the caller's to set. A zoned address panics (see packKey).
func (pi PacketInfo) Pack() Observation {
	o := Observation{
		key: packKey(pi.Key), Flags: pi.Flags, HasTelemetry: pi.HasTelemetry,
		At: pi.At, HopLatencyNs: pi.HopLatencyNs, Length: uint32(pi.Length),
		IngressTS: pi.IngressTS, EgressTS: pi.EgressTS, QueueDepth: pi.QueueDepth,
		Label: pi.Label,
	}
	o.hash = o.key.hash()
	return o
}

// PackINT is FromINT(r, at).Pack() straight from the report, keeping
// nothing of it: a caller that packs a report it decoded into its own
// frame leaves the report there. AttackType is zero, as in Pack.
func PackINT(r *telemetry.Report, at netsim.Time) Observation {
	src, srcForm, okSrc := packAddr(r.Src)
	dst, dstForm, okDst := packAddr(r.Dst)
	if !okSrc || !okDst {
		panic("flow: report " + r.Src.String() + " > " + r.Dst.String() + " carries a zoned address")
	}
	o := Observation{
		key: slotKey{src: src, dst: dst, srcPort: r.SrcPort, dstPort: r.DstPort, proto: r.Proto,
			forms: srcForm | dstForm<<2},
		Flags: r.Flags, HasTelemetry: true,
		At: at, HopLatencyNs: uint64(r.PathLatency()), Length: uint32(r.Length),
		Label: r.Truth.Label,
	}
	o.hash = o.key.hash()
	if h, ok := r.LastHop(); ok {
		o.IngressTS, o.EgressTS, o.QueueDepth = h.IngressTS, h.EgressTS, h.QueueDepth
	}
	return o
}

// Key unpacks the observation's Flow ID.
func (o *Observation) Key() Key { return o.key.key() }

// Hash is Key().Hash(), computed when the observation was packed.
func (o *Observation) Hash() uint64 { return o.hash }

// Shard is Key().Shard(n) from the carried hash.
func (o *Observation) Shard(n int) int { return int(o.hash % uint64(n)) }

// String renders the key as Key.String does.
func (o *Observation) String() string { return o.key.key().String() }

// FromINT normalizes a decoded INT report received at time at. Queue
// occupancy and timestamps are taken from the last hop (the sink
// switch), which in the testbed is the hop closest to the victim;
// hop latency sums the whole stack.
func FromINT(r *telemetry.Report, at netsim.Time) PacketInfo {
	pi := PacketInfo{
		Key: Key{
			Src: r.Src, Dst: r.Dst,
			SrcPort: r.SrcPort, DstPort: r.DstPort, Proto: r.Proto,
		},
		Length:       int(r.Length),
		Flags:        r.Flags,
		At:           at,
		HasTelemetry: true,
		HopLatencyNs: uint64(r.PathLatency()),
		Label:        r.Truth.Label,
		AttackType:   r.Truth.AttackType,
	}
	if h, ok := r.LastHop(); ok {
		pi.IngressTS = h.IngressTS
		pi.EgressTS = h.EgressTS
		pi.QueueDepth = h.QueueDepth
	}
	return pi
}

// FromSFlow normalizes an sFlow flow sample received at time at.
func FromSFlow(s *sflow.FlowSample, at netsim.Time) PacketInfo {
	return PacketInfo{
		Key: Key{
			Src: s.Src, Dst: s.Dst,
			SrcPort: s.SrcPort, DstPort: s.DstPort, Proto: s.Proto,
		},
		Length:     int(s.Length),
		Flags:      s.Flags,
		At:         at,
		Label:      s.Truth.Label,
		AttackType: s.Truth.AttackType,
	}
}
