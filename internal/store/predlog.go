package store

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"sort"

	"github.com/amlight/intddos/internal/flow"
	"github.com/amlight/intddos/internal/netsim"
)

// MaxVotes is how many per-model votes one logged decision can carry:
// the packed record's vote word holds two bits a vote. Ensembles wider
// than this are rejected when the pipeline is built, never truncated.
const MaxVotes = 16

// VoteAbsent is the vote of an ensemble member that produced none for
// a record (unhealthy or failing): the one vote value besides 0 and 1.
const VoteAbsent = -1

// Vote slots of predRec.votes. Slots past the record's last vote hold
// slotEmpty, so the word carries the vote count with the votes.
const (
	slotBenign = 0
	slotAttack = 1
	slotAbsent = 2
	slotEmpty  = 3
	noVotes    = ^uint32(0) // every slot empty
)

// flagTruth marks ground truth in predRec.flags, above the two
// addresses' forms (flow.PackAddr): src form | dst form<<2 | flagTruth.
const flagTruth = 1 << 4

// predRec is one logged decision, packed: fixed size (56 bytes) and
// pointer-free, so a chunk of them is one allocation the collector
// never scans. The attack type is an index into the log's interned
// table. An address of form flow.Form4 is held in its field itself; a
// flow.Form6 one is an index into the log's side slice of 16-byte
// addresses (the wire carries IPv4 only, so that slice stays empty in
// the pipeline). flowSeq and stage are in-memory provenance:
// checkpoints do not persist them, so restored history reads zero for
// both.
type predRec struct {
	seq      uint64 // global decision sequence
	at       int64
	latency  int64
	flowSeq  int64
	src, dst uint32
	votes    uint32
	attack   uint32
	srcPort  uint16
	dstPort  uint16
	proto    uint8
	flags    uint8
	label    uint8
	stage    uint8
}

// wideEnds holds the 16-byte forms of a packed record's src and dst,
// of which the log keeps only the flow.Form6 ones.
type wideEnds [2][16]byte

// packPrediction packs everything of p but its Seq stamp, attack type
// and IPv6 ends, which the log sets under its lock: ends carries the
// latter's bytes. It fails on a record the packed layout cannot hold
// exactly; the pipeline never produces one.
func packPrediction(p *PredictionRecord) (r predRec, ends wideEnds, err error) {
	r = predRec{
		seq:     p.Seq,
		at:      int64(p.At),
		latency: int64(p.Latency),
		flowSeq: int64(p.FlowSeq),
		votes:   noVotes,
		srcPort: p.Key.SrcPort,
		dstPort: p.Key.DstPort,
		proto:   uint8(p.Key.Proto),
		label:   uint8(p.Label),
		stage:   uint8(p.Stage),
	}
	if int(r.label) != p.Label || int(r.stage) != p.Stage {
		return r, ends, fmt.Errorf("store: prediction label %d or stage %d outside 0..255", p.Label, p.Stage)
	}
	if len(p.Votes) > MaxVotes {
		return r, ends, fmt.Errorf("store: prediction carries %d votes, the log holds %d", len(p.Votes), MaxVotes)
	}
	for i, v := range p.Votes {
		var slot uint32
		switch v {
		case 0:
			slot = slotBenign
		case 1:
			slot = slotAttack
		case VoteAbsent:
			slot = slotAbsent
		default:
			return r, ends, fmt.Errorf("store: prediction vote %d is not 0, 1 or absent", v)
		}
		r.votes = r.votes&^(slotEmpty<<(2*i)) | slot<<(2*i)
	}
	var forms [2]uint8
	for i, a := range [2]netip.Addr{p.Key.Src, p.Key.Dst} {
		if ends[i], forms[i], err = flow.PackAddr(a); err != nil {
			return r, ends, fmt.Errorf("store: prediction key: %w", err)
		}
	}
	if forms[0] == flow.Form4 {
		r.src = binary.BigEndian.Uint32(ends[0][12:])
	}
	if forms[1] == flow.Form4 {
		r.dst = binary.BigEndian.Uint32(ends[1][12:])
	}
	r.flags = forms[0] | forms[1]<<2
	if p.Truth {
		r.flags |= flagTruth
	}
	return r, ends, nil
}

// predChunkLen is how many records one chunk of the log holds (56 KiB
// a chunk). Chunks are allocated on demand at this one size and never
// regrown or copied, so a record's address is stable for the log's
// life — what lets a predView read without the log's lock.
const predChunkLen = 1024

// predLog is one shard's prediction log: packed records in append
// (and so Seq) order. Guarded by the owning DB's pmu.
type predLog struct {
	chunks []*[predChunkLen]predRec
	n      int

	// types interns attack types; predRec.attack indexes it. Append-only.
	types  []string
	typeOf map[string]uint32

	// wide holds the records' IPv6 ends, one entry an end, in append
	// order; a flow.Form6 predRec.src or dst indexes it. Append-only
	// but for restoreAll's cut.
	wide [][16]byte
}

// append logs r, interning its attack type and filing its IPv6 ends.
func (l *predLog) append(r predRec, ends *wideEnds, attackType string) {
	idx, ok := l.typeOf[attackType]
	if !ok {
		if l.typeOf == nil {
			l.typeOf = make(map[string]uint32)
		}
		idx = uint32(len(l.types))
		l.types = append(l.types, attackType)
		l.typeOf[attackType] = idx
	}
	r.attack = idx
	if r.flags&3 == flow.Form6 {
		r.src = uint32(len(l.wide))
		l.wide = append(l.wide, ends[0])
	}
	if r.flags>>2&3 == flow.Form6 {
		r.dst = uint32(len(l.wide))
		l.wide = append(l.wide, ends[1])
	}
	if l.n == len(l.chunks)*predChunkLen {
		l.chunks = append(l.chunks, new([predChunkLen]predRec))
	}
	l.chunks[l.n/predChunkLen][l.n%predChunkLen] = r
	l.n++
}

// lastSeq returns the newest record's Seq, zero for an empty log.
func (l *predLog) lastSeq() uint64 {
	if l.n == 0 {
		return 0
	}
	return l.view().at(l.n - 1).seq
}

// view freezes the log's current prefix. Records, chunks, interned
// types and IPv6 ends below the frozen lengths are never written again
// — appends only touch what lies beyond them — so a view taken under
// pmu is read after releasing it, while appends continue.
func (l *predLog) view() predView {
	return predView{chunks: l.chunks, n: l.n, types: l.types, wide: l.wide}
}

// predView is a frozen prefix of a predLog.
type predView struct {
	chunks []*[predChunkLen]predRec
	n      int
	types  []string
	wide   [][16]byte
}

func (v predView) at(i int) *predRec { return &v.chunks[i/predChunkLen][i%predChunkLen] }

// after returns the index of the first record with Seq > seq.
func (v predView) after(seq uint64) int {
	return sort.Search(v.n, func(i int) bool { return v.at(i).seq > seq })
}

// record materialises record i, its Votes cut from slab.
func (v predView) record(i int, slab *voteSlab) PredictionRecord {
	r := v.at(i)
	p := PredictionRecord{
		Key: flow.Key{
			Src:     v.addr(r.src, r.flags&3),
			Dst:     v.addr(r.dst, r.flags>>2&3),
			SrcPort: r.srcPort,
			DstPort: r.dstPort,
			Proto:   netsim.Proto(r.proto),
		},
		Label:      int(r.label),
		At:         netsim.Time(r.at),
		Latency:    netsim.Time(r.latency),
		Seq:        r.seq,
		FlowSeq:    int(r.flowSeq),
		Stage:      int(r.stage),
		Truth:      r.flags&flagTruth != 0,
		AttackType: v.types[r.attack],
	}
	n := 0
	for n < MaxVotes && r.votes>>(2*n)&3 != slotEmpty {
		n++
	}
	if n > 0 {
		p.Votes = slab.take(n)
		for j := range p.Votes {
			switch r.votes >> (2 * j) & 3 {
			case slotAttack:
				p.Votes[j] = 1
			case slotAbsent:
				p.Votes[j] = VoteAbsent
			}
		}
	}
	return p
}

// addr rebuilds one end of a record from its field x and form.
func (v predView) addr(x uint32, form uint8) netip.Addr {
	var b [16]byte
	switch form {
	case flow.Form4:
		binary.BigEndian.PutUint32(b[12:], x)
	case flow.Form6:
		b = v.wide[x]
	}
	return flow.UnpackAddr(b, form)
}

// voteSlab cuts the Votes slices of materialised records from shared
// zeroed blocks: one allocation a block, not one a record. Each slice
// is capped, so an append by its holder never reaches a neighbour.
type voteSlab struct{ free []int }

const voteSlabLen = 1024

func (s *voteSlab) take(n int) []int {
	if len(s.free) < n {
		s.free = make([]int, voteSlabLen)
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	return out
}
