package checkpoint

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net/netip"
	"runtime"
	"slices"
	"sync"

	"github.com/amlight/intddos/internal/flow"
	"github.com/amlight/intddos/internal/netsim"
	"github.com/amlight/intddos/internal/store"
)

// Wire layout:
//
//	magic "AMCK" | version u16 | sections...
//
// where each section is
//
//	id u8 | payloadLen u64 | payload | crc32(payload) u32
//
// Exactly one meta section (first), then one shard section per shard
// in index order, one windows section, one predictions section, and
// nothing after — extra bytes, duplicate or missing sections, unknown
// ids, and CRC mismatches all fail decode.
//
// Version 2 widens the shard section: each journal entry carries its
// global ingest stamp (u64 after the per-shard seq) and the section
// ends with the shard's Seq-sorted prediction log; prediction records
// are prefixed with their global decision stamp. The predictions
// section remains for version-1 files (and is written empty by v2+
// encoders); all versions decode.
//
// Version 3 widens the meta section — flags u8 (bit 0: delta, bit 1:
// compressed sections) | baseSeq u64 | baseCRC u32 — and appends a
// removed-key list to each shard section and a removed-window list to
// the windows section (both empty on full snapshots). When the
// compressed flag is set, every section payload after meta is stored
// as rawLen u64 | deflate(raw payload); payloadLen and the section
// CRC cover the stored (compressed) bytes, so corruption is detected
// before inflation.
const (
	secMeta        = 1
	secShard       = 2
	secWindows     = 3
	secPredictions = 4
)

const (
	flagDelta      = 1 << 0
	flagCompressed = 1 << 1
)

var magic = [4]byte{'A', 'M', 'C', 'K'}

// keyWireLen is the fixed wire size of a flow.Key: address-form byte,
// 16-byte source and destination, ports, protocol.
const keyWireLen = 1 + 16 + 16 + 2 + 2 + 1

// minShardSectionLen is the smallest possible encoded shard section
// (header, empty-shard payload, CRC) across versions — the bound the
// decoder uses to reject a wire-supplied shard count no file of this
// size could actually carry.
const minShardSectionLen = 1 + 8 + 4 + 8

// EncodeOptions selects optional format-v3 encoding features.
type EncodeOptions struct {
	// Compress deflate-compresses every section payload after meta.
	// Smaller files, slower writes; restore auto-detects either way.
	Compress bool

	// Scratch, when non-nil, supplies the encoder's reusable buffers.
	// Long-lived periodic writers should keep one EncodeScratch for
	// the life of the pipeline (see its doc comment); one-shot
	// encoders leave it nil and fall back to the GC-drained pools.
	// Does not affect the encoded bytes.
	Scratch *EncodeScratch
}

// --- primitive writer/reader ---

type writer struct{ buf []byte }

func (w *writer) u8(v uint8)   { w.buf = append(w.buf, v) }
func (w *writer) u32(v uint32) { w.buf = binary.BigEndian.AppendUint32(w.buf, v) }
func (w *writer) u64(v uint64) { w.buf = binary.BigEndian.AppendUint64(w.buf, v) }
func (w *writer) i64(v int64)  { w.u64(uint64(v)) }
func (w *writer) str(s string) {
	w.u32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// reserve extends the buffer by n bytes and returns the new region for
// the caller to fill with PutUint* at fixed offsets. One capacity
// check per record instead of one per field: the per-field append
// path's bounds checks were measurable across a hundred million field
// writes at the 1M-flow scale.
func (w *writer) reserve(n int) []byte {
	l := len(w.buf)
	if cap(w.buf) < l+n {
		c := 2 * cap(w.buf)
		if c < l+n {
			c = l + n
		}
		nb := make([]byte, l, c)
		copy(nb, w.buf)
		w.buf = nb
	}
	w.buf = w.buf[:l+n]
	return w.buf[l : l+n]
}

type reader struct {
	buf []byte
	off int
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.buf) {
		r.fail("checkpoint: truncated at offset %d (want %d more bytes, have %d)", r.off, n, len(r.buf)-r.off)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *reader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}
func (r *reader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}
func (r *reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}
func (r *reader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}
func (r *reader) i64() int64   { return int64(r.u64()) }
func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }
func (r *reader) boolb() bool  { return r.u8() != 0 }
func (r *reader) str() string {
	n := int(r.u32())
	if r.err != nil {
		return ""
	}
	return string(r.take(n))
}

// count reads a u32 element count and sanity-bounds it against the
// remaining payload so a corrupt length cannot drive a giant
// allocation before the truncation check fires.
func (r *reader) count(minElemSize int) int {
	n := int(r.u32())
	if r.err != nil {
		return 0
	}
	if minElemSize > 0 && n > (len(r.buf)-r.off)/minElemSize {
		r.fail("checkpoint: element count %d exceeds remaining payload", n)
		return 0
	}
	return n
}

// --- flow.Key ---

// addrForm encodes an address's representation so decode rebuilds the
// exact same netip.Addr value: 0 = zero/invalid, 4 = IPv4, 6 = IPv6.
func addrForm(a netip.Addr) uint8 {
	switch {
	case !a.IsValid():
		return 0
	case a.Is4():
		return 4
	default:
		return 6
	}
}

func restoreAddr(form uint8, b [16]byte, r *reader) netip.Addr {
	switch form {
	case 0:
		return netip.Addr{}
	case 4:
		return netip.AddrFrom4([4]byte(b[12:16]))
	case 6:
		return netip.AddrFrom16(b)
	default:
		r.fail("checkpoint: unknown address form %d", form)
		return netip.Addr{}
	}
}

// wireKey returns the canonical sort key: a key's exact wire bytes,
// built in place — the canonical sort computes one per element, and an
// allocation here would dominate large encodes.
func wireKey(k flow.Key) (out [keyWireLen]byte) {
	out[0] = addrForm(k.Src)<<4 | addrForm(k.Dst)
	src, dst := k.Src.As16(), k.Dst.As16()
	copy(out[1:17], src[:])
	copy(out[17:33], dst[:])
	binary.BigEndian.PutUint16(out[33:35], k.SrcPort)
	binary.BigEndian.PutUint16(out[35:37], k.DstPort)
	out[37] = uint8(k.Proto)
	return out
}

func putKey(w *writer, k flow.Key) {
	kb := wireKey(k)
	w.buf = append(w.buf, kb[:]...)
}

func getKey(r *reader) flow.Key {
	form := r.u8()
	var src, dst [16]byte
	copy(src[:], r.take(16))
	copy(dst[:], r.take(16))
	k := flow.Key{SrcPort: r.u16(), DstPort: r.u16(), Proto: netsim.Proto(r.u8())}
	if r.err != nil {
		return flow.Key{}
	}
	k.Src = restoreAddr(form>>4, src, r)
	k.Dst = restoreAddr(form&0xF, dst, r)
	return k
}

// sortKey is a wire key repacked as five big-endian u64 words (the
// trailing 6 bytes left-aligned into the last word), so the canonical
// sort compares machine integers instead of calling bytes.Compare on
// 38-byte slices. Big-endian word order compares identically to byte
// order, and in practice the first differing word is reached on the
// first or second compare — real keys share the long IPv4-in-IPv6
// mapped prefix.
type sortKey struct{ w [5]uint64 }

func makeSortKey(k flow.Key) sortKey {
	kb := wireKey(k)
	return sortKey{w: [5]uint64{
		binary.BigEndian.Uint64(kb[0:8]),
		binary.BigEndian.Uint64(kb[8:16]),
		binary.BigEndian.Uint64(kb[16:24]),
		binary.BigEndian.Uint64(kb[24:32]),
		uint64(binary.BigEndian.Uint32(kb[32:36]))<<32 |
			uint64(binary.BigEndian.Uint16(kb[36:38]))<<16,
	}}
}

func (a *sortKey) compare(b *sortKey) int {
	for i := range a.w {
		if a.w[i] != b.w[i] {
			if a.w[i] < b.w[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// keyIdx pairs a precomputed sort key with the element's position.
// The sort moves the pairs themselves (slices.SortFunc on a concrete
// struct — no interface dispatch, no reflect swap), so every compare
// touches adjacent memory instead of chasing idx into a separate key
// array.
type keyIdx struct {
	k sortKey
	i int32
}

// sortPairPool and sortIdxPool recycle the canonical sort's scratch
// arrays (~90 MB per 1M-flow encode) for encoders without an
// EncodeScratch. Like sectionBufPool, the point is keeping
// steady-state checkpoint writes allocation-quiet: every megabyte not
// allocated is GC work not done while the op runs.
var (
	sortPairPool sync.Pool
	sortIdxPool  sync.Pool
)

// sortedIndex returns the permutation that orders in by each element's
// canonical wire key, without moving the elements — the encoders walk
// the index instead of materializing a sorted copy, which at 1M flows
// saves hundreds of MB of fresh allocation inside the write path.
// Keys are computed once per element up front — computing them inside
// the comparator (the old shape) cost O(n log n) key encodings and
// dominated large snapshot encodes. The returned index may be handed
// back via releaseSortIndex once the caller is done walking it.
func sortedIndex[T any](es *EncodeScratch, in []T, keyOf func(*T) flow.Key) []int32 {
	n := len(in)
	var pairs []keyIdx
	var idx []int32
	if es != nil {
		es.mu.Lock()
		ps, pok := es.pairs.get(n)
		is, iok := es.idxs.get(n)
		es.mu.Unlock()
		if pok {
			pairs = ps[:n]
		}
		if iok {
			idx = is[:n]
		}
	} else {
		if v, ok := sortPairPool.Get().(*[]keyIdx); ok && cap(*v) >= n {
			pairs = (*v)[:n]
		}
		if v, ok := sortIdxPool.Get().(*[]int32); ok && cap(*v) >= n {
			idx = (*v)[:n]
		}
	}
	if pairs == nil {
		pairs = make([]keyIdx, n)
	}
	if idx == nil {
		idx = make([]int32, n)
	}
	for i := range in {
		pairs[i] = keyIdx{k: makeSortKey(keyOf(&in[i])), i: int32(i)}
	}
	slices.SortFunc(pairs, func(a, b keyIdx) int { return a.k.compare(&b.k) })
	for i := range pairs {
		idx[i] = pairs[i].i
	}
	if es != nil {
		es.mu.Lock()
		es.pairs.put(pairs, maxScratchBufs)
		es.mu.Unlock()
	} else {
		pp := pairs[:0]
		sortPairPool.Put(&pp)
	}
	return idx
}

// releaseSortIndex recycles a sortedIndex result. Callers that cannot
// prove the index is dead just drop it instead.
func releaseSortIndex(es *EncodeScratch, idx []int32) {
	if cap(idx) < 1<<10 {
		return
	}
	if es != nil {
		es.mu.Lock()
		es.idxs.put(idx, maxScratchBufs)
		es.mu.Unlock()
		return
	}
	ip := idx[:0]
	sortIdxPool.Put(&ip)
}

// sortByWireKey returns a copy of in ordered by each element's
// canonical wire key. Only for small inputs (removal lists, the
// in-place sort helpers); the section builders use sortedIndex.
func sortByWireKey[T any](in []T, keyOf func(*T) flow.Key) []T {
	if len(in) == 0 {
		return nil
	}
	out := make([]T, len(in))
	idx := sortedIndex(nil, in, keyOf)
	for o, i := range idx {
		out[o] = in[i]
	}
	releaseSortIndex(nil, idx)
	return out
}

func sortedKeys(in []flow.Key) []flow.Key {
	return sortByWireKey(in, func(k *flow.Key) flow.Key { return *k })
}

// SortWindows orders windows by canonical wire key in place — the
// order the encoder writes them. The capture path sorts after the
// barrier releases so two captures of identical state are equal as
// values, not merely as encoded bytes.
func SortWindows(ws []Window) {
	copy(ws, sortByWireKey(ws, func(w *Window) flow.Key { return w.Key }))
}

// SortKeys orders a key list by canonical wire key in place.
func SortKeys(ks []flow.Key) {
	copy(ks, sortedKeys(ks))
}

// --- records ---
//
// The record writers fill a reserved region at fixed offsets instead
// of appending field by field: same bytes, one capacity check per
// record. Variable-length strings still go through the append path.

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// putKeyAt writes k's wire form into the first keyWireLen bytes of b.
func putKeyAt(b []byte, k flow.Key) {
	kb := wireKey(k)
	copy(b, kb[:])
}

// statsWireLen is the fixed wire size of a flow.StatsSnapshot.
const statsWireLen = 8 + 4*8

func putStatsAt(b []byte, s *flow.StatsSnapshot) {
	binary.BigEndian.PutUint64(b[0:], uint64(s.N))
	binary.BigEndian.PutUint64(b[8:], math.Float64bits(s.Last))
	binary.BigEndian.PutUint64(b[16:], math.Float64bits(s.Sum))
	binary.BigEndian.PutUint64(b[24:], math.Float64bits(s.Mean))
	binary.BigEndian.PutUint64(b[32:], math.Float64bits(s.M2))
}

func getStats(r *reader) flow.StatsSnapshot {
	return flow.StatsSnapshot{
		N: int(r.u64()), Last: r.f64(), Sum: r.f64(), Mean: r.f64(), M2: r.f64(),
	}
}

// stateFixedLen is everything in a state record up to the trailing
// variable-length AttackType string.
const stateFixedLen = keyWireLen + 3*8 + 4*statsWireLen + 4 + 1 + 1 + 8 + 1

func putState(w *writer, s *flow.StateSnapshot) {
	b := w.reserve(stateFixedLen)
	putKeyAt(b, s.Key)
	off := keyWireLen
	binary.BigEndian.PutUint64(b[off:], uint64(s.RegisteredAt))
	binary.BigEndian.PutUint64(b[off+8:], uint64(s.LastAt))
	binary.BigEndian.PutUint64(b[off+16:], uint64(s.Updates))
	off += 24
	putStatsAt(b[off:], &s.Size)
	putStatsAt(b[off+statsWireLen:], &s.IAT)
	putStatsAt(b[off+2*statsWireLen:], &s.Queue)
	putStatsAt(b[off+3*statsWireLen:], &s.HopLat)
	off += 4 * statsWireLen
	binary.BigEndian.PutUint32(b[off:], uint32(s.LastIngress))
	b[off+4] = boolByte(s.HaveIngress)
	b[off+5] = boolByte(s.HasTelemetry)
	binary.BigEndian.PutUint64(b[off+6:], uint64(s.AttackObs))
	b[off+14] = boolByte(s.LastTruth)
	w.str(s.AttackType)
}

func getState(r *reader) flow.StateSnapshot {
	return flow.StateSnapshot{
		Key:          getKey(r),
		RegisteredAt: netsim.Time(r.i64()),
		LastAt:       netsim.Time(r.i64()),
		Updates:      int(r.u64()),
		Size:         getStats(r),
		IAT:          getStats(r),
		Queue:        getStats(r),
		HopLat:       getStats(r),
		LastIngress:  netsim.Timestamp32(r.u32()),
		HaveIngress:  r.boolb(),
		HasTelemetry: r.boolb(),
		AttackObs:    int(r.u64()),
		LastTruth:    r.boolb(),
		AttackType:   r.str(),
	}
}

func putFlowRecord(w *writer, rec *store.FlowRecord) {
	n := len(rec.Features)
	b := w.reserve(keyWireLen + 4 + 8*n + 4*8 + 1)
	putKeyAt(b, rec.Key)
	off := keyWireLen
	binary.BigEndian.PutUint32(b[off:], uint32(n))
	off += 4
	for _, f := range rec.Features {
		binary.BigEndian.PutUint64(b[off:], math.Float64bits(f))
		off += 8
	}
	binary.BigEndian.PutUint64(b[off:], uint64(rec.RegisteredAt))
	binary.BigEndian.PutUint64(b[off+8:], uint64(rec.UpdatedAt))
	binary.BigEndian.PutUint64(b[off+16:], uint64(rec.Updates))
	binary.BigEndian.PutUint64(b[off+24:], rec.Version)
	b[off+32] = boolByte(rec.Truth)
	w.str(rec.AttackType)
}

func getFlowRecord(r *reader) store.FlowRecord {
	rec := store.FlowRecord{Key: getKey(r)}
	n := r.count(8)
	if n > 0 {
		rec.Features = make([]float64, n)
		for i := range rec.Features {
			rec.Features[i] = r.f64()
		}
	}
	rec.RegisteredAt = netsim.Time(r.i64())
	rec.UpdatedAt = netsim.Time(r.i64())
	rec.Updates = int(r.u64())
	rec.Version = r.u64()
	rec.Truth = r.boolb()
	rec.AttackType = r.str()
	return rec
}

// putPrediction writes the version-1 record layout; version 2+
// prefixes it with the global decision sequence stamp (the field the
// per-shard logs are sorted and merged by).
func putPrediction(w *writer, p *store.PredictionRecord, ver uint16) {
	nv := len(p.Votes)
	fixed := keyWireLen + 3*8 + 4 + 8*nv + 1
	if ver >= 2 {
		fixed += 8
	}
	b := w.reserve(fixed)
	off := 0
	if ver >= 2 {
		binary.BigEndian.PutUint64(b, p.Seq)
		off = 8
	}
	putKeyAt(b[off:], p.Key)
	off += keyWireLen
	binary.BigEndian.PutUint64(b[off:], uint64(p.Label))
	binary.BigEndian.PutUint64(b[off+8:], uint64(p.At))
	binary.BigEndian.PutUint64(b[off+16:], uint64(p.Latency))
	binary.BigEndian.PutUint32(b[off+24:], uint32(nv))
	off += 28
	for _, v := range p.Votes {
		binary.BigEndian.PutUint64(b[off:], uint64(int64(v)))
		off += 8
	}
	b[off] = boolByte(p.Truth)
	w.str(p.AttackType)
}

func getPrediction(r *reader, ver uint16) store.PredictionRecord {
	var p store.PredictionRecord
	if ver >= 2 {
		p.Seq = r.u64()
	}
	p.Key = getKey(r)
	p.Label = int(r.i64())
	p.At = netsim.Time(r.i64())
	p.Latency = netsim.Time(r.i64())
	n := r.count(8)
	if n > 0 {
		p.Votes = make([]int, n)
		for i := range p.Votes {
			p.Votes[i] = int(r.i64())
		}
	}
	p.Truth = r.boolb()
	p.AttackType = r.str()
	return p
}

// --- section builders ---
//
// Each section payload is built independently (meta first, then one
// per shard, windows, predictions), which is what lets WriteStream
// encode them on parallel goroutines and stream each one to disk as
// it completes instead of materializing the whole file in one buffer.

type sectionJob struct {
	id    uint8
	build func() []byte
}

// sectionBufPool recycles section payload buffers across builds and
// across checkpoints. At a million flows a shard section runs to
// ~110 MB; without reuse every periodic checkpoint allocates that
// afresh and pays the kernel's first-touch page zeroing for it. The
// pool hands a built payload back once writeStream has emitted it, so
// steady-state writes touch only warm memory. Entries are *[]byte to
// keep Put allocation-free.
//
// sync.Pool is drained by the garbage collector, which is right for
// one-shot encoders (tests, tooling) but wrong for a pipeline that
// checkpoints periodically — many GC cycles pass between writes and
// the pool would always come up empty. Long-lived writers pass an
// EncodeScratch instead (EncodeOptions.Scratch); the pool is the
// fallback when they don't.
var sectionBufPool sync.Pool

// getSectionBuf returns an empty buffer with at least est capacity,
// reusing a pooled one when it is big enough.
func getSectionBuf(es *EncodeScratch, est int) []byte {
	if es != nil {
		es.mu.Lock()
		b, ok := es.bufs.get(est)
		es.mu.Unlock()
		if ok {
			return b
		}
		return make([]byte, 0, est)
	}
	if v, ok := sectionBufPool.Get().(*[]byte); ok && cap(*v) >= est {
		return (*v)[:0]
	}
	return make([]byte, 0, est)
}

func putSectionBuf(es *EncodeScratch, b []byte) {
	// Tiny buffers (meta sections, small-table tests) are cheap to
	// allocate and would crowd the big ones out of the pool's slots.
	if cap(b) < 1<<16 {
		return
	}
	if es != nil {
		es.mu.Lock()
		es.bufs.put(b, maxScratchBufs)
		es.mu.Unlock()
		return
	}
	b = b[:0]
	sectionBufPool.Put(&b)
}

// freelist is a tiny explicit free-list of slices, capacity-aware on
// get. Unlike sync.Pool it survives garbage collection — entries stay
// until taken — which is the point: it backs EncodeScratch, whose
// whole job is keeping buffers warm across checkpoint intervals that
// span many GC cycles.
type freelist[T any] struct{ items [][]T }

// get returns the smallest slice with capacity >= n. Best fit, not
// first fit: a write cycle asks for several distinct sizes in an
// order that differs from the order the buffers came back in, and a
// small request that grabs the biggest buffer forces the next big
// request to miss and reallocate — the steady state then never goes
// allocation-quiet.
func (f *freelist[T]) get(n int) ([]T, bool) {
	best := -1
	for i, it := range f.items {
		if cap(it) >= n && (best < 0 || cap(it) < cap(f.items[best])) {
			best = i
		}
	}
	if best < 0 {
		return nil, false
	}
	it := f.items[best]
	last := len(f.items) - 1
	f.items[best] = f.items[last]
	f.items[last] = nil
	f.items = f.items[:last]
	return it[:0], true
}

func (f *freelist[T]) put(s []T, max int) {
	if len(f.items) < max {
		f.items = append(f.items, s[:0])
	}
}

// maxScratchBufs bounds each freelist: enough for every concurrently
// in-flight section build plus the emitted one being recycled.
const maxScratchBufs = 10

// EncodeScratch owns the encoder's reusable buffers — section
// payloads and canonical-sort scratch — across checkpoint writes. A
// long-lived writer (core.Live) keeps one and passes it via
// EncodeOptions.Scratch so steady-state checkpoints run
// allocation-quiet: on a single-core host the alternative is not just
// allocator time but whole GC cycles landing inside the write,
// marking the pipeline's multi-gigabyte heap. Safe for concurrent use
// by one writeStream's section builders; distinct writers need
// distinct scratches or none.
type EncodeScratch struct {
	mu    sync.Mutex
	bufs  freelist[byte]
	pairs freelist[keyIdx]
	idxs  freelist[int32]
}

func buildMeta(s *Snapshot, ver uint16, compress bool) []byte {
	var meta writer
	meta.buf = make([]byte, 0, 64)
	meta.u32(uint32(s.Shards))
	meta.u64(s.Fingerprint)
	meta.u32(uint32(s.FeatureWidth))
	meta.u64(s.Seq)
	meta.i64(s.TakenAtUnixNano)
	if ver >= 3 {
		var flags uint8
		if s.Delta {
			flags |= flagDelta
		}
		if compress {
			flags |= flagCompressed
		}
		meta.u8(flags)
		meta.u64(s.BaseSeq)
		meta.u32(s.BaseCRC)
	}
	return meta.buf
}

func buildShard(s *Snapshot, i int, ver uint16, es *EncodeScratch) []byte {
	sh := &s.ShardStates[i]
	est := 64 + len(sh.Table)*288 + len(sh.StoreFlows)*224 +
		len(sh.Store.Journal)*240 + len(sh.Store.Preds)*144 +
		len(sh.Removed)*keyWireLen
	w := &writer{buf: getSectionBuf(es, est)}
	w.u32(uint32(i))

	w.u32(uint32(len(sh.Table)))
	tix := sortedIndex(es, sh.Table, func(st *flow.StateSnapshot) flow.Key { return st.Key })
	for _, ix := range tix {
		putState(w, &sh.Table[ix])
	}
	releaseSortIndex(es, tix)

	w.u32(uint32(len(sh.StoreFlows)))
	fix := sortedIndex(es, sh.StoreFlows, func(rec *store.FlowRecord) flow.Key { return rec.Key })
	for _, ix := range fix {
		putFlowRecord(w, &sh.StoreFlows[ix])
	}
	releaseSortIndex(es, fix)

	// The journal is a feed: append order is meaning, keep it.
	w.u32(uint32(len(sh.Store.Journal)))
	for i := range sh.Store.Journal {
		e := &sh.Store.Journal[i]
		w.u64(e.Seq)
		if ver >= 2 {
			w.u64(e.GSeq)
		}
		putFlowRecord(w, &e.Rec)
	}
	w.u64(sh.Store.Seq)
	if ver >= 2 {
		// The shard's prediction log: Seq order is meaning, keep it.
		w.u32(uint32(len(sh.Store.Preds)))
		for i := range sh.Store.Preds {
			putPrediction(w, &sh.Store.Preds[i], ver)
		}
	}
	if ver >= 3 {
		removed := sortedKeys(sh.Removed)
		w.u32(uint32(len(removed)))
		for _, k := range removed {
			putKey(w, k)
		}
	}
	return w.buf
}

func buildWindows(s *Snapshot, ver uint16, es *EncodeScratch) []byte {
	est := 16 + len(s.Windows)*80 + len(s.RemovedWindows)*keyWireLen
	ww := &writer{buf: getSectionBuf(es, est)}
	ww.u32(uint32(len(s.Windows)))
	wix := sortedIndex(es, s.Windows, func(win *Window) flow.Key { return win.Key })
	for _, ix := range wix {
		win := &s.Windows[ix]
		putKey(ww, win.Key)
		ww.u32(uint32(len(win.Votes)))
		for _, v := range win.Votes {
			ww.i64(int64(v))
		}
	}
	releaseSortIndex(es, wix)
	if ver >= 3 {
		removed := sortedKeys(s.RemovedWindows)
		ww.u32(uint32(len(removed)))
		for _, k := range removed {
			putKey(ww, k)
		}
	}
	return ww.buf
}

func buildPreds(s *Snapshot, ver uint16, es *EncodeScratch) []byte {
	pw := &writer{buf: getSectionBuf(es, 16+len(s.Predictions)*144)}
	pw.u32(uint32(len(s.Predictions)))
	for i := range s.Predictions {
		putPrediction(pw, &s.Predictions[i], ver)
	}
	return pw.buf
}

func sectionJobs(s *Snapshot, ver uint16, compress bool, es *EncodeScratch) []sectionJob {
	jobs := make([]sectionJob, 0, len(s.ShardStates)+3)
	jobs = append(jobs, sectionJob{secMeta, func() []byte { return buildMeta(s, ver, compress) }})
	for i := range s.ShardStates {
		i := i
		jobs = append(jobs, sectionJob{secShard, func() []byte { return buildShard(s, i, ver, es) }})
	}
	jobs = append(jobs, sectionJob{secWindows, func() []byte { return buildWindows(s, ver, es) }})
	jobs = append(jobs, sectionJob{secPredictions, func() []byte { return buildPreds(s, ver, es) }})
	return jobs
}

// deflateSection wraps a raw section payload in the compressed
// on-wire form: raw length, then the deflate stream. BestSpeed — the
// feature snapshots are mostly float64 fields where heavier levels
// buy little, and the write path competes with live ingest for CPU.
func deflateSection(raw []byte) []byte {
	var buf bytes.Buffer
	buf.Grow(len(raw)/2 + 16)
	var hdr [8]byte
	binary.BigEndian.PutUint64(hdr[:], uint64(len(raw)))
	buf.Write(hdr[:])
	fw, _ := flate.NewWriter(&buf, flate.BestSpeed)
	fw.Write(raw)
	fw.Close()
	return buf.Bytes()
}

// inflateSection reverses deflateSection. The claimed raw length only
// seeds the buffer (capped, so a hostile header cannot drive a giant
// allocation) and is then verified against the actual inflated size.
func inflateSection(stored []byte) ([]byte, error) {
	if len(stored) < 8 {
		return nil, fmt.Errorf("checkpoint: compressed section too short (%d bytes)", len(stored))
	}
	rawLen := binary.BigEndian.Uint64(stored[:8])
	grow := rawLen
	if grow > 1<<20 {
		grow = 1 << 20
	}
	var buf bytes.Buffer
	buf.Grow(int(grow))
	fr := flate.NewReader(bytes.NewReader(stored[8:]))
	n, err := io.Copy(&buf, io.LimitReader(fr, int64(rawLen)+1))
	if cerr := fr.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("checkpoint: corrupt compressed section: %w", err)
	}
	if uint64(n) != rawLen {
		return nil, fmt.Errorf("checkpoint: compressed section inflates to %d bytes, header claims %d", n, rawLen)
	}
	return buf.Bytes(), nil
}

// encodeParallelism bounds the section-encode worker pool: one worker
// per core up to a small cap — sections beyond that just queue, and
// each in-flight worker holds a whole section payload in memory.
func encodeParallelism() int {
	p := runtime.GOMAXPROCS(0)
	if p > 8 {
		p = 8
	}
	if p < 1 {
		p = 1
	}
	return p
}

// WriteStream encodes the snapshot at the current format version and
// streams it to w: section payloads are built (and optionally
// compressed) on a bounded pool of goroutines while completed
// sections are written in order, so peak memory is a few sections —
// not the whole file — and encode overlaps IO. Returns the bytes
// written and the CRC-32 (IEEE) of the entire stream, which is the
// value a child delta records as BaseCRC.
func WriteStream(w io.Writer, s *Snapshot, opt EncodeOptions) (int64, uint32, error) {
	return writeStream(w, s, Version, opt)
}

func writeStream(w io.Writer, s *Snapshot, ver uint16, opt EncodeOptions) (int64, uint32, error) {
	compress := opt.Compress && ver >= 3
	es := opt.Scratch
	jobs := sectionJobs(s, ver, compress, es)

	results := make([]chan []byte, len(jobs))
	sem := make(chan struct{}, encodeParallelism())
	for i := range jobs {
		results[i] = make(chan []byte, 1)
		go func(i int) {
			sem <- struct{}{}
			defer func() { <-sem }()
			payload := jobs[i].build()
			if compress && jobs[i].id != secMeta {
				raw := payload
				payload = deflateSection(raw)
				putSectionBuf(es, raw)
			}
			results[i] <- payload
		}(i)
	}

	crc := crc32.NewIEEE()
	var written int64
	emit := func(b []byte) error {
		n, err := w.Write(b)
		written += int64(n)
		crc.Write(b[:n])
		return err
	}

	var hdr [6]byte
	copy(hdr[:4], magic[:])
	binary.BigEndian.PutUint16(hdr[4:6], ver)
	if err := emit(hdr[:]); err != nil {
		return written, crc.Sum32(), err
	}
	var scratch [9]byte
	for i := range jobs {
		payload := <-results[i]
		scratch[0] = jobs[i].id
		binary.BigEndian.PutUint64(scratch[1:9], uint64(len(payload)))
		if err := emit(scratch[:9]); err != nil {
			return written, crc.Sum32(), err
		}
		if err := emit(payload); err != nil {
			return written, crc.Sum32(), err
		}
		var tail [4]byte
		binary.BigEndian.PutUint32(tail[:], crc32.ChecksumIEEE(payload))
		putSectionBuf(es, payload)
		if err := emit(tail[:]); err != nil {
			return written, crc.Sum32(), err
		}
	}
	return written, crc.Sum32(), nil
}

// Encode serializes the snapshot into the canonical wire form of the
// current version: flows, records, windows, and removal lists sorted
// by wire key, so equal snapshots encode to equal bytes regardless of
// map iteration order. Prefer WriteStream for large snapshots headed
// to disk — Encode materializes the whole file.
func Encode(s *Snapshot) []byte { return encode(s, Version) }

// EncodeV1 serializes the snapshot in the version-1 layout: journal
// entries without global stamps, per-shard prediction logs dropped in
// favour of the one global predictions section. It exists for
// rollback tooling and for the cross-version tests that pin "an old
// snapshot still restores" — new snapshots should use Encode. Callers
// wanting the version-1 view of a version-2 snapshot must fold the
// shard logs into s.Predictions themselves (sort them by Seq).
// Delta snapshots cannot be represented before version 3; encode only
// full snapshots here.
func EncodeV1(s *Snapshot) []byte { return encode(s, 1) }

// EncodeV2 serializes the snapshot in the version-2 layout (per-shard
// prediction logs, no delta metadata) for the cross-version tests and
// rollback tooling. Delta snapshots cannot be represented before
// version 3; encode only full snapshots here.
func EncodeV2(s *Snapshot) []byte { return encode(s, 2) }

func encode(s *Snapshot, ver uint16) []byte {
	var buf bytes.Buffer
	if _, _, err := writeStream(&buf, s, ver, EncodeOptions{}); err != nil {
		// bytes.Buffer writes cannot fail; keep the invariant loud.
		panic(err)
	}
	return buf.Bytes()
}

// Decode parses a snapshot, rejecting anything malformed: wrong
// magic, future version, CRC mismatch, truncation, unknown or
// out-of-order sections, implausible wire-supplied counts, or
// trailing bytes. A rejected file loads no state at all.
func Decode(data []byte) (*Snapshot, error) {
	if len(data) < len(magic)+2 {
		return nil, fmt.Errorf("checkpoint: file too short (%d bytes)", len(data))
	}
	if !bytes.Equal(data[:4], magic[:]) {
		return nil, fmt.Errorf("checkpoint: bad magic %q", data[:4])
	}
	ver := binary.BigEndian.Uint16(data[4:6])
	if ver == 0 || ver > Version {
		return nil, fmt.Errorf("checkpoint: unsupported format version %d (this binary reads ≤ %d)", ver, Version)
	}

	snap := &Snapshot{}
	compressed := false
	off := 6
	sawMeta, sawWindows, sawPreds := false, false, false
	shardsSeen := 0
	for off < len(data) {
		if off+1+8 > len(data) {
			return nil, fmt.Errorf("checkpoint: truncated section header at offset %d", off)
		}
		id := data[off]
		plen := binary.BigEndian.Uint64(data[off+1 : off+9])
		off += 9
		if plen > uint64(len(data)-off) {
			return nil, fmt.Errorf("checkpoint: section %d truncated (claims %d bytes, %d remain)", id, plen, len(data)-off)
		}
		payload := data[off : off+int(plen)]
		off += int(plen)
		if off+4 > len(data) {
			return nil, fmt.Errorf("checkpoint: section %d missing CRC", id)
		}
		want := binary.BigEndian.Uint32(data[off : off+4])
		off += 4
		if got := crc32.ChecksumIEEE(payload); got != want {
			return nil, fmt.Errorf("checkpoint: section %d CRC mismatch (got %08x, want %08x)", id, got, want)
		}
		if compressed && id != secMeta {
			raw, err := inflateSection(payload)
			if err != nil {
				return nil, fmt.Errorf("checkpoint: section %d: %w", id, err)
			}
			payload = raw
		}

		r := &reader{buf: payload}
		switch id {
		case secMeta:
			if sawMeta {
				return nil, fmt.Errorf("checkpoint: duplicate meta section")
			}
			sawMeta = true
			snap.Shards = int(r.u32())
			snap.Fingerprint = r.u64()
			snap.FeatureWidth = int(r.u32())
			snap.Seq = r.u64()
			snap.TakenAtUnixNano = r.i64()
			if ver >= 3 {
				flags := r.u8()
				if r.err == nil && flags&^(flagDelta|flagCompressed) != 0 {
					return nil, fmt.Errorf("checkpoint: unknown meta flags %#x", flags)
				}
				snap.Delta = flags&flagDelta != 0
				compressed = flags&flagCompressed != 0
				snap.BaseSeq = r.u64()
				snap.BaseCRC = r.u32()
				if r.err == nil && !snap.Delta && (snap.BaseSeq != 0 || snap.BaseCRC != 0) {
					return nil, fmt.Errorf("checkpoint: full snapshot carries a parent link (base seq %d)", snap.BaseSeq)
				}
			}
			if r.err == nil && (snap.Shards < 1 || snap.Shards > 1<<20) {
				return nil, fmt.Errorf("checkpoint: implausible shard count %d", snap.Shards)
			}
			// The wire-supplied count drives the ShardState
			// preallocation below, so bound it by what the remaining
			// file could possibly hold — one minimal section per shard —
			// before trusting it (hostile-count hardening; same class as
			// the fuzz-found trace.Read preallocation bug).
			if r.err == nil && snap.Shards > (len(data)-off)/minShardSectionLen {
				return nil, fmt.Errorf("checkpoint: shard count %d exceeds remaining file (%d bytes)", snap.Shards, len(data)-off)
			}
			snap.ShardStates = make([]ShardState, snap.Shards)
		case secShard:
			if !sawMeta {
				return nil, fmt.Errorf("checkpoint: shard section before meta")
			}
			idx := int(r.u32())
			if r.err == nil && (idx != shardsSeen || idx >= snap.Shards) {
				return nil, fmt.Errorf("checkpoint: shard section %d out of order (expected %d of %d)", idx, shardsSeen, snap.Shards)
			}
			var sh ShardState
			n := r.count(keyWireLen)
			for i := 0; i < n && r.err == nil; i++ {
				sh.Table = append(sh.Table, getState(r))
			}
			n = r.count(keyWireLen)
			for i := 0; i < n && r.err == nil; i++ {
				sh.StoreFlows = append(sh.StoreFlows, getFlowRecord(r))
			}
			entrySize := keyWireLen + 8
			if ver >= 2 {
				entrySize += 8
			}
			n = r.count(entrySize)
			for i := 0; i < n && r.err == nil; i++ {
				e := store.JournalEntry{Seq: r.u64()}
				if ver >= 2 {
					e.GSeq = r.u64()
				}
				e.Rec = getFlowRecord(r)
				sh.Store.Journal = append(sh.Store.Journal, e)
			}
			sh.Store.Seq = r.u64()
			if ver >= 2 {
				var prevSeq uint64
				n = r.count(keyWireLen + 8)
				for i := 0; i < n && r.err == nil; i++ {
					p := getPrediction(r, ver)
					// The merge cursor's invariant: each shard's log is
					// strictly Seq-sorted. A file violating it would
					// silently scramble the reconstructed global order,
					// so reject it here like any other corruption.
					if r.err == nil && p.Seq <= prevSeq {
						return nil, fmt.Errorf("checkpoint: shard %d prediction log not Seq-sorted (%d after %d)", idx, p.Seq, prevSeq)
					}
					prevSeq = p.Seq
					sh.Store.Preds = append(sh.Store.Preds, p)
				}
			}
			if ver >= 3 {
				n = r.count(keyWireLen)
				if r.err == nil && n > 0 && !snap.Delta {
					return nil, fmt.Errorf("checkpoint: full snapshot shard %d carries %d removed keys", idx, n)
				}
				for i := 0; i < n && r.err == nil; i++ {
					sh.Removed = append(sh.Removed, getKey(r))
				}
			}
			if r.err == nil {
				snap.ShardStates[idx] = sh
				shardsSeen++
			}
		case secWindows:
			if sawWindows {
				return nil, fmt.Errorf("checkpoint: duplicate windows section")
			}
			sawWindows = true
			n := r.count(keyWireLen)
			for i := 0; i < n && r.err == nil; i++ {
				win := Window{Key: getKey(r)}
				nv := r.count(8)
				for j := 0; j < nv && r.err == nil; j++ {
					win.Votes = append(win.Votes, int(r.i64()))
				}
				snap.Windows = append(snap.Windows, win)
			}
			if ver >= 3 {
				n = r.count(keyWireLen)
				if r.err == nil && n > 0 && !snap.Delta {
					return nil, fmt.Errorf("checkpoint: full snapshot carries %d removed windows", n)
				}
				for i := 0; i < n && r.err == nil; i++ {
					snap.RemovedWindows = append(snap.RemovedWindows, getKey(r))
				}
			}
		case secPredictions:
			if sawPreds {
				return nil, fmt.Errorf("checkpoint: duplicate predictions section")
			}
			sawPreds = true
			n := r.count(keyWireLen)
			for i := 0; i < n && r.err == nil; i++ {
				snap.Predictions = append(snap.Predictions, getPrediction(r, ver))
			}
		default:
			return nil, fmt.Errorf("checkpoint: unknown section id %d", id)
		}
		if r.err != nil {
			return nil, r.err
		}
		if r.off != len(payload) {
			return nil, fmt.Errorf("checkpoint: section %d has %d trailing payload bytes", id, len(payload)-r.off)
		}
	}
	if !sawMeta {
		return nil, fmt.Errorf("checkpoint: no meta section")
	}
	if shardsSeen != snap.Shards {
		return nil, fmt.Errorf("checkpoint: %d shard sections for %d shards", shardsSeen, snap.Shards)
	}
	if !sawWindows || !sawPreds {
		return nil, fmt.Errorf("checkpoint: missing windows or predictions section")
	}
	return snap, nil
}
