package flow

import (
	"github.com/amlight/intddos/internal/netsim"
)

// State is one flow record: packet-level fields replaced by the
// newest packet, flow-level aggregates accumulated in place. It holds
// no pointer, so the table's pages of them are never scanned by the
// collector.
type State struct {
	key slotKey

	// RegisteredAt is when the flow's record was created (collector
	// clock); the paper's prediction latency is measured from it.
	RegisteredAt netsim.Time
	// LastAt is the most recent observation time.
	LastAt netsim.Time
	// Updates counts observations folded into the record.
	Updates int

	// Size, IAT, Queue, and HopLat are the per-packet series feeding
	// the Table II feature variants. IAT observations exist from the
	// second packet on.
	Size   Stats
	IAT    Stats
	Queue  Stats
	HopLat Stats

	// lastIngress supports wrap-aware inter-arrival computation from
	// the 32-bit hardware stamps.
	lastIngress  netsim.Timestamp32
	haveIngress  bool
	hasTelemetry bool

	// Window is the flow's vote window, which the decision path smooths
	// (§IV-C4) and slides through Vote. It lives and dies with the record.
	Window Window
}

// Key returns the record's Flow ID.
func (st *State) Key() Key { return st.key.key() }

// StateSnapshot is the exported, serializable view of a flow record:
// every field — including the unexported wrap-tracking state — so a
// restored record produces bit-identical features for all subsequent
// observations. It is the unit the checkpoint subsystem persists. The
// vote window is left out: checkpoints carry windows in a section of
// their own. The ground-truth fields are the checkpoint format's; a
// record keeps no truth (each journaled row carries its own), so
// Snapshot leaves them zero and RestoreState ignores them.
type StateSnapshot struct {
	Key          Key
	RegisteredAt netsim.Time
	LastAt       netsim.Time
	Updates      int

	Size   StatsSnapshot
	IAT    StatsSnapshot
	Queue  StatsSnapshot
	HopLat StatsSnapshot

	LastIngress  netsim.Timestamp32
	HaveIngress  bool
	HasTelemetry bool

	AttackObs  int
	LastTruth  bool
	AttackType string
}

// Snapshot exports the record's full state.
func (st *State) Snapshot() StateSnapshot {
	return StateSnapshot{
		Key:          st.Key(),
		RegisteredAt: st.RegisteredAt,
		LastAt:       st.LastAt,
		Updates:      st.Updates,
		Size:         st.Size.Snapshot(),
		IAT:          st.IAT.Snapshot(),
		Queue:        st.Queue.Snapshot(),
		HopLat:       st.HopLat.Snapshot(),
		LastIngress:  st.lastIngress,
		HaveIngress:  st.haveIngress,
		HasTelemetry: st.hasTelemetry,
	}
}

// RestoreState rebuilds a flow record from a snapshot. A zoned address
// in its key panics (see packKey).
func RestoreState(sn StateSnapshot) *State {
	return &State{
		key:          packKey(sn.Key),
		RegisteredAt: sn.RegisteredAt,
		LastAt:       sn.LastAt,
		Updates:      sn.Updates,
		Size:         RestoreStats(sn.Size),
		IAT:          RestoreStats(sn.IAT),
		Queue:        RestoreStats(sn.Queue),
		HopLat:       RestoreStats(sn.HopLat),
		lastIngress:  sn.LastIngress,
		haveIngress:  sn.HaveIngress,
		hasTelemetry: sn.HasTelemetry,
	}
}

// NaiveIAT switches inter-arrival computation to the unsigned naive
// subtraction for the wraparound ablation benchmark; the default is
// wrap-aware. Package-level because it parameterizes an experiment,
// not a deployment.
var NaiveIAT = false

// Update folds one observation into the record. Ground truth is not
// the record's: it travels with each journaled row.
func (st *State) Update(pi PacketInfo) {
	prevAt := st.LastAt
	st.Updates++
	st.LastAt = pi.At
	st.Size.Add(float64(pi.Length))
	if pi.HasTelemetry {
		st.hasTelemetry = true
		st.Queue.Add(float64(pi.QueueDepth))
		st.HopLat.Add(float64(pi.HopLatencyNs))
		if st.haveIngress {
			var d netsim.Time
			if NaiveIAT {
				d = netsim.NaiveDiff(st.lastIngress, pi.IngressTS)
			} else {
				d = netsim.WrapDiff(st.lastIngress, pi.IngressTS)
			}
			st.IAT.Add(float64(d))
		}
		st.lastIngress = pi.IngressTS
		st.haveIngress = true
	} else if st.Updates > 1 {
		// sFlow has no hardware stamps; inter-arrival falls back to
		// the collector clock between sampled packets.
		st.IAT.Add(float64(pi.At - prevAt))
	}
}

// Duration returns the cumulative inter-arrival time — the flow
// duration as the paper defines it.
func (st *State) Duration() netsim.Time { return netsim.Time(st.IAT.Sum()) }

// Feature returns the current value of a single feature.
func (st *State) Feature(f FeatureID) float64 {
	switch f {
	case FProto:
		return float64(st.key.proto)
	case FPktSize:
		return st.Size.Last()
	case FPktSizeCum:
		return st.Size.Sum()
	case FPktSizeAvg:
		return st.Size.Mean()
	case FPktSizeStd:
		return st.Size.Std()
	case FIAT:
		return st.IAT.Last()
	case FIATCum:
		return st.IAT.Sum()
	case FIATAvg:
		return st.IAT.Mean()
	case FIATStd:
		return st.IAT.Std()
	case FQueue:
		return st.Queue.Last()
	case FQueueAvg:
		return st.Queue.Mean()
	case FQueueStd:
		return st.Queue.Std()
	case FCount:
		return float64(st.Updates)
	case FPPS:
		if d := st.IAT.Sum(); d > 0 {
			return float64(st.Updates) / (d / float64(netsim.Second))
		}
		return 0
	case FBPS:
		if d := st.IAT.Sum(); d > 0 {
			return st.Size.Sum() / (d / float64(netsim.Second))
		}
		return 0
	case FHopLat:
		return st.HopLat.Last()
	case FHopLatAvg:
		return st.HopLat.Mean()
	case FHopLatStd:
		return st.HopLat.Std()
	case FSrcPort:
		return float64(st.key.srcPort)
	case FDstPort:
		return float64(st.key.dstPort)
	default:
		return 0
	}
}

// Features appends the feature vector for set to dst and returns it.
// A nil dst is sized for the vector up front: one allocation.
func (st *State) Features(dst []float64, set FeatureSet) []float64 {
	if dst == nil {
		dst = make([]float64, 0, len(set))
	}
	for _, f := range set {
		dst = append(dst, st.Feature(f))
	}
	return dst
}

// pageLen is how many slots one page holds (about 62 KiB of State).
// Pages are allocated on demand at this one size and never move, so a
// slot's address is stable for the table's life.
const pageLen = 256

// minIndexLen is the index's size at its first insert; it doubles past
// three quarters full.
const minIndexLen = 16

// Table is the Data Processor's flow store: one State per Flow ID,
// with idle eviction to bound memory against spoofed-source floods
// that mint millions of one-packet flows.
//
// Records live in slots — fixed-size, pointer-free States in pages
// allocated on demand — found through an open-addressed index of slot
// numbers probed linearly by Key.Hash. A slot never moves: the *State
// Observe returns stays valid until its flow is evicted or deleted,
// after which the slot goes on a free list and the next new flow
// reuses it.
type Table struct {
	// index holds, per occupied position, the key's tag above the slot
	// number plus one; zero is empty.
	index []uint64
	pages []*[pageLen]State
	used  int      // slots ever handed out; every one below it is live or free
	free  []uint32 // freed slots, reused last-in first-out
	n     int

	// collide shifts the probe hash right; tests raise it to force
	// probe collisions. Zero in every table NewTable builds.
	collide uint8

	// IdleTimeout evicts flows not updated for this long when Sweep
	// runs. Zero disables eviction.
	IdleTimeout netsim.Time

	// OnEvict fires for every record Sweep removes, after the record
	// has left the table. It is the hook downstream state keyed by the
	// same flow — the simulated mechanism's database rows — uses to die
	// with the table entry, so idle eviction bounds memory everywhere at
	// once instead of only here. It must not call back into the table.
	OnEvict func(Key)
}

// NewTable constructs an empty flow table. It allocates nothing until
// its first record.
func NewTable() *Table { return &Table{} }

// Len returns the number of live flow records.
func (t *Table) Len() int { return t.n }

func (t *Table) slot(s uint32) *State { return &t.pages[s/pageLen][s%pageLen] }

// tag is the part of a key's hash the index keeps and probes with: its
// high 32 bits. A stripe holds the keys whose hash is one value modulo
// the stripe count, so the low bits are alike within it.
func (t *Table) tag(h uint64) uint32 { return uint32(h >> 32 >> t.collide) }

// find probes for pk, whose hash is h. It returns the position holding
// pk's entry, or — with found false — the empty position ending the
// probe, where an insert of pk goes. The index must not be full.
func (t *Table) find(pk *slotKey, h uint64) (pos int, found bool) {
	tag := t.tag(h)
	mask := len(t.index) - 1
	for i := int(tag) & mask; ; i = (i + 1) & mask {
		e := t.index[i]
		if e == 0 {
			return i, false
		}
		if uint32(e>>32) == tag && t.slot(uint32(e)-1).key == *pk {
			return i, true
		}
	}
}

// reserve grows the index so one more entry keeps it at most three
// quarters full.
func (t *Table) reserve() {
	if (t.n+1)*4 <= len(t.index)*3 {
		return
	}
	old := t.index
	t.index = make([]uint64, max(minIndexLen, 2*len(old)))
	mask := len(t.index) - 1
	for _, e := range old {
		if e == 0 {
			continue
		}
		i := int(uint32(e>>32)) & mask
		for t.index[i] != 0 {
			i = (i + 1) & mask
		}
		t.index[i] = e
	}
}

// claim fills the empty position pos with a fresh slot for pk (hash h)
// and returns the slot, zeroed but for its key.
func (t *Table) claim(pos int, pk *slotKey, h uint64) *State {
	var s uint32
	if n := len(t.free); n > 0 {
		s, t.free = t.free[n-1], t.free[:n-1]
	} else {
		if t.used == len(t.pages)*pageLen {
			t.pages = append(t.pages, new([pageLen]State))
		}
		s = uint32(t.used)
		t.used++
	}
	t.index[pos] = uint64(t.tag(h))<<32 | uint64(s+1)
	t.n++
	st := t.slot(s)
	*st = State{key: *pk}
	return st
}

// removeAt empties position pos and frees its slot. Entries after it in
// the probe run shift back into the hole (no tombstones), so a later
// position may now hold an entry that was past pos.
func (t *Table) removeAt(pos int) {
	t.free = append(t.free, uint32(t.index[pos])-1)
	t.n--
	mask := len(t.index) - 1
	hole := pos
	for j := (hole + 1) & mask; t.index[j] != 0; j = (j + 1) & mask {
		// An entry may fill the hole unless its home lies cyclically in
		// (hole, j]: then the hole is before where its probe starts.
		home := int(uint32(t.index[j]>>32)) & mask
		if (j-home)&mask >= (j-hole)&mask {
			t.index[hole] = t.index[j]
			hole = j
		}
	}
	t.index[hole] = 0
}

// lookup returns the record for pk (hash h), or nil.
func (t *Table) lookup(pk *slotKey, h uint64) *State {
	if t.n == 0 {
		return nil
	}
	pos, ok := t.find(pk, h)
	if !ok {
		return nil
	}
	return t.slot(uint32(t.index[pos]) - 1)
}

// Get returns the record for k, or nil.
func (t *Table) Get(k Key) *State {
	pk := packKey(k)
	return t.lookup(&pk, pk.hash())
}

// Observe folds one observation into its flow record, creating it if
// needed. It returns the record and whether it was just created.
func (t *Table) Observe(pi PacketInfo) (*State, bool) {
	pk := packKey(pi.Key)
	return t.observe(pi, &pk, pk.hash())
}

// observe is Observe for a key already packed and hashed.
func (t *Table) observe(pi PacketInfo, pk *slotKey, h uint64) (*State, bool) {
	t.reserve()
	pos, found := t.find(pk, h)
	if found {
		st := t.slot(uint32(t.index[pos]) - 1)
		st.Update(pi)
		return st, false
	}
	st := t.claim(pos, pk, h)
	st.RegisteredAt = pi.At
	st.Update(pi)
	return st, true
}

// Vote slides k's vote window over raw, keeping the last n votes (see
// Window.Slide), and returns the smoothed label and whether k has a
// record. A key with no record — a decision that outlived its flow — is
// voted over a fresh window that is not kept.
func (t *Table) Vote(k Key, raw, n int) (label int, kept bool) {
	pk := packKey(k)
	return t.vote(&pk, pk.hash(), raw, n)
}

func (t *Table) vote(pk *slotKey, h uint64, raw, n int) (int, bool) {
	if st := t.lookup(pk, h); st != nil {
		return st.Window.Slide(raw, n), true
	}
	var fresh Window
	return fresh.Slide(raw, n), false
}

// Sweep evicts records idle at now for longer than IdleTimeout and
// returns how many were removed. OnEvict, when set, fires once per
// removed record.
func (t *Table) Sweep(now netsim.Time) int { return t.sweep(now, t.OnEvict) }

// sweep is Sweep reporting each removal to evicted (nil-safe).
func (t *Table) sweep(now netsim.Time, evicted func(Key)) int {
	if t.IdleTimeout <= 0 {
		return 0
	}
	n := 0
	for i := 0; i < len(t.index); {
		e := t.index[i]
		if e == 0 {
			i++
			continue
		}
		st := t.slot(uint32(e) - 1)
		if now-st.LastAt <= t.IdleTimeout {
			i++
			continue
		}
		k := st.key
		t.removeAt(i)
		n++
		if evicted != nil {
			evicted(k.key())
		}
		// Position i now holds what shifted back into it, if anything:
		// look at it again. Entries only shift toward i, so none is
		// skipped; one wrapped round from the front is merely seen twice.
	}
	return n
}

// Insert adds a restored record to the table: its state is copied into
// a slot. An existing record for the same key is replaced, window
// included.
func (t *Table) Insert(st *State) { t.insert(st, false) }

// insert is Insert, keeping an existing record's window when keepWindow
// is set.
func (t *Table) insert(st *State, keepWindow bool) {
	h := st.key.hash()
	t.reserve()
	pos, found := t.find(&st.key, h)
	var dst *State
	if found {
		dst = t.slot(uint32(t.index[pos]) - 1)
	} else {
		dst = t.claim(pos, &st.key, h)
	}
	w := dst.Window
	*dst = *st
	if keepWindow {
		dst.Window = w
	}
}

// Delete removes the record for k without firing OnEvict — the
// restore path's counterpart to Sweep, used when replaying a
// checkpoint delta's removal list. Reports whether a record existed.
func (t *Table) Delete(k Key) bool {
	if t.n == 0 {
		return false
	}
	pk := packKey(k)
	pos, ok := t.find(&pk, pk.hash())
	if ok {
		t.removeAt(pos)
	}
	return ok
}

// Range calls fn for every live record; returning false stops early.
// fn must not add or remove records.
func (t *Table) Range(fn func(*State) bool) {
	for _, e := range t.index {
		if e != 0 && !fn(t.slot(uint32(e)-1)) {
			return
		}
	}
}
