package flow

import (
	"github.com/amlight/intddos/internal/netsim"
)

// State is one flow record: packet-level fields replaced by the
// newest packet, flow-level aggregates accumulated in place.
type State struct {
	Key Key

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

	// AttackObs counts observations with ground-truth attack labels;
	// the flow's majority label is used in evaluation.
	AttackObs int
	// LastTruth is the most recent observation's ground truth.
	LastTruth bool
	// AttackType is the most recent non-benign workload name seen.
	AttackType string

	// Window is the flow's vote window: its most recent raw predictions,
	// oldest first, which the decision path smooths (§IV-C4) and slides
	// through Vote. It lives and dies with the record.
	Window []int
}

// StateSnapshot is the exported, serializable view of a flow record:
// every field — including the unexported wrap-tracking state — so a
// restored record produces bit-identical features for all subsequent
// observations. It is the unit the checkpoint subsystem persists. The
// vote window is the one field left out: checkpoints carry windows in
// a section of their own.
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
		Key:          st.Key,
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
		AttackObs:    st.AttackObs,
		LastTruth:    st.LastTruth,
		AttackType:   st.AttackType,
	}
}

// RestoreState rebuilds a flow record from a snapshot.
func RestoreState(sn StateSnapshot) *State {
	return &State{
		Key:          sn.Key,
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
		AttackObs:    sn.AttackObs,
		LastTruth:    sn.LastTruth,
		AttackType:   sn.AttackType,
	}
}

// NaiveIAT switches inter-arrival computation to the unsigned naive
// subtraction for the wraparound ablation benchmark; the default is
// wrap-aware. Package-level because it parameterizes an experiment,
// not a deployment.
var NaiveIAT = false

// Update folds one observation into the record.
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
	if pi.Label {
		st.AttackObs++
		st.AttackType = pi.AttackType
	}
	st.LastTruth = pi.Label
}

// Duration returns the cumulative inter-arrival time — the flow
// duration as the paper defines it.
func (st *State) Duration() netsim.Time { return netsim.Time(st.IAT.Sum()) }

// Feature returns the current value of a single feature.
func (st *State) Feature(f FeatureID) float64 {
	switch f {
	case FProto:
		return float64(st.Key.Proto)
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
		return float64(st.Key.SrcPort)
	case FDstPort:
		return float64(st.Key.DstPort)
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

// Table is the Data Processor's flow store: one State per Flow ID,
// with idle eviction to bound memory against spoofed-source floods
// that mint millions of one-packet flows.
type Table struct {
	flows map[Key]*State

	// IdleTimeout evicts flows not updated for this long when Sweep
	// runs. Zero disables eviction.
	IdleTimeout netsim.Time

	// OnNew fires when a record is created; OnUpdate fires on every
	// subsequent update (the CentralServer's change feed — §III-3:
	// the server reacts to updates of existing records, not to brand
	// new entries).
	OnNew    func(*State)
	OnUpdate func(*State)
	// OnEvict fires for every record Sweep removes, after the record
	// has left the table. It is the hook downstream state keyed by the
	// same flow — the simulated mechanism's database rows — uses to die
	// with the table entry, so idle eviction bounds memory everywhere at
	// once instead of only here.
	OnEvict func(Key)

	// Stats
	Created int
	Evicted int
}

// NewTable constructs an empty flow table.
func NewTable() *Table {
	return &Table{flows: make(map[Key]*State)}
}

// Len returns the number of live flow records.
func (t *Table) Len() int { return len(t.flows) }

// Get returns the record for k, or nil.
func (t *Table) Get(k Key) *State { return t.flows[k] }

// Observe folds one observation into its flow record, creating it if
// needed. It returns the record and whether it was just created.
func (t *Table) Observe(pi PacketInfo) (*State, bool) {
	st, ok := t.flows[pi.Key]
	if !ok {
		st = &State{Key: pi.Key, RegisteredAt: pi.At}
		t.flows[pi.Key] = st
		t.Created++
		st.Update(pi)
		if t.OnNew != nil {
			t.OnNew(st)
		}
		return st, true
	}
	st.Update(pi)
	if t.OnUpdate != nil {
		t.OnUpdate(st)
	}
	return st, false
}

// Vote slides k's vote window through slide and keeps the result on
// the record, reporting whether one exists. A key with no record — a
// decision that outlived its flow — is voted over a fresh window that
// is not kept.
func (t *Table) Vote(k Key, slide func(window []int) []int) bool {
	st := t.flows[k]
	if st == nil {
		slide(nil)
		return false
	}
	st.Window = slide(st.Window)
	return true
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
	for k, st := range t.flows {
		if now-st.LastAt > t.IdleTimeout {
			delete(t.flows, k)
			n++
			if evicted != nil {
				evicted(k)
			}
		}
	}
	t.Evicted += n
	return n
}

// Insert adds a restored record to the table without firing OnNew —
// the restore path's counterpart to Observe. An existing record for
// the same key is replaced.
func (t *Table) Insert(st *State) {
	if _, ok := t.flows[st.Key]; !ok {
		t.Created++
	}
	t.flows[st.Key] = st
}

// Delete removes the record for k without firing OnEvict — the
// restore path's counterpart to Sweep, used when replaying a
// checkpoint delta's removal list. Reports whether a record existed.
func (t *Table) Delete(k Key) bool {
	if _, ok := t.flows[k]; !ok {
		return false
	}
	delete(t.flows, k)
	return true
}

// Range calls fn for every live record; returning false stops early.
func (t *Table) Range(fn func(*State) bool) {
	for _, st := range t.flows {
		if !fn(st) {
			return
		}
	}
}
