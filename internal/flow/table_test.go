package flow

import (
	"math"
	"net/netip"
	"sync"
	"testing"

	"github.com/amlight/intddos/internal/netsim"
	"github.com/amlight/intddos/internal/sflow"
	"github.com/amlight/intddos/internal/telemetry"
)

var (
	clientA = netip.MustParseAddr("172.16.1.1")
	server  = netip.MustParseAddr("10.10.1.100")
)

func tcpKey(sport uint16) Key {
	return Key{Src: clientA, Dst: server, SrcPort: sport, DstPort: 80, Proto: netsim.TCP}
}

// intObs builds an INT observation n·gap nanoseconds into a flow.
func intObs(k Key, at netsim.Time, ingress netsim.Time, length int, depth uint32) PacketInfo {
	return PacketInfo{
		Key: k, Length: length, At: at, HasTelemetry: true,
		IngressTS: netsim.Wrap32(ingress), EgressTS: netsim.Wrap32(ingress + 500),
		QueueDepth: depth, HopLatencyNs: 500,
	}
}

func TestTableCreatesAndUpdates(t *testing.T) {
	tbl := NewTable()
	k := tcpKey(1000)
	st, isNew := tbl.Observe(intObs(k, 100, 100, 500, 2))
	if !isNew || st == nil {
		t.Fatal("first observation should create")
	}
	st2, isNew2 := tbl.Observe(intObs(k, 200, 200, 700, 4))
	if isNew2 {
		t.Fatal("second observation created a new record")
	}
	if st2 != st {
		t.Fatal("records differ for same key")
	}
	if tbl.Len() != 1 || st.Updates != 2 || st.Key() != k || st.RegisteredAt != 100 {
		t.Errorf("len=%d updates=%d key=%s registered=%d", tbl.Len(), st.Updates, st.Key(), st.RegisteredAt)
	}
}

func TestStatePacketLevelReplacedFlowLevelAccumulated(t *testing.T) {
	tbl := NewTable()
	k := tcpKey(1001)
	tbl.Observe(intObs(k, 100, 1000, 500, 2))
	st, _ := tbl.Observe(intObs(k, 200, 3000, 700, 6))
	// Packet-level: last values replaced.
	if st.Feature(FPktSize) != 700 {
		t.Errorf("FPktSize = %v, want 700 (replaced)", st.Feature(FPktSize))
	}
	if st.Feature(FQueue) != 6 {
		t.Errorf("FQueue = %v, want 6", st.Feature(FQueue))
	}
	// Flow-level: accumulated.
	if st.Feature(FPktSizeCum) != 1200 {
		t.Errorf("FPktSizeCum = %v, want 1200", st.Feature(FPktSizeCum))
	}
	if st.Feature(FPktSizeAvg) != 600 {
		t.Errorf("FPktSizeAvg = %v, want 600", st.Feature(FPktSizeAvg))
	}
	if st.Feature(FCount) != 2 {
		t.Errorf("FCount = %v, want 2", st.Feature(FCount))
	}
}

func TestStateIATFromHardwareStamps(t *testing.T) {
	tbl := NewTable()
	k := tcpKey(1002)
	tbl.Observe(intObs(k, 0, 1000, 100, 0))
	tbl.Observe(intObs(k, 0, 4000, 100, 0))
	st, _ := tbl.Observe(intObs(k, 0, 9000, 100, 0))
	if st.IAT.Count() != 2 {
		t.Fatalf("IAT observations = %d, want 2", st.IAT.Count())
	}
	if st.Feature(FIAT) != 5000 {
		t.Errorf("FIAT = %v, want 5000", st.Feature(FIAT))
	}
	if st.Feature(FIATCum) != 8000 {
		t.Errorf("FIATCum (duration) = %v, want 8000", st.Feature(FIATCum))
	}
	if st.Feature(FIATAvg) != 4000 {
		t.Errorf("FIATAvg = %v, want 4000", st.Feature(FIATAvg))
	}
}

func TestStateIATWrapAware(t *testing.T) {
	tbl := NewTable()
	k := tcpKey(1003)
	// Consecutive ingress times straddling a 32-bit wrap.
	t0 := netsim.WrapPeriod - 100
	t1 := netsim.WrapPeriod + 400
	tbl.Observe(intObs(k, 0, t0, 100, 0))
	st, _ := tbl.Observe(intObs(k, 0, t1, 100, 0))
	if got := st.Feature(FIAT); got != 500 {
		t.Errorf("wrap-aware IAT = %v, want 500", got)
	}

	// Naive mode gets it catastrophically wrong.
	NaiveIAT = true
	defer func() { NaiveIAT = false }()
	tbl2 := NewTable()
	tbl2.Observe(intObs(k, 0, t0, 100, 0))
	st2, _ := tbl2.Observe(intObs(k, 0, t1, 100, 0))
	if got := st2.Feature(FIAT); got == 500 {
		t.Error("naive IAT accidentally correct across wrap — ablation broken")
	}
}

func TestStateSFlowFallbackIAT(t *testing.T) {
	tbl := NewTable()
	k := tcpKey(1004)
	mk := func(at netsim.Time) PacketInfo {
		return PacketInfo{Key: k, Length: 100, At: at} // no telemetry
	}
	tbl.Observe(mk(1000))
	tbl.Observe(mk(2500))
	st, _ := tbl.Observe(mk(6000))
	if st.IAT.Count() != 2 {
		t.Fatalf("IAT count = %d, want 2", st.IAT.Count())
	}
	if st.Feature(FIAT) != 3500 {
		t.Errorf("FIAT = %v, want 3500 (collector clock)", st.Feature(FIAT))
	}
	if st.Feature(FIATCum) != 5000 {
		t.Errorf("duration = %v, want 5000", st.Feature(FIATCum))
	}
	// No telemetry → queue features stay zero.
	if st.Feature(FQueue) != 0 || st.Feature(FQueueAvg) != 0 {
		t.Error("queue features nonzero without telemetry")
	}
}

func TestStateRates(t *testing.T) {
	tbl := NewTable()
	k := tcpKey(1005)
	tbl.Observe(intObs(k, 0, 0, 1000, 0))
	st, _ := tbl.Observe(intObs(k, 0, netsim.Second, 1000, 0))
	// 2 packets over 1 s → 2 pps; 2000 bytes over 1 s → 2000 B/s.
	if got := st.Feature(FPPS); math.Abs(got-2) > 1e-9 {
		t.Errorf("PPS = %v, want 2", got)
	}
	if got := st.Feature(FBPS); math.Abs(got-2000) > 1e-9 {
		t.Errorf("BPS = %v, want 2000", got)
	}
}

func TestStateSinglePacketFlowRatesZero(t *testing.T) {
	tbl := NewTable()
	st, _ := tbl.Observe(intObs(tcpKey(1006), 0, 0, 40, 0))
	if st.Feature(FPPS) != 0 || st.Feature(FBPS) != 0 {
		t.Error("single-packet flow should have zero rates")
	}
	if st.Feature(FIATStd) != 0 {
		t.Error("single-packet flow should have zero IAT std")
	}
}

func TestFeatureVectorOrder(t *testing.T) {
	tbl := NewTable()
	st, _ := tbl.Observe(intObs(tcpKey(1007), 0, 0, 333, 7))
	set := INTFeatures()
	vec := st.Features(nil, set)
	if len(vec) != 15 {
		t.Fatalf("INT vector length = %d, want 15", len(vec))
	}
	if vec[set.Index(FPktSize)] != 333 {
		t.Error("FPktSize misplaced in vector")
	}
	if vec[set.Index(FQueue)] != 7 {
		t.Error("FQueue misplaced in vector")
	}
	if vec[set.Index(FProto)] != float64(netsim.TCP) {
		t.Error("FProto misplaced in vector")
	}
}

// TestFeaturesAllocs: a nil dst costs one allocation sized for the
// vector, a dst with room costs none.
func TestFeaturesAllocs(t *testing.T) {
	tbl := NewTable()
	st, _ := tbl.Observe(intObs(tcpKey(1007), 0, 0, 333, 7))
	set := INTFeatures()
	var vec []float64
	if got := testing.AllocsPerRun(100, func() { vec = st.Features(nil, set) }); got != 1 {
		t.Errorf("Features(nil) allocates %.0f objects, want 1", got)
	}
	if got := testing.AllocsPerRun(100, func() { vec = st.Features(vec[:0], set) }); got != 0 {
		t.Errorf("Features into a sized dst allocates %.0f objects, want 0", got)
	}
	if len(vec) != len(set) || cap(vec) != len(set) {
		t.Errorf("vector len %d cap %d, want %d/%d", len(vec), cap(vec), len(set), len(set))
	}
}

func TestSFlowFeatureSetExcludesTelemetry(t *testing.T) {
	set := SFlowFeatures()
	if len(set) != 12 {
		t.Fatalf("sFlow set length = %d, want 12", len(set))
	}
	for _, f := range []FeatureID{FQueue, FQueueAvg, FQueueStd, FHopLat} {
		if set.Index(f) != -1 {
			t.Errorf("sFlow set contains telemetry feature %v", f)
		}
	}
}

func TestAvailabilityTable(t *testing.T) {
	rows := Availability()
	if len(rows) != 8 {
		t.Fatalf("Table II rows = %d, want 8", len(rows))
	}
	sflowMissing := 0
	for _, r := range rows {
		if !r.INT {
			t.Errorf("INT missing %s — INT provides every family", r.Feature)
		}
		if !r.SFlow {
			sflowMissing++
		}
	}
	if sflowMissing != 2 {
		t.Errorf("sFlow missing %d families, want 2 (queue occupancy, hop latency)", sflowMissing)
	}
}

func TestTableSweepEvictsIdleFlows(t *testing.T) {
	tbl := NewTable()
	tbl.IdleTimeout = 100
	tbl.Observe(intObs(tcpKey(1), 50, 0, 100, 0))
	tbl.Observe(intObs(tcpKey(2), 180, 0, 100, 0))
	n := tbl.Sweep(200)
	if n != 1 {
		t.Fatalf("evicted %d, want 1", n)
	}
	if tbl.Get(tcpKey(1)) != nil {
		t.Error("idle flow survived sweep")
	}
	if tbl.Get(tcpKey(2)) == nil {
		t.Error("active flow evicted")
	}
	if tbl.Len() != 1 {
		t.Errorf("Len after sweep = %d", tbl.Len())
	}
}

func TestTableSweepDisabledByDefault(t *testing.T) {
	tbl := NewTable()
	tbl.Observe(intObs(tcpKey(1), 0, 0, 100, 0))
	if n := tbl.Sweep(netsim.Time(1) << 60); n != 0 {
		t.Errorf("sweep with no timeout evicted %d", n)
	}
}

func TestTableRange(t *testing.T) {
	tbl := NewTable()
	for i := uint16(0); i < 10; i++ {
		tbl.Observe(intObs(tcpKey(i), 0, 0, 100, 0))
	}
	seen := 0
	tbl.Range(func(st *State) bool { seen++; return true })
	if seen != 10 {
		t.Errorf("Range visited %d, want 10", seen)
	}
	seen = 0
	tbl.Range(func(st *State) bool { seen++; return seen < 3 })
	if seen != 3 {
		t.Errorf("early-stop Range visited %d, want 3", seen)
	}
}

// TestTruthAccounting: ground truth is each row's, not the record's —
// a labelled flow's record is the unlabelled one's, bit for bit, so no
// label can leak into the features the models see, and a snapshot
// carries no truth.
func TestTruthAccounting(t *testing.T) {
	k := tcpKey(9)
	labelled, plain := NewTable(), NewTable()
	for i, at := range []netsim.Time{0, 1000} {
		pi := intObs(k, at, at, 100, 0)
		plain.Observe(pi)
		pi.Label, pi.AttackType = i == 0, "synflood"
		labelled.Observe(pi)
	}
	if *labelled.Get(k) != *plain.Get(k) {
		t.Errorf("labels changed the record: %+v vs %+v", *labelled.Get(k), *plain.Get(k))
	}
	if sn := labelled.Get(k).Snapshot(); sn.AttackObs != 0 || sn.LastTruth || sn.AttackType != "" {
		t.Errorf("snapshot carries truth: %+v", sn)
	}
}

func TestFromINTNormalization(t *testing.T) {
	r := &telemetry.Report{
		Src: clientA, Dst: server, SrcPort: 5, DstPort: 80, Proto: netsim.TCP,
		Flags: netsim.FlagSYN, Length: 123,
		Hops: []telemetry.HopMetadata{
			{QueueDepth: 3, IngressTS: 100, EgressTS: 400},
			{QueueDepth: 9, IngressTS: 600, EgressTS: 1100},
		},
		Truth: telemetry.Truth{Label: true, AttackType: "synscan"},
	}
	pi := FromINT(r, 7777)
	if !pi.HasTelemetry {
		t.Fatal("INT observation lost telemetry flag")
	}
	if pi.QueueDepth != 9 || pi.IngressTS != 600 {
		t.Errorf("sink-hop selection wrong: %+v", pi)
	}
	if pi.HopLatencyNs != 300+500 {
		t.Errorf("hop latency = %d, want 800", pi.HopLatencyNs)
	}
	if pi.At != 7777 || pi.Length != 123 || !pi.Label || pi.AttackType != "synscan" {
		t.Errorf("normalization lost fields: %+v", pi)
	}
}

func TestFromSFlowNormalization(t *testing.T) {
	s := &sflow.FlowSample{
		Src: clientA, Dst: server, SrcPort: 5, DstPort: 80, Proto: netsim.UDP,
		Length: 88, Truth: sflow.Truth{Label: true, AttackType: "udpscan"},
	}
	pi := FromSFlow(s, 1234)
	if pi.HasTelemetry {
		t.Error("sFlow observation claims telemetry")
	}
	if pi.Key.Proto != netsim.UDP || pi.Length != 88 || pi.At != 1234 {
		t.Errorf("normalization wrong: %+v", pi)
	}
	if !pi.Label || pi.AttackType != "udpscan" {
		t.Errorf("truth lost: %+v", pi)
	}
}

func TestFeatureNames(t *testing.T) {
	if FIATCum.String() != "Inter Arrival Time_cum" {
		t.Errorf("FIATCum name = %q", FIATCum.String())
	}
	if FeatureID(-1).String() != "unknown" || FeatureID(999).String() != "unknown" {
		t.Error("out-of-range feature names")
	}
	names := INTFeatures().Names()
	if len(names) != 15 || names[0] != "Protocol" {
		t.Errorf("names = %v", names)
	}
}

func TestSweepFiresOnEvict(t *testing.T) {
	tbl := NewTable()
	tbl.IdleTimeout = 100
	evicted := map[Key]int{}
	tbl.OnEvict = func(k Key) { evicted[k]++ }

	idle, live := tcpKey(2000), tcpKey(2001)
	tbl.Observe(intObs(idle, 100, 100, 500, 2))
	tbl.Observe(intObs(live, 900, 900, 500, 2))

	if n := tbl.Sweep(1000); n != 1 {
		t.Fatalf("swept %d, want 1", n)
	}
	if evicted[idle] != 1 || evicted[live] != 0 {
		t.Errorf("OnEvict fired %v, want exactly once for the idle flow", evicted)
	}
	if tbl.Get(idle) != nil || tbl.Get(live) == nil {
		t.Error("wrong record evicted")
	}
	// The hook observes the record already gone from the table.
	tbl.OnEvict = func(k Key) {
		if tbl.Get(k) != nil {
			t.Errorf("OnEvict saw %s still in the table", k)
		}
	}
	if n := tbl.Sweep(5000); n != 1 {
		t.Fatalf("second sweep removed %d, want 1", n)
	}
}

// TestStateSnapshotRoundTrip proves a restored record continues
// bit-identically: after the same follow-up observations, every
// feature of the restored record equals the original's — including
// the std/IAT terms that depend on the unexported Welford and
// wrap-tracking state.
func TestStateSnapshotRoundTrip(t *testing.T) {
	k := tcpKey(3000)
	orig := NewTable()
	orig.Observe(intObs(k, 100, 1000, 500, 2))
	orig.Observe(intObs(k, 200, 3500, 700, 6))

	sn := orig.Get(k).Snapshot()
	rest := NewTable()
	rest.Insert(RestoreState(sn))
	if rest.Len() != 1 {
		t.Fatalf("insert accounting: len=%d", rest.Len())
	}

	// Continue both copies with identical observations — including one
	// whose 32-bit ingress stamp wraps, exercising lastIngress.
	follow := []PacketInfo{
		intObs(k, 300, 7000, 900, 3),
		intObs(k, 400, netsim.Time(1)<<32+500, 400, 8),
	}
	for _, pi := range follow {
		orig.Observe(pi)
		rest.Observe(pi)
	}
	set := INTFeatures()
	a := orig.Get(k).Features(nil, set)
	b := rest.Get(k).Features(nil, set)
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Errorf("feature %s diverged after restore: %v vs %v", set[i], a[i], b[i])
		}
	}
	if sn2 := rest.Get(k).Snapshot(); len(follow) > 0 {
		_ = sn2 // restored record remains snapshot-able
	}
}

func TestShardedTableExportRestore(t *testing.T) {
	const shards = 4
	src := NewShardedTable(shards)
	var keys []Key
	for i := 0; i < 32; i++ {
		k := tcpKey(uint16(4000 + i))
		keys = append(keys, k)
		src.ObserveFunc(intObs(k, 100, 1000, 500, 2), nil)
		src.ObserveFunc(intObs(k, 200, 2500, 700, 4), nil)
	}

	dst := NewShardedTable(shards)
	for i := 0; i < shards; i++ {
		if err := dst.RestoreShard(i, src.ExportShardInto(i, nil, nil)); err != nil {
			t.Fatalf("restore shard %d: %v", i, err)
		}
	}
	if dst.Len() != src.Len() {
		t.Fatalf("restored %d flows, want %d", dst.Len(), src.Len())
	}
	set := INTFeatures()
	for _, k := range keys {
		want, _ := stateOf(src, k)
		got, ok := stateOf(dst, k)
		if !ok {
			t.Fatalf("flow %s missing after restore", k)
		}
		a, b := want.Features(nil, set), got.Features(nil, set)
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Errorf("%s feature %s diverged: %v vs %v", k, set[i], a[i], b[i])
			}
		}
	}

	// Wrong-shard and out-of-range restores fail loud.
	if one := src.ExportShardInto(1, nil, nil); len(one) > 0 && dst.RestoreShard(0, one) == nil {
		t.Error("cross-shard restore accepted")
	}
	if err := dst.RestoreShard(shards, nil); err == nil {
		t.Error("out-of-range restore accepted")
	}
	if src.ExportShardInto(-1, nil, nil) != nil || src.ExportShardInto(shards, nil, nil) != nil {
		t.Error("out-of-range export returned data")
	}
}

func TestShardedTableSetOnEvict(t *testing.T) {
	tbl := NewShardedTable(4)
	tbl.SetIdleTimeout(100)
	var mu sync.Mutex
	evicted := map[Key]int{}
	tbl.SetOnEvict(func(k Key) {
		mu.Lock()
		evicted[k]++
		mu.Unlock()
	})
	for i := 0; i < 16; i++ {
		tbl.ObserveFunc(intObs(tcpKey(uint16(5000+i)), 100, 1000, 500, 2), nil)
	}
	if n := tbl.Sweep(1000); n != 16 {
		t.Fatalf("swept %d, want 16", n)
	}
	if len(evicted) != 16 {
		t.Errorf("OnEvict fired for %d flows, want 16", len(evicted))
	}
	for k, n := range evicted {
		if n != 1 {
			t.Errorf("OnEvict fired %d times for %s", n, k)
		}
	}
}
