package core

import (
	"net/netip"
	"testing"

	"github.com/amlight/intddos/internal/flow"
	"github.com/amlight/intddos/internal/ml"
	"github.com/amlight/intddos/internal/netsim"
	"github.com/amlight/intddos/internal/telemetry"
)

// stubModel labels by thresholding the (scaled) packet-size feature:
// small packets are attacks. It also lets tests force constant
// output.
type stubModel struct {
	name   string
	always *int // when non-nil, constant output
	index  int  // feature index to threshold
	thresh float64
	invert bool
}

func (s stubModel) Name() string                 { return s.name }
func (s stubModel) Fit([][]float64, []int) error { return nil }
func (s stubModel) Predict(x []float64) int {
	if s.always != nil {
		return *s.always
	}
	v := x[s.index] < s.thresh
	if s.invert {
		v = !v
	}
	if v {
		return 1
	}
	return 0
}

// identityScaler leaves features untouched.
func identityScaler(n int) *ml.StandardScaler {
	sc := &ml.StandardScaler{Mean: make([]float64, n), Std: make([]float64, n)}
	for i := range sc.Std {
		sc.Std[i] = 1
	}
	return sc
}

func testConfig(models ...ml.Classifier) Config {
	return Config{
		Models:       models,
		Scaler:       identityScaler(len(intFeatures)),
		PollInterval: netsim.Millisecond,
		ServiceTime:  500 * netsim.Microsecond,
	}
}

func attackDetector() stubModel {
	// FPktSize is index 1 of INTFeatures; attacks in these tests are
	// 40-byte packets, benign 1000-byte.
	return stubModel{name: "stub", index: 1, thresh: 100}
}

func simObs(sport uint16, at netsim.Time, length int, label bool, typ string) flow.PacketInfo {
	return flow.PacketInfo{
		Key: flow.Key{
			Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("10.0.0.2"),
			SrcPort: sport, DstPort: 80, Proto: netsim.TCP,
		},
		Length: length, At: at, HasTelemetry: true,
		IngressTS: netsim.Wrap32(at), EgressTS: netsim.Wrap32(at + 500),
		Label: label, AttackType: typ,
	}
}

func TestMechanismValidatesConfig(t *testing.T) {
	eng := netsim.NewEngine()
	if _, err := New(eng, Config{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := New(eng, Config{Models: []ml.Classifier{attackDetector()}}); err == nil {
		t.Error("missing scaler accepted")
	}
	m, err := New(eng, testConfig(attackDetector()))
	if err != nil {
		t.Fatal(err)
	}
	cfg := m.Config()
	if cfg.VoteWindow != 3 || cfg.ModelQuorum != 1 || cfg.PollInterval != netsim.Millisecond || cfg.PredictBatch != 1 {
		t.Errorf("defaults = %+v", cfg)
	}
}

// TestMechanismQuorumClamped pins the clamp the simulated mechanism
// shares with NewLive: a quorum the ensemble can never reach degrades
// to a majority of its members instead of silently never flagging.
func TestMechanismQuorumClamped(t *testing.T) {
	eng := netsim.NewEngine()
	one := 1
	cfg := testConfig(stubModel{name: "always", always: &one})
	cfg.ModelQuorum = 3
	m, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Config().ModelQuorum; got != 1 {
		t.Errorf("effective quorum = %d over a 1-model ensemble, want 1", got)
	}
	m.Start()
	eng.Schedule(0, func() { m.Observe(simObs(7, eng.Now(), 40, true, "synflood")) })
	eng.RunUntil(50 * netsim.Millisecond)
	if len(m.Decisions) != 1 || m.Decisions[0].Label != 1 {
		t.Fatalf("decisions = %+v, want one attack decision", m.Decisions)
	}
}

func TestMechanismEndToEndDecision(t *testing.T) {
	eng := netsim.NewEngine()
	m, err := New(eng, testConfig(attackDetector()))
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	// Three attack packets in one flow.
	for i := 0; i < 3; i++ {
		at := netsim.Time(i) * 100 * netsim.Microsecond
		eng.Schedule(at, func() { m.Observe(simObs(7, eng.Now(), 40, true, "synflood")) })
	}
	eng.RunUntil(50 * netsim.Millisecond)
	if m.Snapshots != 3 {
		t.Fatalf("snapshots = %d, want 3", m.Snapshots)
	}
	if len(m.Decisions) != 3 {
		t.Fatalf("decisions = %d, want 3", len(m.Decisions))
	}
	for i, d := range m.Decisions {
		if d.Label != 1 {
			t.Errorf("decision %d label = %d, want attack", i, d.Label)
		}
		if d.Seq != i {
			t.Errorf("decision %d seq = %d", i, d.Seq)
		}
		if d.Latency <= 0 {
			t.Errorf("decision %d latency = %v", i, d.Latency)
		}
		if !d.Correct() {
			t.Errorf("decision %d marked incorrect", i)
		}
	}
}

func TestMechanismEnsembleQuorum(t *testing.T) {
	one, zero := 1, 0
	attack := stubModel{name: "a", always: &one}
	benign := stubModel{name: "b", always: &zero}

	// 1 of 3 votes attack, quorum 2 → benign.
	eng := netsim.NewEngine()
	cfg := testConfig(attack, benign, benign)
	cfg.ModelQuorum = 2
	m, _ := New(eng, cfg)
	m.Start()
	eng.Schedule(0, func() { m.Observe(simObs(1, 0, 40, true, "synflood")) })
	eng.RunUntil(20 * netsim.Millisecond)
	if len(m.Decisions) != 1 || m.Decisions[0].Label != 0 {
		t.Fatalf("1-of-3 quorum-2 decisions = %+v", m.Decisions)
	}

	// 2 of 3 vote attack → attack.
	eng2 := netsim.NewEngine()
	cfg2 := testConfig(attack, attack, benign)
	cfg2.ModelQuorum = 2
	m2, _ := New(eng2, cfg2)
	m2.Start()
	eng2.Schedule(0, func() { m2.Observe(simObs(1, 0, 40, true, "synflood")) })
	eng2.RunUntil(20 * netsim.Millisecond)
	if len(m2.Decisions) != 1 || m2.Decisions[0].Label != 1 {
		t.Fatalf("2-of-3 quorum-2 decisions = %+v", m2.Decisions)
	}
	if len(m2.Decisions[0].Votes) != 3 {
		t.Errorf("votes = %v", m2.Decisions[0].Votes)
	}
}

func TestMechanismWindowSmoothing(t *testing.T) {
	// Model flips on packet size; feed A A B pattern per flow so raw
	// votes are [1 1 0]: the window majority keeps the flow attack.
	eng := netsim.NewEngine()
	m, _ := New(eng, testConfig(attackDetector()))
	m.Start()
	sizes := []int{40, 40, 1000}
	for i, size := range sizes {
		at := netsim.Time(i) * 10 * netsim.Millisecond
		size := size
		eng.Schedule(at, func() { m.Observe(simObs(2, eng.Now(), size, true, "synflood")) })
	}
	eng.RunUntil(netsim.Second)
	if len(m.Decisions) != 3 {
		t.Fatalf("decisions = %d", len(m.Decisions))
	}
	last := m.Decisions[2]
	if last.Label != 1 {
		t.Errorf("window [1,1,0] should stay attack, got %d", last.Label)
	}
}

func TestMechanismWindowTieResolvesBenign(t *testing.T) {
	eng := netsim.NewEngine()
	m, _ := New(eng, testConfig(attackDetector()))
	m.Start()
	// Two packets: one attack-looking, one benign-looking → [1,0].
	eng.Schedule(0, func() { m.Observe(simObs(3, 0, 40, false, "benign")) })
	eng.Schedule(10*netsim.Millisecond, func() { m.Observe(simObs(3, eng.Now(), 1000, false, "benign")) })
	eng.RunUntil(netsim.Second)
	if len(m.Decisions) != 2 {
		t.Fatalf("decisions = %d", len(m.Decisions))
	}
	if m.Decisions[1].Label != 0 {
		t.Errorf("tie [1,0] should resolve benign, got %d", m.Decisions[1].Label)
	}
}

func TestMechanismBacklogLatencyGrows(t *testing.T) {
	// Arrivals far faster than the service rate: later decisions must
	// show queueing delay, the Table VI benign-latency effect.
	eng := netsim.NewEngine()
	cfg := testConfig(attackDetector())
	cfg.ServiceTime = 5 * netsim.Millisecond
	cfg.PollInterval = netsim.Millisecond
	m, _ := New(eng, cfg)
	m.Start()
	for i := 0; i < 100; i++ {
		sport := uint16(100 + i)
		at := netsim.Time(i) * 100 * netsim.Microsecond
		eng.Schedule(at, func() { m.Observe(simObs(sport, eng.Now(), 1000, false, "benign")) })
	}
	eng.RunUntil(5 * netsim.Second)
	if len(m.Decisions) != 100 {
		t.Fatalf("decisions = %d", len(m.Decisions))
	}
	first, last := m.Decisions[0].Latency, m.Decisions[99].Latency
	if last < first*10 {
		t.Errorf("backlog latency did not grow: first %v, last %v", first, last)
	}
	if m.MaxQueue < 50 {
		t.Errorf("max queue = %d, expected a real backlog", m.MaxQueue)
	}
}

func TestMechanismQueueCapDrops(t *testing.T) {
	eng := netsim.NewEngine()
	cfg := testConfig(attackDetector())
	cfg.ServiceTime = 50 * netsim.Millisecond
	cfg.QueueCap = 5
	m, _ := New(eng, cfg)
	m.Start()
	for i := 0; i < 50; i++ {
		sport := uint16(i)
		eng.Schedule(netsim.Time(i)*10*netsim.Microsecond, func() {
			m.Observe(simObs(sport, eng.Now(), 1000, false, "benign"))
		})
	}
	eng.RunUntil(10 * netsim.Second)
	if m.DroppedPolls == 0 {
		t.Error("no drops despite tiny queue cap")
	}
	if len(m.Decisions)+m.DroppedPolls != 50 {
		t.Errorf("decisions %d + drops %d != 50", len(m.Decisions), m.DroppedPolls)
	}
}

func TestMechanismHandleReport(t *testing.T) {
	eng := netsim.NewEngine()
	m, _ := New(eng, testConfig(attackDetector()))
	m.Start()
	rep := &telemetry.Report{
		Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("10.0.0.2"),
		SrcPort: 11, DstPort: 80, Proto: netsim.TCP, Length: 40,
		Hops:  []telemetry.HopMetadata{{QueueDepth: 3, IngressTS: 100, EgressTS: 600}},
		Truth: telemetry.Truth{Label: true, AttackType: "synflood"},
	}
	eng.Schedule(0, func() { m.HandleReport(rep, eng.Now()) })
	eng.RunUntil(100 * netsim.Millisecond)
	if m.Reports != 1 || m.Snapshots != 1 || len(m.Decisions) != 1 {
		t.Errorf("reports=%d snapshots=%d decisions=%d", m.Reports, m.Snapshots, len(m.Decisions))
	}
	if m.Decisions[0].Label != 1 {
		t.Errorf("label = %d", m.Decisions[0].Label)
	}
}

func TestSummarizeByType(t *testing.T) {
	ds := []Decision{
		{AttackType: "synflood", Label: 1, Truth: true, Latency: 10},
		{AttackType: "synflood", Label: 0, Truth: true, Latency: 30},
		{AttackType: "benign", Label: 0, Truth: false, Latency: 100},
		{AttackType: "benign", Label: 0, Truth: false, Latency: 300},
	}
	rows := SummarizeByType(ds)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Sorted: benign first.
	if rows[0].Type != "benign" || rows[1].Type != "synflood" {
		t.Fatalf("order = %v, %v", rows[0].Type, rows[1].Type)
	}
	b, f := rows[0], rows[1]
	if b.Misclassified != 0 || b.Accuracy != 1 || b.AvgLatency != 200 || b.MaxLatency != 300 {
		t.Errorf("benign row = %+v", b)
	}
	if f.Misclassified != 1 || f.Accuracy != 0.5 || f.AvgLatency != 20 {
		t.Errorf("flood row = %+v", f)
	}
}
