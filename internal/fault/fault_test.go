package fault

import (
	"errors"
	"net/netip"
	"testing"
	"time"

	"github.com/amlight/intddos/internal/flow"
	"github.com/amlight/intddos/internal/netsim"
	"github.com/amlight/intddos/internal/store"
	"github.com/amlight/intddos/internal/telemetry"
)

func TestParseSpecRoundTrip(t *testing.T) {
	in := "drop=0.01,corrupt=0.02,delay=2ms@0.03,store.err=0.04," +
		"store.stall=5ms@0.05,panic=0.06,model.fail=GNB@0.5,model.fail=*@0.1,latency=1ms@0.07"
	spec, err := ParseSpec(in)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Drop != 0.01 || spec.Corrupt != 0.02 || spec.DelayP != 0.03 ||
		spec.Delay != 2*time.Millisecond || spec.StoreErr != 0.04 ||
		spec.StoreStall != 5*time.Millisecond || spec.StoreStallP != 0.05 ||
		spec.WorkerPanic != 0.06 || spec.PredictLatency != time.Millisecond ||
		spec.PredictLatencyP != 0.07 {
		t.Errorf("parsed spec = %+v", spec)
	}
	if spec.ModelFail["GNB"] != 0.5 || spec.ModelFail["*"] != 0.1 {
		t.Errorf("model.fail = %v", spec.ModelFail)
	}
	again, err := ParseSpec(spec.String())
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if again.String() != spec.String() {
		t.Errorf("round trip: %q != %q", again.String(), spec.String())
	}
}

func TestParseSpecSeparatorsAndEmpty(t *testing.T) {
	spec, err := ParseSpec("drop=0.5; corrupt=0.25\npanic=1")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Drop != 0.5 || spec.Corrupt != 0.25 || spec.WorkerPanic != 1 {
		t.Errorf("spec = %+v", spec)
	}
	empty, err := ParseSpec("")
	if err != nil || !empty.Zero() {
		t.Errorf("empty spec = %+v, err %v", empty, err)
	}
	if in, err := Parse("", 1); err != nil || in != nil {
		t.Errorf("Parse(\"\") = %v, %v; want nil injector", in, err)
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, bad := range []string{
		"drop",            // no value
		"drop=2",          // probability out of range
		"drop=x",          // not a number
		"delay=0.5",       // missing DUR@P
		"delay=-1ms@0.5",  // negative duration
		"model.fail=0.5",  // missing NAME@
		"warp.core=0.5",   // unknown clause
		"store.stall=5ms", // missing @P
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q): want error", bad)
		}
	}
}

func TestDeterministicPerSite(t *testing.T) {
	spec := Spec{Drop: 0.3, StoreErr: 0.2}
	a, b := New(spec, 42), New(spec, 42)
	for i := 0; i < 500; i++ {
		if a.DropReport() != b.DropReport() {
			t.Fatalf("drop decision %d diverged under the same seed", i)
		}
	}
	// Sites draw from independent streams: consuming one site's RNG
	// must not shift another's decisions.
	for i := 0; i < 100; i++ {
		a.DropReport() // advance only a's drop stream
	}
	for i := 0; i < 500; i++ {
		if (a.StoreErr() == nil) != (b.StoreErr() == nil) {
			t.Fatalf("store decision %d diverged after unrelated draws", i)
		}
	}
	c := New(spec, 43)
	same := true
	for i := 0; i < 500; i++ {
		if a.DropReport() != c.DropReport() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced an identical 500-draw schedule")
	}
}

func TestNilInjectorInjectsNothing(t *testing.T) {
	var in *Injector
	r := &telemetry.Report{Length: 7}
	if in.DropReport() || in.CorruptReport(r) || in.WorkerPanicNow() {
		t.Error("nil injector fired")
	}
	if in.ReportDelay() != 0 || in.StoreStall() != 0 || in.PredictDelay() != 0 {
		t.Error("nil injector delayed")
	}
	if in.StoreErr() != nil || in.ModelFail("GNB") {
		t.Error("nil injector errored")
	}
	in.Taint("k")
	if in.IsTainted("k") || in.TaintCount() != 0 {
		t.Error("nil injector tainted")
	}
	if in.Counts() != nil || in.SiteCount(SiteDrop) != 0 {
		t.Error("nil injector counted")
	}
	if in.Summary() != "no faults fired" {
		t.Errorf("summary = %q", in.Summary())
	}
}

func TestCorruptReportScramblesDeterministically(t *testing.T) {
	mk := func() *telemetry.Report {
		return &telemetry.Report{
			Length: 1000,
			Hops:   []telemetry.HopMetadata{{QueueDepth: 9}},
		}
	}
	a, b := New(Spec{Corrupt: 1}, 7), New(Spec{Corrupt: 1}, 7)
	ra, rb := mk(), mk()
	if !a.CorruptReport(ra) || !b.CorruptReport(rb) {
		t.Fatal("corrupt at p=1 did not fire")
	}
	if ra.Length == 1000 && ra.Hops[0].QueueDepth == 9 {
		t.Error("corruption changed nothing")
	}
	if ra.Length != rb.Length || ra.Hops[0].QueueDepth != rb.Hops[0].QueueDepth {
		t.Error("same seed corrupted differently")
	}
	if a.SiteCount(SiteCorrupt) != 1 {
		t.Errorf("corrupt count = %d", a.SiteCount(SiteCorrupt))
	}
}

func faultKey(p uint16) flow.Key {
	return flow.Key{
		Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("10.0.0.2"),
		SrcPort: p, DstPort: 80, Proto: netsim.TCP,
	}
}

func TestStoreWrapperInjectsOnFalliblePathsOnly(t *testing.T) {
	in := New(Spec{StoreErr: 1}, 1)
	db := WrapStore(store.New(), in)
	if err := db.TryAppendPrediction(store.PredictionRecord{Key: faultKey(1)}); !errors.Is(err, ErrInjected) {
		t.Fatalf("TryAppendPrediction error = %v, want ErrInjected", err)
	}
	if n := db.PredictionCount(); n != 0 {
		t.Fatalf("a failed TryAppendPrediction logged %d records", n)
	}
	// The plain Store interface has no error returns, so those paths
	// must keep working even at store.err=1.
	if !db.UpsertFlow(faultKey(2), []float64{1}, 0, 0, 1, false, "") {
		t.Fatal("plain UpsertFlow failed")
	}
	db.AppendPrediction(store.PredictionRecord{Key: faultKey(3)})
	if recs, _ := db.PollShard(0, 0, 10); len(recs) != 1 {
		t.Fatalf("plain PollShard = %d records, want 1", len(recs))
	}
	if db.PredictionCount() != 1 {
		t.Errorf("predictions = %d, want 1", db.PredictionCount())
	}
	if got := in.SiteCount(SiteStoreErr); got != 1 {
		t.Errorf("store_err fired %d times, want 1", got)
	}
}

func TestStoreWrapperCleanWhenNoStoreFaults(t *testing.T) {
	in := New(Spec{Drop: 1}, 1) // faults elsewhere only
	db := WrapStore(store.New(), in)
	if err := db.TryAppendPrediction(store.PredictionRecord{Key: faultKey(1), Label: 1}); err != nil {
		t.Fatalf("TryAppendPrediction = %v", err)
	}
	if preds := db.Predictions(); len(preds) != 1 || preds[0].Label != 1 {
		t.Errorf("prediction log = %+v, want the one record", preds)
	}
}

// stubModel is a trivial classifier for wrapper tests.
type stubModel struct {
	name     string
	panicky  bool
	features int
}

func (s *stubModel) Name() string                     { return s.name }
func (s *stubModel) Fit(X [][]float64, y []int) error { return nil }
func (s *stubModel) Predict(x []float64) int {
	if s.panicky {
		panic("stub model exploded")
	}
	if x[0] > 0 {
		return 1
	}
	return 0
}
func (s *stubModel) Features() int { return s.features }

func TestModelWrapperInjectsScoringFailures(t *testing.T) {
	in := New(Spec{ModelFail: map[string]float64{"A": 1}}, 1)
	a := WrapModel(&stubModel{name: "A"}, in)
	b := WrapModel(&stubModel{name: "B"}, in)
	X := [][]float64{{1}, {-1}}
	if _, err := a.TryPredictBatchInto(nil, X); !errors.Is(err, ErrInjected) {
		t.Fatalf("model A error = %v, want ErrInjected", err)
	}
	labels, err := b.TryPredictBatchInto([]int{9, 9, 9}, X)
	if err != nil {
		t.Fatalf("model B (untargeted) error = %v", err)
	}
	if len(labels) != 2 || labels[0] != 1 || labels[1] != 0 {
		t.Errorf("model B labels = %v", labels)
	}
	// The plain batch path stays fault-free: experiments and training
	// see the original model.
	if got := a.PredictBatchInto(nil, X); len(got) != 2 || got[0] != 1 || got[1] != 0 {
		t.Errorf("plain PredictBatchInto = %v", got)
	}
	if a.Name() != "A" || a.Features() != 0 {
		t.Errorf("delegation: name=%s features=%d", a.Name(), a.Features())
	}
}

func TestModelWrapperWildcardAndOverride(t *testing.T) {
	in := New(Spec{ModelFail: map[string]float64{"*": 1, "B": 0}}, 1)
	a := WrapModel(&stubModel{name: "A"}, in)
	b := WrapModel(&stubModel{name: "B"}, in)
	if _, err := a.TryPredictBatchInto(nil, [][]float64{{1}}); err == nil {
		t.Error("wildcard did not hit model A")
	}
	if _, err := b.TryPredictBatchInto(nil, [][]float64{{1}}); err != nil {
		t.Errorf("named override did not exempt model B: %v", err)
	}
}

func TestModelWrapperContainsPanics(t *testing.T) {
	in := New(Spec{}, 1)
	m := WrapModel(&stubModel{name: "boom", panicky: true}, in)
	labels, err := m.TryPredictBatchInto(nil, [][]float64{{1}})
	if err == nil || labels != nil {
		t.Fatalf("panicking model: labels=%v err=%v, want contained error", labels, err)
	}
}

func TestTaintTracking(t *testing.T) {
	in := New(Spec{Drop: 1}, 1)
	k1, k2 := faultKey(1).String(), faultKey(2).String()
	in.Taint(k1)
	in.Taint(k1)
	if !in.IsTainted(k1) || in.IsTainted(k2) {
		t.Error("taint membership wrong")
	}
	if in.TaintCount() != 1 {
		t.Errorf("taint count = %d", in.TaintCount())
	}
}

func TestSummaryAndCounts(t *testing.T) {
	in := New(Spec{Drop: 1, WorkerPanic: 1}, 1)
	in.DropReport()
	in.DropReport()
	in.WorkerPanicNow()
	if got := in.Summary(); got != "drop=2 worker_panic=1" {
		t.Errorf("summary = %q", got)
	}
	if in.Counts()[SiteDrop] != 2 {
		t.Errorf("counts = %v", in.Counts())
	}
}
