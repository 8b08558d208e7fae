package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/amlight/intddos/internal/core"
	"github.com/amlight/intddos/internal/netsim"
)

// sharedPool captures and fits once for every test that needs a pool.
var sharedPool = sync.OnceValues(buildPool)

func testPool(t *testing.T) *pool {
	t.Helper()
	p, err := sharedPool()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestWindowedQuantileIgnoresOneStall(t *testing.T) {
	const windows, per = 10, 1000
	ages := make([]float64, 0, windows*per)
	for w := 0; w < windows; w++ {
		for i := 0; i < per; i++ {
			ages = append(ages, 5*float64(i)/per) // 0–5 ms, the poll wait
		}
	}
	quiet50, quiet90 := windowedQuantile(ages, per, 0.5), windowedQuantile(ages, per, 0.9)
	if math.Abs(quiet50-2.5) > 0.01 || math.Abs(quiet90-4.5) > 0.01 {
		t.Fatalf("quiet run: p50 %.3f p90 %.3f, want 2.5 and 4.5", quiet50, quiet90)
	}
	// One window stalls: 30 % of its rows wait 80 ms longer.
	for i := 3 * per; i < 3*per+300; i++ {
		ages[i] += 80
	}
	if got := windowedQuantile(ages, per, 0.9); got != quiet90 {
		t.Errorf("windowed p90 moved from %.3f to %.3f on a stall in one window", quiet90, got)
	}
	if whole := quantile(ages, 0.99); whole < 80 {
		t.Errorf("whole-run p99 %.3f did not see the stall: the case proves nothing", whole)
	}
	// A row that was never decided sits beyond every age.
	ages[0] = math.Inf(1)
	if got := quantile(ages[:per], 1); !math.IsInf(got, 1) {
		t.Errorf("max of a window with a failed row is %v, want +Inf", got)
	}
}

func TestIQRShareMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{7, 1, 9, 3, 5, 10, 2, 8, 4, 6}
	if got, want := iqrShare(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrShare = %v, want %v", got, want)
	}
}

func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	p := testPool(t)
	for _, w := range workloads {
		a, err := materialise(p, w, 7, 3000)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := materialise(p, w, 7, 3000)
		c, _ := materialise(p, w, 8, 3000)
		if !bytes.Equal(a.wire, b.wire) {
			t.Errorf("%s: seed 7 gave two different byte streams", w.name)
		}
		if bytes.Equal(a.wire, c.wire) {
			t.Errorf("%s: seeds 7 and 8 gave the same byte stream", w.name)
		}
		// Each row is where the send log says it is.
		for row := 0; row < a.rows(); row++ {
			f := a.flowOf[row]
			if got := a.rowAt[a.flowStart[f]+a.seqOf[row]]; int(got) != row {
				t.Fatalf("%s: row %d is flow %d seq %d, which the index maps to row %d", w.name, row, f, a.seqOf[row], got)
			}
		}
	}
}

// decisionsFor fabricates the decision a sound pipeline would log for
// each of rows, 3 ms after it was due.
func decisionsFor(s *stream, r *passResult, rows []int) []core.Decision {
	var decs []core.Decision
	for _, row := range rows {
		label := 0
		if s.truth[row] {
			label = 1
		}
		decs = append(decs, core.Decision{
			Key: s.keys[s.flowOf[row]], Seq: int(s.seqOf[row]), Label: label,
			At: netsim.Time(dueUnixNano(r.t0, r.perTick, row) + int64(3*time.Millisecond)),
		})
	}
	return decs
}

func TestJoinAccountsForShedRows(t *testing.T) {
	w, _ := findWorkload("tuned")
	s, err := materialise(testPool(t), w, 1, 4000)
	if err != nil {
		t.Fatal(err)
	}
	newPass := func(shed int) *passResult {
		r := &passResult{t0: time.Now(), perTick: 20, ages: make([]float64, s.rows())}
		r.Sent, r.Shed = s.rows(), shed
		return r
	}
	shed := map[int]bool{17: true, 18: true, 2500: true}
	var kept []int
	for row := 0; row < s.rows(); row++ {
		if !shed[row] {
			kept = append(kept, row)
		}
	}

	r := newPass(len(shed))
	r.join(s, decisionsFor(s, r, kept))
	if len(r.problems) > 0 {
		t.Errorf("shed rows the ledger counts were reported: %v", r.problems)
	}
	for row := range r.ages {
		if shed[row] != math.IsInf(r.ages[row], 1) {
			t.Fatalf("row %d: shed %v, age %v", row, shed[row], r.ages[row])
		}
		if !shed[row] && math.Abs(r.ages[row]-3) > 1e-6 {
			t.Fatalf("row %d: age %v ms, want 3", row, r.ages[row])
		}
	}
	if r.right != len(kept) {
		t.Errorf("%d of %d fabricated decisions counted as right", r.right, len(kept))
	}

	r = newPass(0) // the same gaps, which the ledger does not explain
	r.join(s, decisionsFor(s, r, kept))
	if len(r.problems) != 1 || !strings.HasPrefix(r.problems[0], "seq-gaps") {
		t.Errorf("unexplained gaps: problems %v, want one seq-gaps", r.problems)
	}

	r = newPass(0) // two decisions of one flow swapped
	all := make([]int, s.rows())
	for i := range all {
		all[i] = i
	}
	decs := decisionsFor(s, r, all)
	f := 0
	for s.flowStart[f+1]-s.flowStart[f] < 2 {
		f++
	}
	first, second := s.rowAt[s.flowStart[f]], s.rowAt[s.flowStart[f]+1]
	decs[first], decs[second] = decs[second], decs[first]
	r.join(s, decs)
	if len(r.problems) == 0 || !strings.HasPrefix(r.problems[0], "seq-order") {
		t.Errorf("swapped decisions: problems %v, want seq-order first", r.problems)
	}

	r = newPass(0) // a decision logged twice
	decs = append(decisionsFor(s, r, all), decisionsFor(s, r, []int{5})...)
	r.join(s, decs)
	if len(r.problems) != 1 || !strings.HasPrefix(r.problems[0], "join") {
		t.Errorf("repeated decision: problems %v, want one join", r.problems)
	}
}

func TestVerdict(t *testing.T) {
	age := metricDef{Name: "age_p50_ms", Better: "lower", Bound: 0.10}
	acc := metricDef{Name: "accuracy", Better: "higher", Bound: 0.005}
	steady := []float64{3.0, 3.02, 2.98, 3.01, 2.99}
	for _, c := range []struct {
		d            metricDef
		base, change []float64
		want         string
	}{
		{age, steady, []float64{3.4, 3.42, 3.38, 3.41, 3.39}, "WORSE"},
		{age, steady, []float64{3.1, 3.12, 3.08, 3.11, 3.09}, "within"},
		{age, steady, []float64{2.0, 2.02, 1.98, 2.01, 1.99}, "better"},
		{age, steady, []float64{2.4, 3.3, 2.9, 3.5, 2.6}, "unresolved"},
		{acc, []float64{0.99, 0.99, 0.99}, []float64{0.98, 0.98, 0.98}, "WORSE"},
		{acc, []float64{0.99, 0.99, 0.99}, []float64{0.991, 0.992, 0.991}, "better"},
	} {
		if got := verdict(c.d, c.base, c.change); got != c.want {
			t.Errorf("%s %v → %v: %s, want %s", c.d.Name, c.base, c.change, got, c.want)
		}
	}
}

// TestSmoke runs every workload for one second. It asserts only the
// correctness checks the full run makes — the ledger closes, the
// prediction log matches, per-flow Seq order holds, nothing failed,
// accuracy is over the floor — and no timing. Under the race detector
// the pipeline cannot keep the pace, so rows may be shed: the ledger, the
// join and the Seq order must still hold.
func TestSmoke(t *testing.T) {
	p := testPool(t)
	for _, w := range workloads {
		rec, err := runSmoke(io.Discard, p, w, 1)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		for _, problem := range rec.Problems {
			overload := strings.HasPrefix(problem, "failed-share") || strings.HasPrefix(problem, "not-finite") || strings.HasPrefix(problem, "accuracy")
			if strings.HasPrefix(problem, "generator-late") || raceDetector && overload {
				t.Logf("%s: %s", w.name, problem) // the machine's doing, not the program's
				continue
			}
			t.Errorf("%s: %s", w.name, problem)
		}
		if rec.Attempted != w.rate || rec.Failed != 0 && !raceDetector {
			t.Errorf("%s: attempted %d failed %d, want %d and 0", w.name, rec.Attempted, rec.Failed, w.rate)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the tables in this package
// saying the same thing.
func TestBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, the package has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q, the package's is %q", i, doc.Workloads[i].Name, w.name)
		}
		if n := len(doc.Workloads[i].Why); n == 0 || n > 200 {
			t.Errorf("workload %q: why has %d characters", w.name, n)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, the package has %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: %+v, the package's is %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEndMetrics)
	same("per_layer", doc.PerLayer, perLayerMetrics)
	if len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("paths %v, want [benchmark]", doc.Paths)
	}
}
