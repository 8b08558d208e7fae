package traffic

import (
	"fmt"
	"testing"

	"github.com/amlight/intddos/internal/netsim"
	"github.com/amlight/intddos/internal/trace"
)

func TestPaperScheduleHasElevenEpisodes(t *testing.T) {
	s := PaperSchedule(netsim.Second, 0)
	if len(s) != 11 {
		t.Fatalf("episodes = %d, want 11 (Table I)", len(s))
	}
	counts := map[string]int{}
	for _, e := range s {
		counts[e.Type]++
		if e.End <= e.Start {
			t.Errorf("episode %v has non-positive duration", e)
		}
	}
	want := map[string]int{SYNScan: 2, UDPScan: 2, SYNFlood: 5, SlowLoris: 2}
	for typ, n := range want {
		if counts[typ] != n {
			t.Errorf("%s episodes = %d, want %d", typ, counts[typ], n)
		}
	}
}

func TestPaperScheduleDayPlacement(t *testing.T) {
	day := netsim.Second
	s := PaperSchedule(day, 0)
	// First six episodes on day 4, last five on day 5.
	for i, e := range s {
		wantDay := 4
		if i >= 6 {
			wantDay = 5
		}
		if got := int(e.Start / day); got != wantDay {
			t.Errorf("episode %d (%s) on day %d, want %d", i, e.Type, got, wantDay)
		}
	}
}

func TestPaperScheduleOrderingAndProportions(t *testing.T) {
	day := 10 * netsim.Second
	s := PaperSchedule(day, 0)
	for i := 1; i < len(s); i++ {
		if s[i].Start < s[i-1].Start {
			t.Errorf("episodes out of order at %d", i)
		}
	}
	// The first SYN scan is the longest scan episode (33 min real).
	if (s[0].End - s[0].Start) <= (s[1].End - s[1].Start) {
		t.Errorf("scan durations: first %v should exceed second %v", (s[0].End - s[0].Start), (s[1].End - s[1].Start))
	}
}

func TestPaperScheduleMinEpisodeFloor(t *testing.T) {
	day := 100 * netsim.Millisecond // aggressive compression
	min := 5 * netsim.Millisecond
	for _, e := range PaperSchedule(day, min) {
		if (e.End - e.Start) < min {
			t.Errorf("episode %v shorter than floor", e)
		}
	}
}

func TestScheduleActiveAt(t *testing.T) {
	s := Schedule{
		{Type: SYNScan, Start: 100, End: 200},
		{Type: SYNFlood, Start: 300, End: 400},
	}
	cases := []struct {
		t    netsim.Time
		want string
	}{
		{50, ""}, {100, SYNScan}, {199, SYNScan}, {200, ""}, {350, SYNFlood}, {400, ""},
	}
	for _, c := range cases {
		if got := s.ActiveAt(c.t); got != c.want {
			t.Errorf("ActiveAt(%d) = %q, want %q", c.t, got, c.want)
		}
	}
}

func TestScheduleByType(t *testing.T) {
	s := PaperSchedule(netsim.Second, 0)
	floods := 0
	for _, e := range s {
		if e.Type == SYNFlood {
			floods++
		}
	}
	if got := floods; got != 5 {
		t.Errorf("flood episodes = %d, want 5", got)
	}
}

func TestBuildTinyWorkload(t *testing.T) {
	w := Build(TinyConfig(1))
	if len(w.Records) < 2000 {
		t.Fatalf("tiny workload only %d records", len(w.Records))
	}
	counts := make(map[string]int)
	for i := range w.Records {
		counts[w.Records[i].AttackType]++
	}
	for _, typ := range append([]string{Benign}, AttackTypes...) {
		if counts[typ] == 0 {
			t.Errorf("no %s records generated", typ)
		}
	}
	// Chronological order.
	for i := 1; i < len(w.Records); i++ {
		if w.Records[i].At < w.Records[i-1].At {
			t.Fatalf("records out of order at %d", i)
		}
	}
}

func TestBuildDeterministic(t *testing.T) {
	a := Build(TinyConfig(42))
	b := Build(TinyConfig(42))
	if len(a.Records) != len(b.Records) {
		t.Fatalf("lengths differ: %d vs %d", len(a.Records), len(b.Records))
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatalf("record %d differs between same-seed builds", i)
		}
	}
	c := Build(TinyConfig(43))
	if len(a.Records) == len(c.Records) {
		same := true
		for i := range a.Records {
			if a.Records[i] != c.Records[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical workloads")
		}
	}
}

func TestAttackLabelsMatchSchedule(t *testing.T) {
	w := Build(TinyConfig(7))
	for i := range w.Records {
		r := &w.Records[i]
		if r.Label {
			active := w.Schedule.ActiveAt(r.At)
			if active == "" {
				t.Fatalf("attack record at %v outside every episode (%s)", r.At, r.AttackType)
			}
			if active != r.AttackType {
				t.Fatalf("attack record labeled %s during %s episode", r.AttackType, active)
			}
		} else if r.AttackType != Benign {
			t.Fatalf("unlabeled record has attack type %q", r.AttackType)
		}
	}
}

func TestBenignTrafficTargetsServer(t *testing.T) {
	w := Build(TinyConfig(7))
	for i := range w.Records {
		r := &w.Records[i]
		if r.AttackType == Benign && r.Src != ServerAddr && r.Dst != ServerAddr {
			t.Fatalf("benign record not touching server: %+v", r)
		}
	}
}

func TestScanFlowsMostlySinglePacket(t *testing.T) {
	w := Build(TinyConfig(9))
	seen := map[string]int{}
	for i := range w.Records {
		r := &w.Records[i]
		if r.AttackType == SYNScan || r.AttackType == UDPScan {
			key := fmt.Sprint(r.Src, r.SrcPort, r.Dst, r.DstPort, r.Proto)
			seen[key]++
		}
	}
	if len(seen) == 0 {
		t.Fatal("no scan flows")
	}
	single, retried := 0, 0
	for _, n := range seen {
		switch {
		case n == 1:
			single++
		case n == 2:
			retried++ // hping retry
		default:
			t.Fatalf("scan flow with %d packets; at most one retry expected", n)
		}
	}
	if single < 2*retried {
		t.Errorf("single=%d retried=%d; most scan probes should not retry", single, retried)
	}
}

func TestSlowLorisIsLowRate(t *testing.T) {
	w := Build(SmallConfig(3))
	counts := make(map[string]int)
	for i := range w.Records {
		counts[w.Records[i].AttackType]++
	}
	loris := counts[SlowLoris]
	flood := counts[SYNFlood]
	if loris == 0 || flood == 0 {
		t.Fatal("missing attack records")
	}
	if loris*20 > flood {
		t.Errorf("slowloris %d not ≪ flood %d — low-rate property lost", loris, flood)
	}
}

func TestSlowLorisFlowsPersist(t *testing.T) {
	w := Build(TinyConfig(5))
	// Every loris connection should emit several packets spread over
	// the episode.
	perFlow := map[string][]netsim.Time{}
	for i := range w.Records {
		r := &w.Records[i]
		if r.AttackType == SlowLoris {
			key := fmt.Sprint(r.Src, r.SrcPort, r.Dst, r.DstPort, r.Proto)
			perFlow[key] = append(perFlow[key], r.At)
		}
	}
	if len(perFlow) == 0 {
		t.Fatal("no slowloris flows")
	}
	for k, times := range perFlow {
		if len(times) < 3 {
			t.Errorf("loris flow %s has only %d packets", k, len(times))
		}
	}
}

func TestSplitAtDay(t *testing.T) {
	w := Build(TinyConfig(11))
	// The paper's zero-day split: days before 5 train, day 5 tests.
	cut := 5 * w.Config.DayLen
	var before, after []trace.Record
	for _, r := range w.Records {
		if r.At < cut {
			before = append(before, r)
		} else {
			after = append(after, r)
		}
	}
	// Day 5 holds SlowLoris (zero-day class) and SYN floods only.
	types := map[string]bool{}
	for i := range after {
		if after[i].Label {
			types[after[i].AttackType] = true
		}
	}
	if !types[SlowLoris] || !types[SYNFlood] {
		t.Errorf("day-5 test partition types = %v, want slowloris+synflood", types)
	}
	if types[SYNScan] || types[UDPScan] {
		t.Errorf("scans leaked into day-5 partition: %v", types)
	}
	// SlowLoris must be absent from the training days (zero-day).
	for i := range before {
		if before[i].AttackType == SlowLoris {
			t.Fatal("slowloris leaked into training partition")
		}
	}
}

func TestWorkloadRoundTripsThroughTraceFile(t *testing.T) {
	w := Build(TinyConfig(13))
	dir := t.TempDir()
	path := dir + "/w.amtr"
	if err := trace.WriteFile(path, w.Records); err != nil {
		t.Fatal(err)
	}
	got, err := trace.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(w.Records) {
		t.Fatalf("round trip %d != %d", len(got), len(w.Records))
	}
	for i := range got {
		if got[i] != w.Records[i] {
			t.Fatalf("record %d differs after round trip", i)
		}
	}
}

func TestDiurnalModulationInRange(t *testing.T) {
	for f := 0.0; f < 1.0; f += 0.01 {
		v := diurnal(f)
		if v < 0.05 || v > 1.25 {
			t.Fatalf("diurnal(%f) = %f out of sane range", f, v)
		}
	}
}

func TestConfigForScale(t *testing.T) {
	if ConfigForScale(ScaleTiny, 1).DayLen != TinyConfig(1).DayLen {
		t.Error("tiny preset mismatch")
	}
	if ConfigForScale(ScaleFull, 1).DayLen != FullConfig(1).DayLen {
		t.Error("full preset mismatch")
	}
	if ConfigForScale("bogus", 1).DayLen != SmallConfig(1).DayLen {
		t.Error("default preset should be small")
	}
}
