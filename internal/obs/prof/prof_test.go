package prof

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/amlight/intddos/internal/obs"
)

// grindMutex produces real lock contention: every goroutine holds the
// mutex long enough that the others observably block on it. The
// function name anchors the attribution test's custom stage rule.
func grindMutex(workers, rounds int) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				mu.Lock()
				time.Sleep(50 * time.Microsecond)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

func TestAttributionSeesInducedContention(t *testing.T) {
	restore := EnableRates(1, 100)
	defer restore()

	grindMutex(4, 40)
	rules := append([]StageRule{{Match: "prof.grindMutex", Stage: "test.grind"}}, PipelineStages()...)
	diff := Attribution(0, rules)

	var hit *Row
	for i := range diff.Rows {
		if diff.Rows[i].Stage == "test.grind" {
			hit = &diff.Rows[i]
			break
		}
	}
	if hit == nil {
		t.Fatalf("no row attributed to test.grind; rows: %v", diff.Rows)
	}
	if hit.Count <= 0 || hit.Seconds <= 0 {
		t.Errorf("attributed row has count=%d seconds=%f, want positive", hit.Count, hit.Seconds)
	}
	// The trimmed stack's first frame is the caller that waited, not
	// sync.(*Mutex).Lock plumbing.
	if len(hit.Frames) == 0 || strings.HasPrefix(hit.Frames[0], "sync.") {
		t.Errorf("frames not trimmed: %v", hit.Frames)
	}

	totals := diff.StageTotals()
	if len(totals) == 0 || totals[0].Seconds <= 0 {
		t.Errorf("stage totals empty or zero: %v", totals)
	}
	text := diff.Format()
	for _, want := range []string{"blocked time by pipeline stage", "top stacks by blocked time", "test.grind"} {
		if !strings.Contains(text, want) {
			t.Errorf("Format() missing %q:\n%s", want, text)
		}
	}
}

// TestPipelineStagesScoringBuckets pins the rules to the pipeline's
// frame names, for a pass run by the shard loop or by a direct Ingest
// alike: under the scorer's triage pass is core.triage, the rest of a
// scoring call core.predict, folding a row in core.ingest, and the rest of
// the pass — its barrier and run lock — core.shard. The shard loop
// outside a pass is idle; a producer blocked on a full queue is
// core.ingest_demux.
func TestPipelineStagesScoringBuckets(t *testing.T) {
	const core = "github.com/amlight/intddos/internal/core."
	for _, caller := range [][]string{
		{core + "(*Live).runShard", core + "(*Live).Start.gowrap1"},
		{core + "(*Live).Ingest", "main.feed"},
	} {
		pass := append([]string{core + "(*Live).decide", core + "(*Live).burst"}, caller...)
		scoring := append([]string{core + "(*scorer).score", core + "(*Live).predictBatch"}, pass...)
		for _, c := range []struct {
			stack []string
			want  string
		}{
			{append([]string{core + "(*scorer).triage"}, scoring...), "core.triage"},
			{scoring, "core.predict"},
			{append([]string{"sync.(*Mutex).Lock", core + "(*Live).fold"}, pass[1:]...), "core.ingest"},
			{append([]string{"sync.(*RWMutex).RLock"}, pass[1:]...), "core.shard"},
			{append([]string{"sync.(*Mutex).Lock"}, pass...), "core.shard"},
		} {
			if got := attribute(c.stack, PipelineStages()); got != c.want {
				t.Errorf("stack %v attributed to %q, want %q", c.stack, got, c.want)
			}
		}
	}
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.selectgo", core + "(*Live).runShard", core + "(*Live).Start.gowrap1"}, StageIdle},
		{[]string{"runtime.selectgo", core + "(*Live).sleepQuit", core + "(*Live).runShard"}, StageIdle},
		{[]string{"runtime.selectgo", core + "(*Live).enqueue", core + "(*Live).HandleReport"}, "core.ingest_demux"},
		{[]string{"runtime.chanrecv1", "main.consume"}, "chan.recv"},
	} {
		if got := attribute(c.stack, PipelineStages()); got != c.want {
			t.Errorf("stack %v attributed to %q, want %q", c.stack, got, c.want)
		}
	}
}

// TestIdleKeptOutOfTheRanking: a parked shard loop is waiting for work,
// not blocked, so it is neither a stage total nor a top stack — only
// the one idle line reports it, whatever its seconds.
func TestIdleKeptOutOfTheRanking(t *testing.T) {
	rep := &Report{Rows: []Row{
		{Kind: "block", Stage: StageIdle, Count: 9, Seconds: 5.5, Frames: []string{"core.(*Live).runShard"}},
		{Kind: "mutex", Stage: "core.shard", Count: 3, Seconds: 0.25, Frames: []string{"core.(*Live).burst"}},
	}}
	totals := rep.StageTotals()
	if len(totals) != 1 || totals[0].Stage != "core.shard" {
		t.Errorf("stage totals %+v, want core.shard alone", totals)
	}
	text := rep.Format()
	if strings.Contains(text, "runShard") {
		t.Errorf("idle stack ranked among the blocked ones:\n%s", text)
	}
	if !strings.Contains(text, "# idle (parked waiting for work, not ranked): 5.500000 seconds") {
		t.Errorf("Format() missing the idle line:\n%s", text)
	}
}

func TestEnableRatesNesting(t *testing.T) {
	base := runtime.SetMutexProfileFraction(-1)
	r1 := EnableRates(7, 1000)
	if got := runtime.SetMutexProfileFraction(-1); got != 7 {
		t.Errorf("fraction after first enable = %d, want 7", got)
	}
	r2 := EnableRates(13, 2000)
	if got := runtime.SetMutexProfileFraction(-1); got != 13 {
		t.Errorf("fraction after nested enable = %d, want 13", got)
	}
	r2()
	r2() // idempotent
	if got := runtime.SetMutexProfileFraction(-1); got != 13 {
		t.Errorf("fraction after inner restore = %d, want 13 (outer still holds)", got)
	}
	r1()
	if got := runtime.SetMutexProfileFraction(-1); got != base {
		t.Errorf("fraction after full restore = %d, want %d", got, base)
	}
	if blockRate() != 0 {
		t.Errorf("block rate after full restore = %d, want 0", blockRate())
	}
}

func TestProfilerCaptureRing(t *testing.T) {
	dir := t.TempDir()
	p, err := Start(Config{
		Dir:      dir,
		Interval: time.Hour, // no periodic firing during the test
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	p.cpuWindow = 10 * time.Millisecond

	for i := 0; i < keepPerKind+1; i++ {
		if err := p.CaptureNow(); err != nil {
			t.Fatalf("capture %d: %v", i, err)
		}
	}
	for _, kind := range []string{"mutex", "block", "goroutine", "heap", "cpu"} {
		matches, _ := filepath.Glob(filepath.Join(dir, kind+"-*.pprof"))
		if len(matches) != keepPerKind {
			t.Errorf("%s snapshots = %d, want pruned to %d: %v", kind, len(matches), keepPerKind, matches)
		}
	}
	// Snapshots are non-empty binary pprof payloads (gzip magic).
	matches, _ := filepath.Glob(filepath.Join(dir, "mutex-*.pprof"))
	data, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
		t.Errorf("mutex snapshot does not look like a pprof gzip payload: % x", data[:min(8, len(data))])
	}
}

func TestProfilerRegistryWiring(t *testing.T) {
	reg := obs.NewRegistry()
	p, err := Start(Config{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()

	if report, ok := reg.Attribution(5); !ok || !strings.Contains(report, "contention attribution") {
		t.Errorf("registry attribution = %v %q", ok, report)
	}
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	for _, want := range []string{
		fmt.Sprintf("intddos_prof_mutex_fraction %d", DefaultMutexFraction),
		fmt.Sprintf("intddos_prof_block_rate_ns %d", DefaultBlockRateNs),
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("prof gauges missing %q", want)
		}
	}
	if err := reg.WriteBundle(io.Discard); err != nil {
		t.Fatalf("bundle with profile snapshots: %v", err)
	}

	// Stop is idempotent and restores rates.
	p.Stop()
	p.Stop()
	var nilP *Profiler
	nilP.Stop()
}
