package core

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/amlight/intddos/internal/checkpoint"
	"github.com/amlight/intddos/internal/flow"
)

// stallModel holds every small-packet row until open is closed — a
// stall of the shards those flows hash onto, with nothing else slowed.
type stallModel struct{ open <-chan struct{} }

func (g stallModel) Name() string                 { return "stall" }
func (g stallModel) Fit([][]float64, []int) error { return nil }
func (g stallModel) Predict(x []float64) int {
	if x[1] < 100 { // FPktSize
		<-g.open
		return 1
	}
	return 0
}

// TestShardStallShorterThanBoundShedsNothing holds one shard for
// 200 ms — a host stall, as far as its queue can tell — while its
// producer stays within the queue's capacity. Nothing may shed: the
// stall is shorter than the shed bound, so the backlog is delay, not
// loss. The other shard keeps deciding throughout, and once the gate
// opens every row is decided in per-flow Seq order.
func TestShardStallShorterThanBoundShedsNothing(t *testing.T) {
	open := make(chan struct{})
	cfg := liveConfig(stallModel{open: open})
	cfg.Shards = 2
	l := newLive(t, cfg)
	var mu sync.Mutex
	seqs := make(map[flow.Key][]int)
	l.OnDecision = func(d Decision) {
		mu.Lock()
		seqs[d.Key] = append(seqs[d.Key], d.Seq)
		mu.Unlock()
	}
	decided := func(k flow.Key) int {
		mu.Lock()
		defer mu.Unlock()
		return len(seqs[k])
	}
	var hot, cold flow.Key
	for p := uint16(1); hot == (flow.Key{}) || cold == (flow.Key{}); p++ {
		switch k := liveObs(p, 0, false, "").Key; k.Shard(2) {
		case 0:
			hot = k
		case 1:
			cold = k
		}
	}
	l.Start()
	defer l.Stop()

	const n = 100
	stalled := time.Now()
	for i := 0; i < n; i++ {
		l.IngestAsync(flow.PacketInfo{Key: hot, Length: 40, HasTelemetry: true, Label: true, AttackType: "synflood"})
		l.IngestAsync(flow.PacketInfo{Key: cold, Length: 1000, HasTelemetry: true, AttackType: "benign"})
		time.Sleep(time.Millisecond)
	}
	if !waitFor(t, 5*time.Second, func() bool { return decided(cold) == n }) {
		t.Fatalf("cold shard decided %d of %d while the other was held", decided(cold), n)
	}
	time.Sleep(200*time.Millisecond - time.Since(stalled))
	close(open)
	settle(t, l, 10*time.Second)

	if got := l.Shed.Load(); got != 0 {
		t.Errorf("a %v stall shed %d rows; the bound is %v", 200*time.Millisecond, got, l.shedAfter)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, k := range []flow.Key{hot, cold} {
		got := seqs[k]
		if len(got) != n {
			t.Errorf("%s: %d decisions, want %d", k, len(got), n)
		}
		for i, seq := range got {
			if seq != i {
				t.Fatalf("%s: decision %d has Seq %d: %v", k, i, seq, got)
			}
		}
	}
}

// TestShardCaptureUnderLoadNeedsNoSettling writes checkpoints back to
// back while four producers feed eight shards. A shard journals and
// decides a row in one pass under its barrier's read lock, so a holder
// of every barrier never sees a row in flight: inside each barrier the
// pipeline is closed exactly, and every capture's journal tails are
// empty. The last capture, taken at the cut, restores into a run that
// finishes the stream bit-identically to an uninterrupted one.
func TestShardCaptureUnderLoadNeedsNoSettling(t *testing.T) {
	const producers, flowsEach, cut, total = 4, 8, 60, 80
	feed := func(l *Live, from, to int) {
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				for u := from; u < to; u++ {
					for f := 0; f < flowsEach; f++ {
						sport := uint16(6000 + p*flowsEach + f)
						if f%3 == 0 {
							l.HandleReport(chaosReport(sport, 40, true, "synflood"))
						} else {
							l.HandleReport(chaosReport(sport, 1000, false, "benign"))
						}
					}
					time.Sleep(time.Millisecond) // keep the load up while captures run
				}
			}(p)
		}
		wg.Wait()
	}
	mk := func(dir string) *Live {
		cfg := ckptConfig(dir)
		cfg.Shards = 8
		l, err := NewLive(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}

	a := mk(t.TempDir())
	a.Start()
	feed(a, 0, total)
	settle(t, a, 5*time.Second)
	a.Stop()
	want := predTrace(a)

	dir := t.TempDir()
	b := mk(dir)
	b.ckptPostCapture = func(snap *checkpoint.Snapshot) {
		for s, st := range snap.ShardStates {
			if n := len(st.Store.Journal); n != 0 {
				t.Errorf("shard %d: %d rows journaled and undecided at the cut", s, n)
			}
		}
	}
	b.Start()
	var stop atomic.Bool
	writes, barriers := 0, 0
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for !stop.Load() {
			if _, _, err := b.WriteCheckpoint(); err != nil {
				t.Errorf("checkpoint under load: %v", err)
				return
			}
			writes++
			for s := range b.ckptMu {
				b.ckptMu[s].Lock()
			}
			polled, decided := b.Polled.Load(), b.Predictions.Load()
			shed, abandoned := b.Shed.Load(), b.Abandoned.Load()
			for s := range b.ckptMu {
				b.ckptMu[s].Unlock()
			}
			if polled != decided+shed+abandoned {
				t.Errorf("inside a barrier: polled %d != decided %d + shed %d + abandoned %d",
					polled, decided, shed, abandoned)
			}
			barriers++
		}
	}()
	feed(b, 0, cut)
	stop.Store(true)
	<-writerDone
	if _, _, err := b.WriteCheckpoint(); err != nil {
		t.Fatalf("checkpoint at the cut: %v", err)
	}
	b.Stop()
	if t.Failed() {
		return
	}
	if writes < 2 {
		t.Fatalf("only %d checkpoints while the producers ran: nothing was under load", writes)
	}
	t.Logf("%d checkpoints and %d barriers under load", writes, barriers)

	c := mk(dir)
	if r := c.Restore(); r == nil || r.JournalPending != 0 {
		t.Fatalf("restore summary %+v, want one with nothing pending", r)
	}
	c.Start()
	feed(c, cut, total)
	settle(t, c, 5*time.Second)
	c.Stop()
	assertAccounting(t, c)
	compareTraces(t, predTrace(c), want, "restore of a capture under load")
}

// pipelineGoroutines counts the goroutines running a Live method:
// shard loops, and every one of them.
func pipelineGoroutines() (shards, all int) {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "core.(*Live).") {
			all++
			if strings.Contains(g, "core.(*Live).runShard(") {
				shards++
			}
		}
	}
	return shards, all
}

// TestShardGoroutinesOnePerShard pins the execution model: after Start
// exactly one goroutine per shard runs the pipeline, plus the sweeper
// and the periodic checkpointer when they are configured, and none of
// them outlives Stop.
func TestShardGoroutinesOnePerShard(t *testing.T) {
	for _, periodic := range []bool{false, true} {
		cfg := liveConfig(attackDetector())
		cfg.Shards = 8
		want := cfg.Shards
		if periodic {
			cfg.FlowIdleTimeout = time.Hour
			cfg.CheckpointDir, cfg.CheckpointEvery = t.TempDir(), time.Hour
			want += 2
		}
		l := startLive(t, cfg)
		feedChaos(l, 40, 2)
		settle(t, l, 5*time.Second)
		if !waitFor(t, 5*time.Second, func() bool { s, a := pipelineGoroutines(); return s == cfg.Shards && a == want }) {
			s, a := pipelineGoroutines()
			t.Errorf("periodic=%t: %d shard goroutines and %d pipeline goroutines, want %d and %d", periodic, s, a, cfg.Shards, want)
		}
		l.Stop()
		if !waitFor(t, 5*time.Second, func() bool { _, a := pipelineGoroutines(); return a == 0 }) {
			_, a := pipelineGoroutines()
			t.Errorf("periodic=%t: %d pipeline goroutines outlived Stop", periodic, a)
		}
	}
}

// TestVoteSpanIsPerRow pins the vote stage to the vote: a 32-row batch
// whose OnDecision sleeps 1 ms must read a vote-stage median far under
// 1 ms. Timed from the batch's scoring instant, row i's span would
// include finishing rows 0…i−1 — about 16 ms at the median.
func TestVoteSpanIsPerRow(t *testing.T) {
	cfg := liveConfig(attackDetector())
	cfg.PredictBatch = 32
	l := newLive(t, cfg)
	l.OnDecision = func(Decision) { time.Sleep(time.Millisecond) }
	// Queued before Start, the rows reach the shard as one pass and so
	// one batch.
	for i := 0; i < 32; i++ {
		l.IngestAsync(liveObs(uint16(100+i), 40, true, "synflood"))
	}
	l.Start()
	settle(t, l, 5*time.Second)
	l.Stop()
	if b := l.met.batchSize.Snapshot(); b.Count != 1 || b.Max != 32 {
		t.Fatalf("%d batches, largest %v: want one batch of 32", b.Count, b.Max)
	}
	if p50 := time.Duration(l.met.stageVote.Snapshot().Quantile(0.5) * float64(time.Second)); p50 >= time.Millisecond {
		t.Errorf("vote stage p50 = %v with a 1 ms OnDecision: the span includes other rows' finishing", p50)
	}
}
