package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"github.com/amlight/intddos/internal/core"
)

// The traced run is never mixed into the untraced measurement: -trace 1
// is its own invocation. It makes, each on a fresh pipeline over one
// stream:
//
//  1. a reference pass, untraced, whose only product is a cpu_us_per_row
//     to hold the sampled pass against;
//  2. the sampled end-to-end pass, with the 10 ms sampler running, after
//     which MetricsSnapshot and runtime/metrics are read once;
//  3. a pass of the generator into nothing, for the harness's own cost;
//  4. the layer replay (replay.go), which pushes the head of the stream
//     through each module's public functions on one goroutine and
//     records a span per call;
//  5. a pass during which one full and one delta checkpoint are written,
//     then restored from;
//  6. a closed-loop pass for the ungated capacity figure.
//
// Their lengths are shares of -seconds, so that a traced invocation
// takes about as long as an untraced one.
func tracePlan(secs int) (ref, sampled, ckpt int, capacity time.Duration) {
	atLeast := func(min, n int) int {
		if n < min {
			return min
		}
		return n
	}
	ref, sampled, ckpt = atLeast(1, secs/5), atLeast(1, 2*secs/5), atLeast(2, 3*secs/20)
	return ref, sampled, ckpt, time.Duration(atLeast(1, 3*secs/20)) * time.Second
}

const (
	traceWarmSeconds = 1
	replayRows       = 40000
	samplerPeriod    = 10 * time.Millisecond
)

// sampler reads the two backlogs no histogram covers, every
// samplerPeriod, from its own goroutine.
type sampler struct {
	journal, backlog []float64
	quit, done       chan struct{}
}

func (s *sampler) start(live *core.Live) {
	s.quit, s.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(s.done)
		t := time.NewTicker(samplerPeriod)
		defer t.Stop()
		for {
			select {
			case <-s.quit:
				return
			case <-t.C:
				s.journal = append(s.journal, float64(live.DB.JournalLen()))
				s.backlog = append(s.backlog, float64(live.IngestBacklog()))
			}
		}
	}()
}

func (s *sampler) stop() {
	close(s.quit)
	<-s.done
}

// runtimeCounters are the runtime/metrics the sampled pass reads before
// and after.
type runtimeCounters struct {
	wakeups  uint64  // goroutines made runnable and scheduled
	gcCycles uint64  // completed collections
	gcCPU    float64 // seconds of CPU the collector used
}

func readRuntime() runtimeCounters {
	samples := []metrics.Sample{
		{Name: "/sched/latencies:seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(samples)
	var c runtimeCounters
	if samples[0].Value.Kind() == metrics.KindFloat64Histogram {
		for _, n := range samples[0].Value.Float64Histogram().Counts {
			c.wakeups += n
		}
	}
	if samples[1].Value.Kind() == metrics.KindUint64 {
		c.gcCycles = samples[1].Value.Uint64()
	}
	if samples[2].Value.Kind() == metrics.KindFloat64 {
		c.gcCPU = samples[2].Value.Float64()
	}
	return c
}

// runTraced makes the traced run and reports the per-layer metrics.
func runTraced(out io.Writer, w workload, seed int64, secs int, outDir string) (*record, error) {
	refSecs, sampledSecs, ckptSecs, capFor := tracePlan(secs)
	fmt.Fprintf(out, "== %s: traced run, seed %d, %d rows/s ==\n", w.name, seed, w.rate)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	m := make(map[string]float64)
	m["harness.calib_ms_before"] = ms(calibrate())

	in, err := setUp(nil, w, seed, (traceWarmSeconds+sampledSecs)*w.rate)
	if err != nil {
		return nil, err
	}
	ref, err := runPass(w, in, traceWarmSeconds, refSecs, nil)
	if err != nil {
		return nil, err
	}
	refCPU := ref.endToEnd(w, traceWarmSeconds)["cpu_us_per_row"]

	// Sampled end-to-end pass.
	if err := in.restart(w, nil); err != nil {
		return nil, err
	}
	smp := &sampler{}
	rt0 := readRuntime()
	cpu0, _ := processCPU()
	r, err := runPass(w, in, traceWarmSeconds, sampledSecs, smp)
	if err != nil {
		return nil, err
	}
	cpu1, _ := processCPU()
	rt1 := readRuntime()
	e2e := r.endToEnd(w, traceWarmSeconds)
	snapStart := time.Now()
	snap := in.live.MetricsSnapshot()
	m["obs.snapshot_ms"] = ms(time.Since(snapStart))
	m["obs.metrics_series"] = float64(len(snap.Counters) + len(snap.Gauges) + len(snap.Histograms))
	stage := func(name string) float64 {
		return snap.Histograms[fmt.Sprintf("intddos_stage_seconds{stage=%q}", name)].Quantile(0.5)
	}
	m["store.journal_wait_p50_ms"] = stage("journal_wait") * 1e3
	m["core.queue_wait_p50_ms"] = stage("queue_wait") * 1e3
	m["core.ingest_busy_p50_us"] = stage("ingest") * 1e6
	m["core.vote_p50_us"] = stage("vote") * 1e6
	m["core.batch_size_p50"] = snap.Histograms["intddos_predict_batch_size"].Quantile(0.5)
	m["store.journal_len_p90"] = quantile(smp.journal, 0.9)
	m["core.ingest_backlog_p90"] = quantile(smp.backlog, 0.9)
	if polls := snap.Counters["intddos_polls_total"]; polls > 0 {
		m["core.rows_per_poll"] = float64(snap.Counters["intddos_records_polled_total"]) / float64(polls)
	}
	m["core.sched_wakeups_per_row"] = float64(rt1.wakeups-rt0.wakeups) / float64(r.Sent)
	m["core.gc_cycles"] = float64(rt1.gcCycles - rt0.gcCycles)
	m["core.gc_cpu_share"] = (rt1.gcCPU - rt0.gcCPU) / (cpu1 - cpu0).Seconds()
	m["core.shed"] = float64(r.Shed)
	m["core.abandoned"] = float64(r.Abandoned)
	var decided []float64 // a row never decided has no age to rank; it is in the result line's failed
	for _, age := range measuredRows(r.ages, w, traceWarmSeconds) {
		if !math.IsInf(age, 1) {
			decided = append(decided, age)
		}
	}
	m["core.age_p99_ms"] = quantile(decided, 0.99)
	m["core.age_max_ms"] = quantile(decided, 1)
	m["flow.evicted_per_s"] = float64(in.live.Evictions.Load()) / float64(traceWarmSeconds+sampledSecs)
	m["harness.gen_late_p99_ms"], m["harness.gen_late_share"] = r.lateness(w, traceWarmSeconds)
	m["core.cpu_us_per_row"] = e2e["cpu_us_per_row"]
	m["harness.trace_overhead_us_per_row"] = e2e["cpu_us_per_row"] - refCPU

	if m["harness.self_us_per_row"], err = harnessSelf(w); err != nil {
		return nil, err
	}

	// Layer replay.
	rp := replay(w, in.pool, in.stream, replayRows)
	rp.metrics(m)
	layerAllocs(w, in.pool, in.stream, m)
	busy := rp.busyPerRow() / 1e3
	m["core.plumbing_us_per_row"] = e2e["cpu_us_per_row"] - busy - m["harness.self_us_per_row"]
	spanFile := filepath.Join(outDir, w.name+".trace.json")
	if err := rp.tr.writeFile(spanFile); err != nil {
		return nil, err
	}

	if err := checkpointPass(w, in, ckptSecs, outDir, m); err != nil {
		return nil, fmt.Errorf("checkpoint pass: %w", err)
	}
	if m["core.capacity_rows_per_s"], err = capacityPass(w, in, capFor); err != nil {
		return nil, err
	}
	m["harness.calib_ms_after"] = ms(calibrate())

	rec := newRecord(w, seed, secs, true, r, perLayerMetrics, m)
	rec.check(w, r, traceWarmSeconds, e2e["accuracy"])

	printMetrics(out, perLayerMetrics, m, map[string]string{
		"store.journal_wait_p50_ms":  fmt.Sprintf("the poll-ticker wait; this pass's age_p50_ms is %.4g ms", e2e["age_p50_ms"]),
		"core.capacity_rows_per_s":   "closed loop, 2048 rows in flight: not gated, ±15 % here",
		"core.age_p99_ms":            "whole pass, not windowed: not gated",
		"core.age_max_ms":            "whole pass: not gated",
		"flow.sweep_ms_per_pass":     "0 where the workload evicts nothing",
		"ml.triage_ns_per_row":       "0 where the workload has triage off",
		"core.cpu_us_per_row":        fmt.Sprintf("process CPU per row, median of the sampled pass's %d windows", sampledSecs),
		"core.plumbing_us_per_row":   "core.cpu_us_per_row less every busy layer and the harness",
		"harness.gen_late_share":     fmt.Sprintf("median window's share of rows handed over more than %v late", lateLimit),
		"harness.self_us_per_row":    "the generator paced into nothing",
		"checkpoint.ingest_stalls":   "ingest calls that found the capture barrier held",
		"core.sched_wakeups_per_row": "runtime/metrics /sched/latencies:seconds count",
	})
	fmt.Fprintf(out, "  core.cpu_us_per_row %.4g = busy layers %.4g + core.plumbing %.4g + harness %.4g; the untraced reference pass read %.4g\n",
		e2e["cpu_us_per_row"], busy, m["core.plumbing_us_per_row"], m["harness.self_us_per_row"], refCPU)
	fmt.Fprintf(out, "  %d spans of the first %d rows written to %s\n", len(rp.tr.spans), rp.rows, spanFile)
	rec.printChecks(out, w, r, traceWarmSeconds)
	return rec, nil
}

// harnessSelf paces one second of the workload's schedule into nothing
// and returns the process CPU that took, in µs per row: the generator's
// own cost, which every cpu_us_per_row includes.
func harnessSelf(w workload) (float64, error) {
	late := make([]time.Duration, w.rate)
	before, err := processCPU()
	if err != nil {
		return 0, err
	}
	pace(time.Now().Add(5*tick), w.rate/int(time.Second/tick), w.rate, late, func(int) {}, func(int) {})
	after, _ := processCPU()
	return float64((after - before).Microseconds()) / float64(w.rate), nil
}

// checkpointPass runs secs seconds of the workload against a pipeline
// with a checkpoint directory, writes one full and then one delta
// checkpoint while the generator keeps its schedule, and restores a new
// pipeline from the pair.
func checkpointPass(w workload, in *instance, secs int, outDir string, m map[string]float64) error {
	dir, err := os.MkdirTemp(outDir, "checkpoint-"+w.name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	withDir := func(c *core.LiveConfig) {
		c.CheckpointDir = dir
		c.CheckpointFullEvery = 16 // so that the second write is a delta
	}
	if err := in.restart(w, withDir); err != nil {
		return err
	}
	live := in.live
	type written struct {
		barrier, write time.Duration
		bytes          int
		err            error
	}
	var full, delta written
	write := func(wr *written) {
		start := time.Now()
		_, wr.bytes, wr.err = live.WriteCheckpoint()
		wr.write = time.Since(start)
		wr.barrier = live.LastCheckpointBarrier()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		time.Sleep(time.Duration(secs)*time.Second - 1200*time.Millisecond)
		write(&full)
		time.Sleep(500 * time.Millisecond)
		write(&delta)
	}()
	r, err := runPass(w, in, 0, secs, nil)
	<-done
	if err != nil {
		return err
	}
	for _, wr := range []written{full, delta} {
		if wr.err != nil {
			return wr.err
		}
	}
	if len(r.problems) > 0 {
		return fmt.Errorf("%v", r.problems)
	}
	m["checkpoint.full_barrier_ms"] = ms(full.barrier)
	m["checkpoint.full_write_ms"] = ms(full.write)
	m["checkpoint.full_mb"] = float64(full.bytes) / (1 << 20)
	m["checkpoint.delta_barrier_ms"] = ms(delta.barrier)
	m["checkpoint.delta_mb"] = float64(delta.bytes) / (1 << 20)
	m["checkpoint.ingest_stalls"] = float64(live.MetricsSnapshot().Counters["intddos_ingest_barrier_stalls_total"])

	start := time.Now()
	cfg := liveConfig(w, in.pool)
	withDir(&cfg)
	restored, err := core.NewLive(cfg)
	if err != nil {
		return fmt.Errorf("restore: %w", err)
	}
	m["checkpoint.restore_ms"] = ms(time.Since(start))
	if restored.Restore() == nil {
		return fmt.Errorf("restore: NewLive found no checkpoint in %s", dir)
	}
	return nil
}

// capacityPass is the one closed loop here: it sends as fast as the
// pipeline decides, with at most inFlight rows outstanding, for at most
// limit or until the stream runs out, and returns decisions per second.
// It swung ±15 % between runs of the same code on this box, which is why
// no workload is gated on it.
func capacityPass(w workload, in *instance, limit time.Duration) (float64, error) {
	const inFlight = 2048
	if err := in.restart(w, nil); err != nil {
		return 0, err
	}
	live, s := in.live, in.stream
	finished := func() int {
		return int(live.Predictions.Load() + live.Shed.Load() + live.Abandoned.Load())
	}
	runtime.GC()
	start := time.Now()
	sent := 0
	for sent < s.rows() && time.Since(start) < limit {
		if sent-finished() >= inFlight {
			time.Sleep(100 * time.Microsecond)
			continue
		}
		in.send(sent)
		sent++
	}
	for live.DecisionCount() < sent-int(live.Shed.Load()+live.Abandoned.Load()) && time.Since(start) < limit+drainTimeout {
		time.Sleep(tick)
	}
	elapsed := time.Since(start)
	decided := live.DecisionCount()
	live.Stop()
	return float64(decided) / elapsed.Seconds(), nil
}
