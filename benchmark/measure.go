package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"github.com/amlight/intddos/internal/core"
	"github.com/amlight/intddos/internal/flow"
	"github.com/amlight/intddos/internal/telemetry"
)

// drainTimeout is how long after the last send a row may stay undecided
// before it is counted as failed.
const drainTimeout = 10 * time.Second

// instance is one set-up: a capture, a stream and a started pipeline.
type instance struct {
	pool   *pool
	stream *stream
	live   *core.Live
}

// setUp does everything between process start and the first report
// being due: capture, ensemble fit, report materialisation and wire
// encoding, NewLive, Start. A nil p is captured and fitted here.
func setUp(p *pool, w workload, seed int64, rows int) (*instance, error) {
	if p == nil {
		var err error
		if p, err = buildPool(); err != nil {
			return nil, err
		}
	}
	s, err := materialise(p, w, seed, rows)
	if err != nil {
		return nil, err
	}
	in := &instance{pool: p, stream: s}
	return in, in.restart(w, nil)
}

// restart gives in a new, started pipeline over the same pool and
// stream. adjust, if not nil, edits the workload's LiveConfig first.
// The caller has stopped the old pipeline.
func (in *instance) restart(w workload, adjust func(*core.LiveConfig)) error {
	cfg := liveConfig(w, in.pool)
	if adjust != nil {
		adjust(&cfg)
	}
	live, err := core.NewLive(cfg)
	if err != nil {
		return err
	}
	live.Start()
	in.live = live
	return nil
}

// send hands row to the pipeline the way a collector would: decode the
// wire bytes, then HandleReport.
func (in *instance) send(row int) {
	rep, err := telemetry.DecodeReport(in.stream.bytes(row))
	if err != nil {
		// The harness encoded these bytes itself.
		panic(fmt.Sprintf("row %d does not decode: %v", row, err))
	}
	in.live.HandleReport(rep)
}

// ledger accounts for every row sent.
type ledger struct {
	Sent, Decided, Shed, Abandoned, Dropped int
}

// failed is every row that never became a decision, whatever the reason.
func (l ledger) failed() int { return l.Sent - l.Decided }

// passResult is what one paced pass over a pipeline leaves behind.
type passResult struct {
	ledger
	t0      time.Time
	perTick int
	late    []time.Duration // per row
	ages    []float64       // per row, ms from due to Decision.At; +Inf if undecided
	right   int             // decisions whose smoothed label matches the send log's truth

	cpuAt    []time.Duration     // process CPU at the start of each second, and at the end
	mem      [2]runtime.MemStats // at the start and end of the measured region
	heapBase uint64              // HeapAlloc after a forced GC, before the first row
	heapEnd  uint64              // HeapAlloc after the drain and a forced GC

	problems []string // failed correctness checks, by name
}

// runPass drives in.live with the first (warm+secs) seconds of
// in.stream at w.rate, waits for the pipeline to drain, stops it and
// joins its decisions to the send log. The measured region is the last
// secs seconds. sampler, if not nil, runs alongside.
func runPass(w workload, in *instance, warm, secs int, sampler *sampler) (*passResult, error) {
	perTick := w.rate / int(time.Second/tick)
	rows := (warm + secs) * w.rate
	if rows > in.stream.rows() {
		return nil, fmt.Errorf("stream has %d rows, pass needs %d", in.stream.rows(), rows)
	}
	r := &passResult{
		perTick: perTick,
		late:    make([]time.Duration, rows),
		ages:    make([]float64, rows),
		cpuAt:   make([]time.Duration, warm+secs+1),
	}
	r.Sent = rows
	live, s := in.live, in.stream

	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	r.heapBase = m.HeapAlloc

	var cpuErr error
	everySecond := func(sec int) {
		if r.cpuAt[sec], cpuErr = processCPU(); cpuErr != nil {
			return
		}
		if sec == warm {
			runtime.ReadMemStats(&r.mem[0])
		}
	}
	r.t0 = time.Now().Add(5 * tick)
	if sampler != nil {
		sampler.start(live)
	}
	pace(r.t0, perTick, rows, r.late, in.send, everySecond)
	time.Sleep(time.Until(r.t0.Add(time.Duration(warm+secs) * time.Second)))
	everySecond(warm + secs)
	runtime.ReadMemStats(&r.mem[1])
	if cpuErr != nil {
		return nil, cpuErr
	}

	lastSend := time.Now()
	for live.DecisionCount()+int(live.Shed.Load()+live.Abandoned.Load()) < rows &&
		time.Since(lastSend) < drainTimeout {
		time.Sleep(tick)
	}
	if sampler != nil {
		sampler.stop()
	}
	runtime.GC()
	runtime.ReadMemStats(&m)
	r.heapEnd = m.HeapAlloc
	// Whatever of the harness was counted in heapBase — stream, pool —
	// is counted here too, so that it cancels: when the compiler saw the
	// pool dead by now, the metric read 4.3 MiB low.
	runtime.KeepAlive(in)

	live.Stop()
	r.Shed = int(live.Shed.Load())
	r.Abandoned = int(live.Abandoned.Load())
	r.Dropped = int(live.MetricsSnapshot().Counters["intddos_ingest_dropped_total"])
	decs := live.Decisions()
	r.Decided = len(decs)
	r.join(s, decs)

	if got := live.DB.PredictionCount(); got != len(decs) {
		r.problems = append(r.problems, fmt.Sprintf("prediction-log: %d predictions logged for %d decisions", got, len(decs)))
	}
	if r.Sent != r.Decided+r.Shed+r.Abandoned+r.Dropped {
		r.problems = append(r.problems, fmt.Sprintf("ledger: sent %d != decided %d + shed %d + abandoned %d + ingest-dropped %d",
			r.Sent, r.Decided, r.Shed, r.Abandoned, r.Dropped))
	}
	return r, nil
}

// join matches each decision to the row that caused it on (Key, Seq),
// fills ages and right, and checks that every flow's decisions come in
// Seq order with no gaps beyond the rows the ledger counts as failed.
func (r *passResult) join(s *stream, decs []core.Decision) {
	for i := range r.ages {
		r.ages[i] = math.Inf(1)
	}
	flowOfKey := make(map[flow.Key]int32, len(s.keys))
	for f, k := range s.keys {
		flowOfKey[k] = int32(f)
	}
	next := make([]int32, len(s.keys)) // flow → the Seq its next decision should carry
	var unknown, repeated, disordered, gaps int
	for _, d := range decs {
		f, ok := flowOfKey[d.Key]
		if !ok || d.Seq < 0 || int32(d.Seq) >= s.flowStart[f+1]-s.flowStart[f] {
			unknown++
			continue
		}
		row := int(s.rowAt[s.flowStart[f]+int32(d.Seq)])
		if row >= len(r.ages) {
			unknown++
			continue
		}
		if !math.IsInf(r.ages[row], 1) {
			repeated++
			continue
		}
		if int32(d.Seq) < next[f] {
			disordered++
		} else {
			gaps += d.Seq - int(next[f])
			next[f] = int32(d.Seq) + 1
		}
		r.ages[row] = float64(int64(d.At)-dueUnixNano(r.t0, r.perTick, row)) / 1e6
		if (d.Label == 1) == s.truth[row] {
			r.right++
		}
	}
	// Rows sent after a flow's last decision are gaps too.
	sentOf := make([]int32, len(s.keys))
	for _, f := range s.flowOf[:len(r.ages)] {
		sentOf[f]++
	}
	for f, n := range sentOf {
		gaps += int(n - next[f])
	}
	if unknown+repeated > 0 {
		r.problems = append(r.problems, fmt.Sprintf("join: %d decisions match no row sent, %d rows were decided twice", unknown, repeated))
	}
	if disordered > 0 {
		r.problems = append(r.problems, fmt.Sprintf("seq-order: %d decisions came after a later Seq of their flow", disordered))
	}
	if want := r.Shed + r.Abandoned + r.Dropped; gaps != want {
		r.problems = append(r.problems, fmt.Sprintf("seq-gaps: %d per-flow Seq gaps, %d rows shed, abandoned or dropped", gaps, want))
	}
}

// measuredRows is the slice of a per-row series that falls in the
// measured region, given how many seconds of warm-up precede it.
func measuredRows[T any](xs []T, w workload, warm int) []T { return xs[warm*w.rate:] }

// endToEnd reduces a pass to the end-to-end metrics of BENCHMARK.json
// (all but setup_s, which the caller measures).
func (r *passResult) endToEnd(w workload, warm int) map[string]float64 {
	ages := measuredRows(r.ages, w, warm)
	rows := float64(len(ages))
	// CPU per row is the median over the measured region's seconds, for
	// the reason the age percentiles are: a second in which the
	// hypervisor or a collection took the core moves one sample.
	var cpu []float64
	for sec := warm; sec+1 < len(r.cpuAt); sec++ {
		cpu = append(cpu, float64((r.cpuAt[sec+1]-r.cpuAt[sec]).Microseconds())/float64(w.rate))
	}
	return map[string]float64{
		"age_p50_ms":          windowedQuantile(ages, w.rate, 0.50),
		"age_p90_ms":          windowedQuantile(ages, w.rate, 0.90),
		"cpu_us_per_row":      median(cpu),
		"allocs_per_row":      float64(r.mem[1].Mallocs-r.mem[0].Mallocs) / rows,
		"alloc_bytes_per_row": float64(r.mem[1].TotalAlloc-r.mem[0].TotalAlloc) / rows,
		"heap_retained_mb":    (float64(r.heapEnd) - float64(r.heapBase)) / (1 << 20),
		"accuracy":            float64(r.right) / math.Max(1, float64(r.Decided)),
	}
}

// lateness reports how late the generator ran over the measured region:
// the 99th percentile over all its rows, in ms, and the median over its
// 1 s windows of the share of the window's rows handed over more than
// lateLimit after they were due. The share is windowed for the reason
// the ages are: a stall of the machine makes one window late, a
// generator that cannot keep its schedule makes them all late.
func (r *passResult) lateness(w workload, warm int) (p99ms, share float64) {
	late := measuredRows(r.late, w, warm)
	ms := make([]float64, len(late))
	for i, d := range late {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	var shares []float64
	for lo := 0; lo+w.rate <= len(late); lo += w.rate {
		over := 0
		for _, d := range late[lo : lo+w.rate] {
			if d > lateLimit {
				over++
			}
		}
		shares = append(shares, float64(over)/float64(w.rate))
	}
	return quantile(ms, 0.99), median(shares)
}
