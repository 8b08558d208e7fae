// Benchmarks regenerating each of the paper's tables and figures,
// plus the design-choice ablations from DESIGN.md §6 and
// micro-benchmarks of the hot paths. Accuracy-style outcomes are
// attached to the benchmark output via b.ReportMetric, so a bench run
// doubles as a shape check.
package intddos

import (
	"encoding/json"
	"fmt"
	"net/netip"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/amlight/intddos/internal/experiment"
	"github.com/amlight/intddos/internal/flow"
	"github.com/amlight/intddos/internal/ml"
	"github.com/amlight/intddos/internal/netsim"
	"github.com/amlight/intddos/internal/telemetry"
	"github.com/amlight/intddos/internal/traffic"
)

// Shared fixtures: collected once, reused across benchmarks.
var (
	benchOnce    sync.Once
	benchCapture *Capture
	benchLive    *LiveResult
	benchLiveErr error
)

func benchSetup(b *testing.B) *Capture {
	b.Helper()
	benchOnce.Do(func() {
		c, err := Collect(DataConfig{Scale: ScaleTiny, Seed: 42})
		if err != nil {
			benchLiveErr = err
			return
		}
		benchCapture = c
	})
	if benchCapture == nil {
		b.Fatal(benchLiveErr)
	}
	return benchCapture
}

var liveOnce sync.Once

func benchLiveResult(b *testing.B) *LiveResult {
	b.Helper()
	liveOnce.Do(func() {
		benchLive, benchLiveErr = RunTableVI(LiveConfig{
			Scale: ScaleTiny, Seed: 42, PacketsPerType: 250,
		})
	})
	if benchLive == nil {
		b.Fatal(benchLiveErr)
	}
	return benchLive
}

// BenchmarkTableI_WorkloadGeneration measures building the full
// Table I workload (benign + 11 attack episodes).
func BenchmarkTableI_WorkloadGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w := BuildWorkload(ScaleTiny, int64(i))
		if len(w.Records) == 0 {
			b.Fatal("empty workload")
		}
	}
}

// BenchmarkTableII_FeatureExtraction measures the Data Processor's
// per-observation feature pipeline over the capture's INT feed.
func BenchmarkTableII_FeatureExtraction(b *testing.B) {
	c := benchSetup(b)
	// Rebuild PacketInfo-like observations from the dataset rows is
	// lossy; instead re-run the flow table over synthetic packets.
	w := c.Workload
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl := flow.NewTable()
		set := flow.INTFeatures()
		buf := make([]float64, 0, len(set))
		for r := range w.Records {
			rec := &w.Records[r]
			pi := flow.PacketInfo{
				Key: flow.Key{Src: rec.Src, Dst: rec.Dst, SrcPort: rec.SrcPort,
					DstPort: rec.DstPort, Proto: rec.Proto},
				Length: int(rec.Length), At: rec.At, HasTelemetry: true,
				IngressTS: netsim.Wrap32(rec.At),
			}
			st, _ := tbl.Observe(pi)
			buf = st.Features(buf[:0], set)
		}
	}
	b.ReportMetric(float64(len(w.Records)), "packets/op")
}

// benchTrainEval is the common Table III/IV model benchmark body.
func benchTrainEval(b *testing.B, data *ml.Dataset, specIdx int) {
	c := benchSetup(b)
	_ = c
	spec := StageOneModels()[specIdx]
	train, test := data.Split(0.1, 42)
	b.ResetTimer()
	var last EvalResult
	for i := 0; i < b.N; i++ {
		res, err := TrainEval(spec, train, test, 42)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Scores.Accuracy, "accuracy")
	b.ReportMetric(last.Scores.F1, "F1")
}

// Table III: one bench per model family on the INT feed, plus RF on
// sFlow for the cross-source comparison.
func BenchmarkTableIII_INT_RF(b *testing.B)  { benchTrainEval(b, benchSetup(b).INT, 0) }
func BenchmarkTableIII_INT_GNB(b *testing.B) { benchTrainEval(b, benchSetup(b).INT, 1) }
func BenchmarkTableIII_INT_KNN(b *testing.B) { benchTrainEval(b, benchSetup(b).INT, 2) }
func BenchmarkTableIII_INT_NN(b *testing.B)  { benchTrainEval(b, benchSetup(b).INT, 3) }
func BenchmarkTableIII_SFlow_RF(b *testing.B) {
	benchTrainEval(b, benchSetup(b).SFlow, 0)
}

// BenchmarkTableIV_ZeroDaySplit measures the June-11 holdout
// experiment end to end for the RF model.
func BenchmarkTableIV_ZeroDaySplit(b *testing.B) {
	c := benchSetup(b)
	cut := c.DayCut(5)
	train, test := experiment.SplitAtTime(c.INT, cut)
	spec := StageOneModels()[0]
	b.ResetTimer()
	var last EvalResult
	for i := 0; i < b.N; i++ {
		res, err := TrainEval(spec, train, test, 42)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Scores.Accuracy, "accuracy")
}

// BenchmarkTableV_FeatureImportance measures the per-model importance
// computation (RF Gini + permutation for the rest).
func BenchmarkTableV_FeatureImportance(b *testing.B) {
	c := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := RunTableV(c, 42)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 4 {
			b.Fatal("bad row count")
		}
	}
}

// BenchmarkTableVI_LiveDetection measures the full stage-2
// experiment: ensemble pre-training plus five live replays through
// the mechanism.
func BenchmarkTableVI_LiveDetection(b *testing.B) {
	var acc float64
	for i := 0; i < b.N; i++ {
		res, err := RunTableVI(LiveConfig{Scale: ScaleTiny, Seed: 42, PacketsPerType: 250})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range res.Rows {
			if r.Type == SlowLoris {
				acc = r.Accuracy
			}
		}
	}
	b.ReportMetric(acc, "slowloris-accuracy")
}

// BenchmarkFigure3_4_ConfusionMatrices measures the Table III run
// that yields the RF confusion matrices.
func BenchmarkFigure3_4_ConfusionMatrices(b *testing.B) {
	c := benchSetup(b)
	b.ResetTimer()
	var m ml.ConfusionMatrix
	for i := 0; i < b.N; i++ {
		res, err := RunTableIII(c, 42)
		if err != nil {
			b.Fatal(err)
		}
		m = res.RFConfusionINT
	}
	b.ReportMetric(m.Accuracy(), "rf-int-accuracy")
}

// BenchmarkFigure5_Timeline measures the timeline sweep (train RF per
// source, predict every observation, bucketize).
func BenchmarkFigure5_Timeline(b *testing.B) {
	c := benchSetup(b)
	b.ResetTimer()
	var fig *Figure5
	for i := 0; i < b.N; i++ {
		var err error
		fig, err = RunFigure5(c, 240, 42)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(fig.CoverageOfType(fig.INT, SlowLoris)), "int-loris-rows")
	b.ReportMetric(float64(fig.CoverageOfType(fig.SFlow, SlowLoris)), "sflow-loris-rows")
}

// BenchmarkFigure7_DecisionStrips measures the per-flow decision
// post-processing behind Figure 7.
func BenchmarkFigure7_DecisionStrips(b *testing.B) {
	live := benchLiveResult(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if FormatFigure7(live, SlowLoris, 100) == "" || FormatFigure7(live, Benign, 100) == "" {
			b.Fatal("empty strip")
		}
	}
}

// --- Ablations (DESIGN.md §6) ---

// BenchmarkAblation_WrapAwareIAT contrasts wrap-aware and naive
// inter-arrival computation across a wrap boundary, reporting the
// error rate the naive version incurs.
func BenchmarkAblation_WrapAwareIAT(b *testing.B) {
	for _, mode := range []struct {
		name  string
		naive bool
	}{{"wrap-aware", false}, {"naive", true}} {
		b.Run(mode.name, func(b *testing.B) {
			flow.NaiveIAT = mode.naive
			defer func() { flow.NaiveIAT = false }()
			wrong := 0
			total := 0
			for i := 0; i < b.N; i++ {
				tbl := flow.NewTable()
				k := flow.Key{Proto: netsim.TCP, SrcPort: 1}
				// Packets spaced 1 s apart straddling wrap boundaries.
				for p := 0; p < 20; p++ {
					at := netsim.Time(p) * netsim.Second
					st, _ := tbl.Observe(flow.PacketInfo{
						Key: k, Length: 100, At: at, HasTelemetry: true,
						IngressTS: netsim.Wrap32(at),
					})
					if p > 0 {
						total++
						if st.IAT.Last() != float64(netsim.Second) {
							wrong++
						}
					}
				}
			}
			b.ReportMetric(float64(wrong)/float64(total), "iat-error-rate")
		})
	}
}

// BenchmarkAblation_EnsembleVsSingle contrasts the 2-of-3 ensemble
// against each single model on zero-day SlowLoris rows.
func BenchmarkAblation_EnsembleVsSingle(b *testing.B) {
	c := benchSetup(b)
	trainAll := experiment.DropType(c.INT, SlowLoris)
	base := trainAll.Subsample(20000, 42)
	var loris []int
	for i := range c.INT.X {
		if c.INT.Meta[i].Type == SlowLoris {
			loris = append(loris, i)
		}
	}
	scaler := &ml.StandardScaler{}
	Z, err := scaler.FitTransform(base.X)
	if err != nil {
		b.Fatal(err)
	}
	var models []ml.Classifier
	for _, spec := range StageTwoModels() {
		m := spec.New(42)
		if err := m.Fit(Z, base.Y); err != nil {
			b.Fatal(err)
		}
		models = append(models, m)
	}
	score := func(vote func(x []float64) int) float64 {
		hit := 0
		for _, idx := range loris {
			if vote(scaler.TransformRow(nil, c.INT.X[idx])) == 1 {
				hit++
			}
		}
		return float64(hit) / float64(len(loris))
	}
	b.Run("ensemble-2of3", func(b *testing.B) {
		var acc float64
		for i := 0; i < b.N; i++ {
			acc = score(func(x []float64) int {
				ones := 0
				for _, m := range models {
					ones += m.Predict(x)
				}
				if ones >= 2 {
					return 1
				}
				return 0
			})
		}
		b.ReportMetric(acc, "loris-detection")
	})
	for _, m := range models {
		m := m
		b.Run("single-"+m.Name(), func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				acc = score(m.Predict)
			}
			b.ReportMetric(acc, "loris-detection")
		})
	}
}

// BenchmarkAblation_SFlowRateSweep measures detection-relevant sample
// coverage across sampling rates (1/64 … 1/16384), the paper's core
// sampling-vs-coverage trade-off.
func BenchmarkAblation_SFlowRateSweep(b *testing.B) {
	for _, rate := range []int{64, 256, 1024, 4096, 16384} {
		b.Run(benchName(rate), func(b *testing.B) {
			var lorisRows, attackRows int
			for i := 0; i < b.N; i++ {
				c, err := Collect(DataConfig{Scale: ScaleTiny, Seed: 42, SFlowRate: rate})
				if err != nil {
					b.Fatal(err)
				}
				lorisRows, attackRows = 0, 0
				for r := range c.SFlow.X {
					if c.SFlow.Y[r] == 1 {
						attackRows++
						if c.SFlow.Meta[r].Type == SlowLoris {
							lorisRows++
						}
					}
				}
			}
			b.ReportMetric(float64(attackRows), "attack-samples")
			b.ReportMetric(float64(lorisRows), "loris-samples")
		})
	}
}

// BenchmarkAblation_INTSamplingOverhead contrasts full per-packet INT
// against PINT-style probabilistic instrumentation, reporting the
// telemetry byte overhead each adds to the wire.
func BenchmarkAblation_INTSamplingOverhead(b *testing.B) {
	w := BuildWorkload(ScaleTiny, 42)
	for _, mode := range []struct {
		name    string
		sampler telemetry.Sampler
	}{
		{"every-packet", nil},
		{"pint-p0.25", telemetry.NewProbabilistic(0.25, 42)},
		{"pint-p0.05", telemetry.NewProbabilistic(0.05, 42)},
	} {
		b.Run(mode.name, func(b *testing.B) {
			var overhead int64
			var reports int
			for i := 0; i < b.N; i++ {
				tb := NewTestbed(TestbedConfig{INTSampler: mode.sampler})
				rp := tb.Replayer(w.Records)
				rp.Start()
				tb.Run()
				overhead = tb.INTAgent.OverheadB
				reports = tb.INTAgent.Reports
			}
			b.ReportMetric(float64(overhead), "telemetry-bytes")
			b.ReportMetric(float64(reports), "reports")
		})
	}
}

// BenchmarkAblation_FlowEviction contrasts flow-table memory with and
// without idle eviction under spoofed-flood flow churn.
func BenchmarkAblation_FlowEviction(b *testing.B) {
	w := BuildWorkload(ScaleTiny, 42)
	for _, mode := range []struct {
		name    string
		timeout netsim.Time
	}{{"no-eviction", 0}, {"idle-50ms", 50 * netsim.Millisecond}} {
		b.Run(mode.name, func(b *testing.B) {
			var peak int
			for i := 0; i < b.N; i++ {
				tbl := flow.NewTable()
				tbl.IdleTimeout = mode.timeout
				lastSweep := netsim.Time(0)
				peak = 0
				for r := range w.Records {
					rec := &w.Records[r]
					tbl.Observe(flow.PacketInfo{
						Key: flow.Key{Src: rec.Src, Dst: rec.Dst, SrcPort: rec.SrcPort,
							DstPort: rec.DstPort, Proto: rec.Proto},
						Length: int(rec.Length), At: rec.At,
					})
					if rec.At-lastSweep > 20*netsim.Millisecond {
						tbl.Sweep(rec.At)
						lastSweep = rec.At
					}
					if tbl.Len() > peak {
						peak = tbl.Len()
					}
				}
			}
			b.ReportMetric(float64(peak), "peak-flows")
		})
	}
}

// BenchmarkAblation_EmbedVsPostcard contrasts INT-MD embedding with
// INT-XD postcard export: wire overhead on data packets versus report
// volume at the collector.
func BenchmarkAblation_EmbedVsPostcard(b *testing.B) {
	w := BuildWorkload(ScaleTiny, 42)
	for _, mode := range []struct {
		name string
		mode telemetry.Mode
	}{{"embed-intmd", telemetry.ModeEmbed}, {"postcard-intxd", telemetry.ModePostcard}} {
		b.Run(mode.name, func(b *testing.B) {
			var overhead int64
			var reports int
			for i := 0; i < b.N; i++ {
				tb := NewTestbed(TestbedConfig{INTMode: mode.mode})
				rp := tb.Replayer(w.Records)
				rp.Start()
				tb.Run()
				overhead = tb.INTAgent.OverheadB
				reports = tb.INTAgent.Reports
			}
			b.ReportMetric(float64(overhead), "in-packet-bytes")
			b.ReportMetric(float64(reports), "reports")
		})
	}
}

// BenchmarkStorage_ReportLog measures archival cost per report — the
// §V storage discussion (AmLight telemetry is ~30 GB/minute at 80 M
// packets/minute, i.e. ~375 B/packet end to end) — for the full and
// the deployed three-field instruction sets.
func BenchmarkStorage_ReportLog(b *testing.B) {
	reports := make([]*telemetry.Report, 0, 1000)
	tb := NewTestbed(TestbedConfig{})
	tb.Collector.OnReport = func(r *telemetry.Report, _ netsim.Time) {
		if len(reports) < cap(reports) {
			reports = append(reports, r)
		}
	}
	w := BuildWorkload(ScaleTiny, 42)
	rp := tb.Replayer(w.Records)
	rp.MaxPackets = 1200
	rp.Start()
	tb.Run()
	if len(reports) == 0 {
		b.Fatal("no reports")
	}
	for _, mode := range []struct {
		name string
		inst telemetry.Instruction
	}{
		{"full-instructions", telemetry.InstAll},
		{"deployed-3-fields", telemetry.InstQueue | telemetry.InstIngressTS | telemetry.InstEgressTS},
	} {
		b.Run(mode.name, func(b *testing.B) {
			var bpr float64
			for i := 0; i < b.N; i++ {
				var sink countingWriter
				l, err := telemetry.NewReportLog(&sink, mode.inst)
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range reports {
					if err := l.Append(r); err != nil {
						b.Fatal(err)
					}
				}
				l.Flush()
				bpr = l.BytesPerReport()
			}
			b.ReportMetric(bpr, "bytes/report")
		})
	}
}

// countingWriter discards bytes while counting them.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) { w.n += int64(len(p)); return len(p), nil }

// --- Micro-benchmarks of hot paths ---

// BenchmarkINTReportEncodeDecode measures the sink→collector wire
// round trip.
func BenchmarkINTReportEncodeDecode(b *testing.B) {
	r := &telemetry.Report{
		Seq: 1, Src: traffic.ServerAddr, Dst: traffic.ServerAddr,
		SrcPort: 1, DstPort: 80, Proto: netsim.TCP, Length: 1500,
		Hops: []telemetry.HopMetadata{
			{SwitchID: 1, IngressTS: 100, EgressTS: 200, QueueDepth: 5},
			{SwitchID: 1, IngressTS: 300, EgressTS: 400, QueueDepth: 2},
		},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := r.Encode(telemetry.InstAll)
		if _, err := telemetry.DecodeReport(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFlowTableObserve measures single-observation flow-table
// update cost.
func BenchmarkFlowTableObserve(b *testing.B) {
	tbl := flow.NewTable()
	pi := flow.PacketInfo{
		Key:    flow.Key{Src: traffic.ServerAddr, Dst: traffic.ServerAddr, SrcPort: 1, DstPort: 80, Proto: netsim.TCP},
		Length: 1500, HasTelemetry: true,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pi.At = netsim.Time(i)
		pi.IngressTS = netsim.Wrap32(pi.At)
		tbl.Observe(pi)
	}
}

// BenchmarkMechanismIngest measures the end-to-end per-report cost of
// the automated mechanism's ingest path (flow table + DB snapshot).
func BenchmarkMechanismIngest(b *testing.B) {
	c := benchSetup(b)
	spec := StageOneModels()[0]
	train, _ := c.INT.Split(0.1, 42)
	model, scaler, err := FitModel(spec, train.Subsample(5000, 42), 42)
	if err != nil {
		b.Fatal(err)
	}
	tb := NewTestbed(TestbedConfig{})
	mech, err := NewMechanism(tb, MechanismConfig{
		Models: []Classifier{model}, Scaler: scaler,
	})
	if err != nil {
		b.Fatal(err)
	}
	pi := flow.PacketInfo{
		Key:    flow.Key{Src: traffic.ServerAddr, Dst: traffic.ServerAddr, SrcPort: 9, DstPort: 80, Proto: netsim.TCP},
		Length: 777, HasTelemetry: true,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pi.At = netsim.Time(i)
		mech.Observe(pi)
	}
}

// benchName formats a sampling rate sub-benchmark name.
func benchName(rate int) string {
	switch rate {
	case 64:
		return "rate-1in64"
	case 256:
		return "rate-1in256"
	case 1024:
		return "rate-1in1024"
	case 4096:
		return "rate-1in4096"
	default:
		return "rate-1in16384"
	}
}

// ---------------------------------------------------------------------------
// Checkpoint benchmark: snapshot capture/encode/write and restore cost
// as the live pipeline's durable state grows.

type ckptBenchResult struct {
	Flows         int     `json:"flows"`
	Bytes         int     `json:"bytes"`
	WriteNsPerOp  float64 `json:"write_ns_per_op"`
	WriteMBPerSec float64 `json:"write_mb_per_sec"`
	BarrierNs     int64   `json:"barrier_ns"`
	RestoreNs     float64 `json:"restore_ns"`
	RestoredFlows int     `json:"restored_flows"`
}

var (
	ckptBenchMu      sync.Mutex
	ckptBenchResults []ckptBenchResult
)

// BenchmarkCheckpoint measures WriteCheckpoint (barrier + export +
// encode + atomic write) and the cold-boot restore path at 10k, 100k,
// and 1M resident flows. The journal is drained first, so the
// snapshot reflects a steady-state pipeline (tables + store + windows)
// rather than a backlog. Results are also written as JSON when
// BENCH_CHECKPOINT_OUT names a file (`make bench-checkpoint`).
func BenchmarkCheckpoint(b *testing.B) {
	c := benchSetup(b)
	train, _ := c.INT.Split(0.1, 42)
	model, scaler, err := FitModel(StageTwoModels()[1], train.Subsample(10000, 42), 42)
	if err != nil {
		b.Fatal(err)
	}
	for _, nFlows := range []int{10_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("flows-%d", nFlows), func(b *testing.B) {
			dir := b.TempDir()
			mkCfg := func() LiveRuntimeConfig {
				return LiveRuntimeConfig{
					Models: []Classifier{model}, Scaler: scaler,
					Shards:        4,
					CheckpointDir: dir, CheckpointKeep: 1,
				}
			}
			live, err := NewLiveRuntime(mkCfg())
			if err != nil {
				b.Fatal(err)
			}
			pi := flow.PacketInfo{
				Key:    flow.Key{Dst: traffic.ServerAddr, DstPort: 80, Proto: netsim.TCP},
				Length: 777, HasTelemetry: true,
			}
			for i := 0; i < nFlows; i++ {
				pi.Key.Src = netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)})
				pi.Key.SrcPort = uint16(i%32768 + 1024)
				live.Ingest(pi)
			}
			// Drain the journal: a running pipeline hands every row off as
			// it is journaled, so steady state is an empty tail.
			for s := 0; s < 4; s++ {
				_, cur := live.DB.PollShard(s, 0, 0)
				live.DB.TrimShard(s, cur)
			}
			// Reclaim the ingest garbage (drained journal entries,
			// append-growth) before timing: the write path's large
			// copies then land in warm recycled spans instead of
			// faulting in fresh pages, which is what a long-running
			// pipeline's heap looks like.
			runtime.GC()
			// One untimed warm-up checkpoint: the production pipeline
			// checkpoints periodically, and from the second write on
			// the capture reuses the previous snapshot's arrays and
			// the encoder reuses its section buffers. Steady state —
			// not the first-ever checkpoint — is what the pause and
			// throughput targets are about.
			if _, _, err := live.WriteCheckpoint(); err != nil {
				b.Fatal(err)
			}

			var size int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, n, err := live.WriteCheckpoint()
				if err != nil {
					b.Fatal(err)
				}
				size = n
			}
			b.StopTimer()
			writeNs := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			barrierNs := live.LastCheckpointBarrier().Nanoseconds()

			// A real restore runs in a freshly booted process with an
			// empty heap. Drop the writer pipeline (tables, store,
			// capture scratch) before timing, or the restore's
			// allocations pay for GC marking the old pipeline's
			// gigabytes too.
			live = nil
			runtime.GC()

			restoreStart := time.Now()
			restoredLive, err := NewLiveRuntime(mkCfg())
			if err != nil {
				b.Fatal(err)
			}
			restoreNs := float64(time.Since(restoreStart).Nanoseconds())
			sum := restoredLive.Restore()
			if sum == nil || sum.Flows != nFlows {
				b.Fatalf("restore came back with %+v, want %d flows", sum, nFlows)
			}

			res := ckptBenchResult{
				Flows:         nFlows,
				Bytes:         size,
				WriteNsPerOp:  writeNs,
				WriteMBPerSec: float64(size) / (writeNs / 1e9) / (1 << 20),
				BarrierNs:     barrierNs,
				RestoreNs:     restoreNs,
				RestoredFlows: sum.Flows,
			}
			b.ReportMetric(float64(size), "bytes")
			b.ReportMetric(res.WriteMBPerSec, "MB/s")
			b.ReportMetric(float64(barrierNs)/1e6, "barrier-ms")
			b.ReportMetric(restoreNs/1e6, "restore-ms")

			ckptBenchMu.Lock()
			replaced := false
			for i := range ckptBenchResults {
				if ckptBenchResults[i].Flows == res.Flows {
					ckptBenchResults[i] = res
					replaced = true
					break
				}
			}
			if !replaced {
				ckptBenchResults = append(ckptBenchResults, res)
			}
			writeCkptBench(b, ckptBenchResults)
			ckptBenchMu.Unlock()
		})
	}
}

// writeCkptBench rewrites the accumulated checkpoint sweep as JSON
// when BENCH_CHECKPOINT_OUT names a file (caller holds ckptBenchMu).
func writeCkptBench(b *testing.B, results []ckptBenchResult) {
	path := os.Getenv("BENCH_CHECKPOINT_OUT")
	if path == "" {
		return
	}
	out := struct {
		Bench   string            `json:"bench"`
		When    string            `json:"when"`
		Results []ckptBenchResult `json:"results"`
	}{
		Bench:   "BenchmarkCheckpoint",
		When:    time.Now().UTC().Format(time.RFC3339),
		Results: results,
	}
	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}
