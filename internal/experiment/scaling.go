package experiment

import (
	"fmt"
	"sort"
	"strings"

	"github.com/amlight/intddos/internal/core"
	"github.com/amlight/intddos/internal/ml"
	"github.com/amlight/intddos/internal/netsim"
	"github.com/amlight/intddos/internal/testbed"
	"github.com/amlight/intddos/internal/trace"
	"github.com/amlight/intddos/internal/traffic"
)

// ScalingConfig parameterizes the processing-capability study the
// paper's §V motivates: how the single-server prediction pipeline
// behaves as offered load approaches and passes its service rate. The
// study is fixed: scalingPackets packets a point, a scalingServiceTime
// pipeline (100 predictions/s, Python-like) whose queue holds
// scalingQueueCap records so overload sheds load instead of queueing
// without bound, swept over offered loads bracketing its service rate.
type ScalingConfig struct {
	Scale string
	Seed  int64
}

const (
	scalingPackets     = 2000
	scalingServiceTime = 10 * netsim.Millisecond
	scalingQueueCap    = 1000
)

// scalingSweep is the offered load of each sweep point, in multiples of
// the pipeline's service rate.
var scalingSweep = []float64{0.25, 0.5, 0.8, 1, 2, 5, 20}

// ScalingPoint is one sweep measurement.
type ScalingPoint struct {
	OfferedPPS    float64
	Packets       int
	Decisions     int
	Dropped       int
	MaxBacklog    int
	AvgLatency    netsim.Time
	P99Latency    netsim.Time
	MaxLatency    netsim.Time
	ThroughputPPS float64 // decisions per virtual second of the run
}

// RunScalingStudy sweeps offered load through the live mechanism and
// reports latency, backlog, and shed load per point.
func RunScalingStudy(cfg ScalingConfig) ([]ScalingPoint, error) {
	// One trained model suffices: the study measures the pipeline,
	// not the classifier.
	capture, err := Collect(DataConfig{Scale: cfg.Scale, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	train, _ := capture.INT.Split(0.1, cfg.Seed)
	model, scaler, err := FitModel(StageOneModels()[0], train.Subsample(20000, cfg.Seed), cfg.Seed)
	if err != nil {
		return nil, err
	}

	// The replayed segment: a benign slice re-paced uniformly to the
	// target rate so every sweep point sees identical packet content.
	src := recordsOfType(capture.Workload, traffic.Benign, scalingPackets, false)
	if len(src) == 0 {
		return nil, fmt.Errorf("experiment: no benign records for scaling study")
	}

	service := 1.0 / scalingServiceTime.Seconds()
	var out []ScalingPoint
	for _, load := range scalingSweep {
		pps := load * service
		recs := repace(src, pps)
		pt, err := runScalingPoint(recs, pps, model, scaler)
		if err != nil {
			return nil, err
		}
		out = append(out, pt)
	}
	return out, nil
}

// repace rewrites record timestamps to a uniform inter-packet gap
// matching the offered rate.
func repace(recs []trace.Record, pps float64) []trace.Record {
	gap := netsim.Time(float64(netsim.Second) / pps)
	out := make([]trace.Record, len(recs))
	copy(out, recs)
	for i := range out {
		out[i].At = netsim.Time(i) * gap
	}
	return out
}

// runScalingPoint replays one paced stream through a fresh mechanism.
func runScalingPoint(recs []trace.Record, pps float64, model ml.Classifier, scaler *ml.StandardScaler) (ScalingPoint, error) {
	tb := testbed.New(testbed.Config{})
	mech, err := core.New(tb.Eng, core.Config{
		Models:      []ml.Classifier{model},
		Scaler:      scaler,
		ServiceTime: scalingServiceTime,
		QueueCap:    scalingQueueCap,
	})
	if err != nil {
		return ScalingPoint{}, err
	}
	tb.Collector.OnReport = mech.HandleReport
	mech.Start()
	rp := tb.Replayer(recs)
	rp.Start()

	// Run until the queue drains or a generous deadline passes.
	replayDur := netsim.Time(float64(len(recs)) * float64(netsim.Second) / pps)
	deadline := replayDur + netsim.Time(len(recs))*scalingServiceTime + 5*netsim.Second
	start := tb.Eng.Now()
	for tb.Eng.Now() < deadline && len(mech.Decisions)+mech.DroppedPolls < len(recs) {
		tb.RunUntil(tb.Eng.Now() + 250*netsim.Millisecond)
	}
	elapsed := tb.Eng.Now() - start

	pt := ScalingPoint{
		OfferedPPS: pps,
		Packets:    len(recs),
		Decisions:  len(mech.Decisions),
		Dropped:    mech.DroppedPolls,
		MaxBacklog: mech.MaxQueue,
	}
	if len(mech.Decisions) > 0 {
		lats := make([]netsim.Time, 0, len(mech.Decisions))
		var sum netsim.Time
		for _, d := range mech.Decisions {
			lats = append(lats, d.Latency)
			sum += d.Latency
			if d.Latency > pt.MaxLatency {
				pt.MaxLatency = d.Latency
			}
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		pt.AvgLatency = sum / netsim.Time(len(lats))
		pt.P99Latency = lats[len(lats)*99/100]
	}
	if elapsed > 0 {
		pt.ThroughputPPS = float64(pt.Decisions) / elapsed.Seconds()
	}
	return pt, nil
}

// FormatScaling renders the sweep like a scalability table.
func FormatScaling(points []ScalingPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "SCALING STUDY: prediction pipeline under offered load (service %v/prediction, queue cap %d)\n",
		scalingServiceTime, scalingQueueCap)
	fmt.Fprintf(&b, "%12s %10s %10s %9s %12s %12s %12s %14s\n",
		"Offered pps", "Decided", "Shed", "Backlog", "AvgPred", "P99Pred", "MaxPred", "Throughput/s")
	for _, p := range points {
		fmt.Fprintf(&b, "%12.0f %10d %10d %9d %12v %12v %12v %14.1f\n",
			p.OfferedPPS, p.Decisions, p.Dropped, p.MaxBacklog,
			p.AvgLatency, p.P99Latency, p.MaxLatency, p.ThroughputPPS)
	}
	return b.String()
}
