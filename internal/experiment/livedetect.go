package experiment

import (
	"fmt"

	"github.com/amlight/intddos/internal/core"
	"github.com/amlight/intddos/internal/flow"
	"github.com/amlight/intddos/internal/ml"
	"github.com/amlight/intddos/internal/netsim"
	"github.com/amlight/intddos/internal/telemetry"
	"github.com/amlight/intddos/internal/testbed"
	"github.com/amlight/intddos/internal/trace"
	"github.com/amlight/intddos/internal/traffic"
)

// LiveConfig parameterizes the stage-2 automated-detection experiment
// (§IV-C → Table VI and Figure 7). The paper fixes the rest: the
// MLP+RF+GNB ensemble (StageTwoModels), its 2-of-3 vote and
// three-prediction window, the CentralServer's 2 ms poll, a 10 ms
// prediction cost (liveServiceTime), the attack replays' pacing
// (attackUtilization), and training replays of four times
// PacketsPerType per flow type.
type LiveConfig struct {
	Scale string
	Seed  int64
	// PacketsPerType bounds each live replay, the paper's ≈2500
	// packets per flow type (default 2500).
	PacketsPerType int
	// PredictBatch sizes the Prediction module's scoring micro-batch:
	// up to this many queued records are standardized and voted in one
	// amortized ensemble call, while service completions still consume
	// one result per liveServiceTime. Decisions, votes, and latencies
	// are identical at every batch size — the golden tests pin Table VI
	// byte-for-byte at 1 and 32. Zero or one is the paper-faithful
	// record-at-a-time default.
	PredictBatch int
	// Triage enables the tiered cascade: a count-min/entropy sketch
	// plus a single cheap stage-0 model early-exits confident records
	// before the full ensemble vote. Off (the default) is the exact
	// paper pipeline — the golden tests pin that byte-for-byte.
	Triage bool
	// TriageThreshold is the stage-0 confidence |2p-1| needed to
	// early-exit; zero resolves to core.DefaultTriageThreshold when
	// Triage is set. A negative value keeps the cascade wired in but
	// inert (every record falls through), which the property tests use
	// to pin the split/merge plumbing to the legacy path.
	TriageThreshold float64
	// TriageModel names the ensemble member serving stage 0 (matched
	// case-sensitively against the trained model names, e.g. "RF").
	// Empty selects RF: its vote-fraction probabilities are calibrated
	// enough to gate on, where GNB's saturate to 0/1 even on zero-day
	// attacks it has never seen.
	TriageModel string
}

const (
	// liveServiceTime is the Prediction module's per-item cost on the
	// virtual clock, standing in for the paper's Python inference +
	// IPC.
	liveServiceTime = 10 * netsim.Millisecond
	// attackUtilization paces scan/flood/SlowLoris replays so the
	// prediction queue runs at roughly this utilization, mirroring the
	// paper's intentionally lowered attack replay rates (§V: "much
	// lower packet rate levels ... to run experiments smoothly").
	// Benign replays keep their captured density, which is what drives
	// the paper's large benign prediction times. The same pacing is
	// applied when building the training capture, exactly as the paper
	// pre-trains on data replayed through the testbed (§IV-C2).
	attackUtilization = 0.4
)

// fillDefaults resolves zero-valued fields.
func (cfg *LiveConfig) fillDefaults() {
	if cfg.PacketsPerType <= 0 {
		cfg.PacketsPerType = 2500
	}
	if cfg.Triage {
		if cfg.TriageThreshold == 0 {
			cfg.TriageThreshold = core.DefaultTriageThreshold
		}
		if cfg.TriageModel == "" {
			cfg.TriageModel = "RF"
		}
	}
}

// LiveResult is the stage-2 outcome.
type LiveResult struct {
	// Rows is Table VI, sorted by type name.
	Rows []core.TypeResult
	// Decisions holds each replay's full decision log (Figure 7).
	Decisions map[string][]core.Decision
	// TrainRows is the ensemble's training-set size (SlowLoris held
	// out as the zero-day attack).
	TrainRows int
	// Ensemble lists the member model names.
	Ensemble []string
}

// RunTableVI trains the MLP+RF+GNB ensemble on testbed replays with
// SlowLoris held out, then replays each flow type live through the
// automated mechanism and reports per-type accuracy and prediction
// times.
func RunTableVI(cfg LiveConfig) (*LiveResult, error) {
	cfg.fillDefaults()
	w := traffic.Build(traffic.ConfigForScale(cfg.Scale, cfg.Seed))
	models, scaler, names, trainRows, err := trainStageTwo(cfg, w)
	if err != nil {
		return nil, err
	}

	result := &LiveResult{
		Decisions: make(map[string][]core.Decision),
		TrainRows: trainRows,
		Ensemble:  names,
	}

	// Live stage: replay each flow type through a fresh testbed +
	// mechanism, drawing test packets from the tail of the capture so
	// they are disjoint from the training replays where volume allows.
	types := append([]string{traffic.Benign}, traffic.AttackTypes...)
	var allRows []core.Decision
	for _, typ := range types {
		recs := recordsOfType(w, typ, cfg.PacketsPerType, true)
		if len(recs) == 0 {
			return nil, fmt.Errorf("table VI: no %s records in workload", typ)
		}
		decisions, err := replayLive(recs, replaySpeed(typ, recs), models, scaler, cfg)
		if err != nil {
			return nil, fmt.Errorf("table VI replay %s: %w", typ, err)
		}
		result.Decisions[typ] = decisions
		allRows = append(allRows, decisions...)
	}
	result.Rows = core.SummarizeByType(allRows)
	return result, nil
}

// trainStageTwo pre-trains the ensemble offline on testbed replays of
// each flow type except the zero-day SlowLoris — four times the live
// replay's packets per type — using the same per-type pacing the live
// runs will see (§IV-C2: the training set is itself produced by
// replaying captured data through the rig).
func trainStageTwo(cfg LiveConfig, w *traffic.Workload) (models []ml.Classifier, scaler *ml.StandardScaler, names []string, trainRows int, err error) {
	train := &ml.Dataset{Names: flow.INTFeatures().Names()}
	trainTypes := []string{traffic.Benign, traffic.SYNScan, traffic.UDPScan, traffic.SYNFlood}
	for _, typ := range trainTypes {
		recs := recordsOfType(w, typ, 4*cfg.PacketsPerType, false)
		if len(recs) == 0 {
			return nil, nil, nil, 0, fmt.Errorf("stage 2: no %s records to train on", typ)
		}
		collectPaced(recs, replaySpeed(typ, recs), train)
	}
	base := train.Subsample(40000, cfg.Seed)
	scaler = &ml.StandardScaler{}
	// One shared scaler, as the Prediction module loads a single set
	// of transformation coefficients.
	Z, err := scaler.FitTransform(base.X)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	for _, spec := range StageTwoModels() {
		model := spec.New(cfg.Seed)
		if err := model.Fit(Z, base.Y); err != nil {
			return nil, nil, nil, 0, fmt.Errorf("stage 2 fit %s: %w", spec.Name, err)
		}
		models = append(models, model)
		names = append(names, model.Name())
	}
	return models, scaler, names, base.Len(), nil
}

// recordsOfType extracts up to n records of one workload type,
// re-based to start at time zero. fromEnd takes the capture's tail
// instead of its head.
func recordsOfType(w *traffic.Workload, typ string, n int, fromEnd bool) []trace.Record {
	var all []trace.Record
	for i := range w.Records {
		if w.Records[i].AttackType == typ {
			all = append(all, w.Records[i])
		}
	}
	if len(all) == 0 {
		return nil
	}
	if n > len(all) {
		n = len(all)
	}
	var out []trace.Record
	if fromEnd {
		out = append(out, all[len(all)-n:]...)
	} else {
		out = append(out, all[:n]...)
	}
	base := out[0].At
	for i := range out {
		out[i].At -= base
	}
	return out
}

// replaySpeed picks the tcpreplay pacing per flow type: benign keeps
// its captured density; attack replays are slowed to attackUtilization
// of the prediction queue, as the paper did (§V).
func replaySpeed(typ string, recs []trace.Record) float64 {
	if typ == traffic.Benign {
		return 1.0
	}
	natural := recs[len(recs)-1].At - recs[0].At
	if natural <= 0 {
		natural = netsim.Millisecond
	}
	desired := netsim.Time(float64(len(recs)) * float64(liveServiceTime) / attackUtilization)
	speed := float64(natural) / float64(desired)
	if speed > 1 {
		speed = 1 // never accelerate beyond the captured timing
	}
	return speed
}

// collectPaced replays records through a bare testbed (no mechanism)
// and appends the resulting INT feature rows to dst.
func collectPaced(recs []trace.Record, speed float64, dst *ml.Dataset) {
	tb := testbed.New(testbed.Config{})
	table := flow.NewTable()
	set := flow.INTFeatures()
	tb.Collector.OnReport = func(r *telemetry.Report, at netsim.Time) {
		pi := flow.FromINT(r, at)
		st, _ := table.Observe(pi)
		appendRow(dst, st, set, pi)
	}
	rp := tb.Replayer(recs)
	rp.Speed = speed
	rp.Start()
	tb.Run()
}

// triageModelFor resolves cfg.TriageModel against the trained
// ensemble; nil (with no error) when triage is off.
func triageModelFor(cfg LiveConfig, models []ml.Classifier) (ml.Classifier, error) {
	if !cfg.Triage || cfg.TriageModel == "" {
		return nil, nil
	}
	for _, m := range models {
		if m.Name() == cfg.TriageModel {
			return m, nil
		}
	}
	var names []string
	for _, m := range models {
		names = append(names, m.Name())
	}
	return nil, fmt.Errorf("triage model %q not in trained ensemble %v", cfg.TriageModel, names)
}

// replayLive runs one flow type through a fresh testbed + mechanism.
func replayLive(recs []trace.Record, speed float64, models []ml.Classifier, scaler *ml.StandardScaler, cfg LiveConfig) ([]core.Decision, error) {
	tb := testbed.New(testbed.Config{})
	tm, err := triageModelFor(cfg, models)
	if err != nil {
		return nil, err
	}
	mech, err := core.New(tb.Eng, core.Config{
		Models:          models,
		Scaler:          scaler,
		ServiceTime:     liveServiceTime,
		PredictBatch:    cfg.PredictBatch,
		Triage:          cfg.Triage,
		TriageThreshold: cfg.TriageThreshold,
		TriageModel:     tm,
	})
	if err != nil {
		return nil, err
	}
	tb.Collector.OnReport = mech.HandleReport
	mech.Start()

	rp := tb.Replayer(recs)
	rp.Speed = speed
	rp.MaxPackets = cfg.PacketsPerType
	rp.Start()

	// Run until every replayed packet has been decided (drain the
	// backlog), with a generous deadline guard.
	deadline := netsim.Time(float64(len(recs))*float64(liveServiceTime)*4) + 2*netsim.Second
	horizon := netsim.Time(float64(recs[len(recs)-1].At)/speed) + deadline
	for tb.Eng.Now() < horizon && len(mech.Decisions) < len(recs) {
		step := tb.Eng.Now() + 100*netsim.Millisecond
		tb.RunUntil(step)
	}
	return mech.Decisions, nil
}
