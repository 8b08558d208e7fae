// Package intddos reproduces "Leveraging In-band Network Telemetry
// for Automated DDoS Detection in Production Programmable Networks:
// The AmLight Use Case" (SC 2024) as a self-contained Go library.
//
// The package is a facade over the internal subsystems. It exports
// what the commands, examples, benchmark and scripts of this module
// use, and nothing else (internal/core's TestExportsHaveCallers holds
// it to that); a result type it returns is named by its internal
// package. The subsystems:
//
//   - a deterministic discrete-event network simulator with
//     INT-capable switches (internal/netsim, internal/telemetry);
//   - an sFlow sampling stack for the comparative experiments
//     (internal/sflow);
//   - workload generators for the paper's benign web traffic and the
//     Table I attack episodes (internal/traffic), plus a
//     tcpreplay-style trace format (internal/trace);
//   - the Data Processor's 5-tuple flow table and Table II feature
//     extraction (internal/flow);
//   - from-scratch ML: Random Forest, Gaussian Naive Bayes, KNN, and
//     MLP neural networks with scaling, metrics, and feature
//     importance (internal/ml/...);
//   - the paper's four-module automated detection mechanism
//     (internal/core) around an in-memory database (internal/store);
//   - experiment runners regenerating every table and figure of the
//     paper's evaluation (internal/experiment).
//
// Quick start:
//
//	capture, err := intddos.Collect(intddos.DataConfig{Scale: intddos.ScaleSmall, Seed: 42})
//	res, err := intddos.RunTableIII(capture, 42)
//	fmt.Print(intddos.FormatEvalRows("Table III", res.Rows))
package intddos

import (
	"github.com/amlight/intddos/internal/core"
	"github.com/amlight/intddos/internal/experiment"
	"github.com/amlight/intddos/internal/fault"
	"github.com/amlight/intddos/internal/flow"
	"github.com/amlight/intddos/internal/mitigate"
	"github.com/amlight/intddos/internal/ml"
	"github.com/amlight/intddos/internal/netsim"
	"github.com/amlight/intddos/internal/obs"
	"github.com/amlight/intddos/internal/telemetry"
	"github.com/amlight/intddos/internal/testbed"
	"github.com/amlight/intddos/internal/trace"
	"github.com/amlight/intddos/internal/traffic"
)

// Workload scale presets.
const (
	ScaleTiny  = traffic.ScaleTiny
	ScaleSmall = traffic.ScaleSmall
)

// Attack type names (Table I / Table VI row keys).
const (
	Benign    = traffic.Benign
	SYNScan   = traffic.SYNScan
	SYNFlood  = traffic.SYNFlood
	SlowLoris = traffic.SlowLoris
)

// Simulation time (nanoseconds on the virtual clock).
type Time = netsim.Time

// Common durations.
const (
	Millisecond = netsim.Millisecond
	Second      = netsim.Second
)

// Capture and experiment types.
type (
	// DataConfig parameterizes workload capture.
	DataConfig = experiment.DataConfig
	// Capture is a monitored workload with INT and sFlow datasets.
	Capture = experiment.Capture
	// EvalResult is one model-comparison row (Tables III/IV).
	EvalResult = experiment.EvalResult
	// LiveConfig parameterizes the stage-2 live experiment.
	LiveConfig = experiment.LiveConfig
	// ModelSpec names a trainable model family.
	ModelSpec = experiment.ModelSpec
	// ScalingConfig parameterizes the processing-capability sweep.
	ScalingConfig = experiment.ScalingConfig
	// ChaosConfig parameterizes a fault-injected live replay.
	ChaosConfig = experiment.ChaosConfig
	// TriageSweepConfig parameterizes the tiered-inference sweep over
	// benign fraction × stage-0 threshold.
	TriageSweepConfig = experiment.TriageSweepConfig
	// ImpairConfig parameterizes the adverse-network sweep: Table
	// III/IV re-run over a grid of report-wire impairments.
	ImpairConfig = experiment.ImpairConfig
	// SoakConfig parameterizes the adverse-network soak: the live
	// pipeline fed a scrambled (reordered/duplicated/stale) multi-pass
	// report stream materialized through an impaired wire.
	SoakConfig = experiment.SoakConfig
)

// ML layer types.
type (
	// Classifier is a trainable binary classifier.
	Classifier = ml.Classifier
	// StandardScaler standardizes features to zero mean, unit var.
	StandardScaler = ml.StandardScaler
)

// Substrate types for building custom setups.
type (
	// TestbedConfig parameterizes the rig.
	TestbedConfig = testbed.Config
	// Report is one decoded INT telemetry report.
	Report = telemetry.Report
	// FlowKey is the 5-tuple flow identity.
	FlowKey = flow.Key
	// MechanismConfig parameterizes the pipeline.
	MechanismConfig = core.Config
	// LiveRuntimeConfig parameterizes the wall-clock runtime.
	LiveRuntimeConfig = core.LiveConfig
	// Decision is one final smoothed classification.
	Decision = core.Decision
	// FaultInjector decides, deterministically from a seed, when the
	// faults of a FaultSpec fire; wire it into
	// LiveRuntimeConfig.Fault to chaos-test the live pipeline.
	FaultInjector = fault.Injector
	// NetemSpec maps link names to netem-style impairments; wire it
	// into TestbedConfig.Netem or DataConfig.Netem ("*" matches every
	// link).
	NetemSpec = fault.NetemSpec
)

// MitigateConfig parameterizes the mitigation rule generator, one of
// the extension modules: microburst detection over the same telemetry
// feed (the paper's reference [8]) and the mitigation hooks it lists
// as future work.
type MitigateConfig = mitigate.Config

// ObsRegistry is the observability layer's metrics registry for one
// pipeline: counters, gauges and lock-free latency histograms behind
// an HTTP surface exposing /metrics (Prometheus text), /healthz,
// /traces/flow, and pprof. Wire one into LiveRuntimeConfig.Registry
// and mount Registry.Handler() to watch the pipeline run.
type ObsRegistry = obs.Registry

// NewObsRegistry returns an empty metrics registry.
func NewObsRegistry() *ObsRegistry { return obs.NewRegistry() }

// Observability helpers.
var (
	// LatencyBuckets is the default 1µs–60s histogram bucket ladder.
	LatencyBuckets = obs.LatencyBuckets
	// FormatLatencySummary renders a Table-VI-style percentile table
	// (p50/p95/p99/max) from per-label histogram snapshots.
	FormatLatencySummary = obs.FormatLatencySummary
)

// NewMicroburstDetector builds a detector with the given queue-depth
// threshold and quiet period.
func NewMicroburstDetector(threshold uint32, quiet Time) *telemetry.MicroburstDetector {
	return telemetry.NewMicroburstDetector(threshold, quiet)
}

// NewRuleGenerator builds a mitigation rule generator.
func NewRuleGenerator(cfg MitigateConfig) *mitigate.Generator { return mitigate.NewGenerator(cfg) }

// BuildWorkload generates the June 6–11 benign-plus-attacks capture
// at the given scale preset.
func BuildWorkload(scale string, seed int64) *traffic.Workload {
	return traffic.Build(traffic.ConfigForScale(scale, seed))
}

// PaperSchedule maps Table I onto a compressed timeline.
func PaperSchedule(dayLen, minEpisode Time) traffic.Schedule {
	return traffic.PaperSchedule(dayLen, minEpisode)
}

// NewTestbed assembles the Figure 6 topology.
func NewTestbed(cfg TestbedConfig) *testbed.Testbed { return testbed.New(cfg) }

// NewMechanism builds the automated detection pipeline on a testbed's
// engine; wire it with tb.Collector.OnReport = m.HandleReport.
func NewMechanism(tb *testbed.Testbed, cfg MechanismConfig) (*core.Mechanism, error) {
	return core.New(tb.Eng, cfg)
}

// NewLiveRuntime builds the wall-clock concurrent runtime of the
// mechanism, for driving with real (non-simulated) report feeds.
func NewLiveRuntime(cfg LiveRuntimeConfig) (*core.Live, error) { return core.NewLive(cfg) }

// ParseFaultSpec parses a fault schedule in the clause grammar
// ("drop=0.01,store.stall=5ms@0.02,model.fail=GNB@0.5", ...) and
// returns an injector seeded for deterministic replay. An empty spec
// returns a nil injector, which injects nothing.
func ParseFaultSpec(spec string, seed int64) (*FaultInjector, error) {
	return fault.Parse(spec, seed)
}

// ParseNetem parses netem clauses in the fault grammar
// ("netem[link=agent->collector]:delay=2ms,jitter=1ms,loss=0.5%,dup=0.1%",
// ...) into a per-link impairment spec. An empty spec returns a nil
// NetemSpec, which impairs nothing.
func ParseNetem(spec string) (NetemSpec, error) { return fault.ParseNetem(spec) }

// ListenReports opens a UDP INT-report collector on addr
// ("127.0.0.1:0" picks a free port).
func ListenReports(addr string) (*telemetry.NetCollector, error) {
	return telemetry.ListenReports(addr)
}

// DialReports connects a report sender to a collector address.
func DialReports(addr string) (*telemetry.ReportSender, error) { return telemetry.DialReports(addr, 0) }

// Collect replays a workload through the testbed with INT and sFlow
// attached and materializes both datasets.
func Collect(cfg DataConfig) (*Capture, error) { return experiment.Collect(cfg) }

// CoverageSFlowRate returns the sampling rate preserving the
// production deployment's per-episode sample proportions.
func CoverageSFlowRate(scale string) int { return experiment.CoverageSFlowRate(scale) }

// StageOneModels returns the §IV-B model families (RF, GNB, KNN, NN).
func StageOneModels() []ModelSpec { return experiment.StageOneModels() }

// StageTwoModels returns the §IV-C ensemble members (MLP, RF, GNB).
func StageTwoModels() []ModelSpec { return experiment.StageTwoModels() }

// TrainEval fits one model spec and scores it.
func TrainEval(spec ModelSpec, train, test *ml.Dataset, seed int64) (EvalResult, error) {
	return experiment.TrainEval(spec, train, test, seed)
}

// FitModel standardizes and fits one model, returning the classifier
// and its scaler.
func FitModel(spec ModelSpec, train *ml.Dataset, seed int64) (Classifier, *StandardScaler, error) {
	return experiment.FitModel(spec, train, seed)
}

// RunTableI returns the attack schedule with packet counts.
func RunTableI(c *Capture) []experiment.TableIRow { return experiment.RunTableI(c) }

// RunTableII returns the Table II feature-availability matrix.
func RunTableII() []flow.AvailabilityRow { return experiment.RunTableII() }

// RunTableIII runs the 90:10-split model comparison.
func RunTableIII(c *Capture, seed int64) (*experiment.TableIIIResult, error) {
	return experiment.RunTableIII(c, seed)
}

// RunTableIV runs the zero-day (SlowLoris held-out) comparison.
func RunTableIV(c *Capture, seed int64) ([]EvalResult, error) {
	return experiment.RunTableIV(c, seed)
}

// RunTableV computes per-model top-five feature importances.
func RunTableV(c *Capture, seed int64) ([]experiment.TableVRow, error) {
	return experiment.RunTableV(c, seed)
}

// RunTableVI runs the live automated-detection experiment.
func RunTableVI(cfg LiveConfig) (*experiment.LiveResult, error) { return experiment.RunTableVI(cfg) }

// RunFigure5 sweeps RF predictions across the capture timeline.
func RunFigure5(c *Capture, buckets int, seed int64) (*experiment.Figure5, error) {
	return experiment.RunFigure5(c, buckets, seed)
}

// RunEpisodeCoverage counts per-episode observations per source.
func RunEpisodeCoverage(c *Capture) []experiment.EpisodeCoverage {
	return experiment.RunEpisodeCoverage(c)
}

// RunScalingStudy sweeps offered load through the prediction
// pipeline, quantifying the §V processing-capability discussion.
func RunScalingStudy(cfg ScalingConfig) ([]experiment.ScalingPoint, error) {
	return experiment.RunScalingStudy(cfg)
}

// RunROC computes threshold-free ROC/AUC comparisons for the
// probability-capable models on both monitoring sources.
func RunROC(c *Capture, seed int64) ([]experiment.ROCRow, error) { return experiment.RunROC(c, seed) }

// RunMitigation closes the detection→drop-rule loop in the data
// plane and measures per-attack suppression.
func RunMitigation(cfg LiveConfig) ([]experiment.MitigationResult, error) {
	return experiment.RunMitigation(cfg)
}

// RunChaos trains the stage-2 ensemble and replays the workload's INT
// reports through the wall-clock runtime under a deterministic fault
// schedule, returning the degradation summary.
func RunChaos(cfg ChaosConfig) (*experiment.ChaosResult, error) { return experiment.RunChaos(cfg) }

// RunTriageSweep measures the tiered cascade's exit rate and accuracy
// cost across benign fraction × threshold, against triage-off
// baselines on identical streams.
func RunTriageSweep(cfg TriageSweepConfig) (*experiment.TriageSweep, error) {
	return experiment.RunTriageSweep(cfg)
}

// RunImpairmentSweep re-runs the Table III/IV experiments across a
// grid of report-wire impairments, quantifying the accuracy cost of
// adverse telemetry networks. Row 0 is always the clean baseline.
func RunImpairmentSweep(cfg ImpairConfig) (*experiment.ImpairResult, error) {
	return experiment.RunImpairmentSweep(cfg)
}

// RunSoak trains the stage-2 ensemble, then feeds the wall-clock
// runtime a multi-pass reordered/duplicated/stale report stream
// materialized through an impaired wire, asserting that the report
// and pipeline ledgers still close and accuracy stays bounded.
func RunSoak(cfg SoakConfig) (*experiment.SoakResult, error) { return experiment.RunSoak(cfg) }

// DefaultTriageThreshold is the stage-0 exit confidence used when
// triage is enabled without an explicit threshold.
const DefaultTriageThreshold = core.DefaultTriageThreshold

// FeatureAblation contrasts INT with and without queue-occupancy
// features.
func FeatureAblation(c *Capture, seed int64) (withQueue, withoutQueue EvalResult, err error) {
	return experiment.FeatureAblation(c, seed)
}

// HopLatencyAblation restores the hop-latency features the paper
// excluded and measures their contribution.
func HopLatencyAblation(cfg DataConfig, seed int64) (with, without EvalResult, err error) {
	return experiment.HopLatencyAblation(cfg, seed)
}

// Rendering helpers (text output matching the paper's artifacts).
var (
	FormatTableI          = experiment.FormatTableI
	FormatTableII         = experiment.FormatTableII
	FormatEvalRows        = experiment.FormatEvalRows
	FormatConfusion       = experiment.FormatConfusion
	FormatTableV          = experiment.FormatTableV
	FormatTableVI         = experiment.FormatTableVI
	FormatFigure5         = experiment.FormatFigure5
	FormatFigure7         = experiment.FormatFigure7
	FormatEpisodeCoverage = experiment.FormatEpisodeCoverage
	FormatScaling         = experiment.FormatScaling
	FormatROC             = experiment.FormatROC
	FormatMitigation      = experiment.FormatMitigation
	FormatTableVMatrix    = experiment.FormatTableVMatrix
	FormatChaos           = experiment.FormatChaos
	FormatTriageSweep     = experiment.FormatTriageSweep
	FormatImpairmentSweep = experiment.FormatImpairmentSweep
	FormatSoak            = experiment.FormatSoak
)

// CSV exports for re-plotting outside Go.
var (
	WriteEvalCSV    = experiment.WriteEvalCSV
	WriteTableICSV  = experiment.WriteTableICSV
	WriteFigure5CSV = experiment.WriteFigure5CSV
	WriteTableVICSV = experiment.WriteTableVICSV
	WriteFigure7CSV = experiment.WriteFigure7CSV
	WriteScalingCSV = experiment.WriteScalingCSV
	WriteDatasetCSV = experiment.WriteDatasetCSV
	WriteCSVFile    = experiment.WriteCSVFile
	WriteImpairJSON = experiment.WriteImpairJSON
)

// ReadTrace and WriteTrace persist packet captures.
var (
	ReadTrace  = trace.ReadFile
	WriteTrace = trace.WriteFile
)

// SaveEnsemble writes trained models plus their shared scaler to a
// bundle file.
func SaveEnsemble(path string, models []Classifier, scaler *StandardScaler, featureNames []string) error {
	return experiment.SaveEnsemble(path, models, scaler, featureNames)
}

// LoadEnsemble restores a bundle written by SaveEnsemble.
func LoadEnsemble(path string) (*ml.Bundle, error) { return experiment.LoadEnsemble(path) }
