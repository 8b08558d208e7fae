package core

import (
	"fmt"
	"strings"
	"time"

	"github.com/amlight/intddos/internal/fault"
	"github.com/amlight/intddos/internal/flow"
	"github.com/amlight/intddos/internal/ml"
	"github.com/amlight/intddos/internal/obs"
	"github.com/amlight/intddos/internal/obs/prof"
)

// LiveConfig parameterizes the wall-clock runtime of the mechanism.
type LiveConfig struct {
	// Features selects the model input vector (default: the paper's
	// 15 INT features).
	Features flow.FeatureSet
	// Models is the pre-trained ensemble.
	Models []ml.Classifier
	// Scaler standardizes snapshots; required.
	Scaler *ml.StandardScaler

	// QueueCap bounds the prediction input channels (default 4096,
	// divided across workers); beyond it updates are shed and counted.
	QueueCap int
	// Workers is the number of prediction goroutines (default 1,
	// like the paper's single Python predictor). Each worker owns its
	// own input channel; shards are assigned to workers round-robin,
	// so all updates of one flow are predicted by one worker in
	// hand-off order — the invariant the vote window needs.
	Workers int

	// Shards stripes the flow table, the database journal, and the
	// dispatch to prediction workers by flow.Key hash. Zero selects
	// the legacy single-lock store.DB (the paper's one-database
	// layout); n >= 1 selects a store.ShardedDB with n shards, which
	// at n=1 is observably identical to the legacy layout.
	Shards int

	// PredictBatch caps the micro-batch a prediction worker drains
	// from its shard queue per wakeup: queued records already waiting
	// are scored through the scaler and ensemble batch paths in one
	// amortized call instead of one record per wakeup. Batches form
	// only from backlog — a worker never waits for one to fill — so
	// their size follows load. The batch contract makes results
	// row-for-row identical to per-record scoring, so this only trades
	// per-record overhead for batching. Zero or one keeps the paper's
	// record-at-a-time behavior.
	PredictBatch int

	// Triage enables tiered inference: per-shard streaming sketches
	// (count-min heavy hitter + flow-key entropy) over the ingest
	// stream and a confidence-thresholded stage-0 model early-exit
	// confident rows before the full ensemble vote; only uncertain
	// rows — and anything the sketch flags suspicious — pay for
	// MLP+RF+GNB. Off (the default) keeps the score-everything
	// contract bit-identical to the legacy path. TriageThreshold is
	// the minimum stage-0 confidence |2p-1| to exit (<= 0 leaves the
	// cascade inert: the tiered code path runs, every row falls
	// through, output stays bit-identical — the exact-mode property
	// the tests pin). TriageModel picks the stage-0 model; nil selects
	// the last probability-capable ensemble member. The sketches are
	// updated only under the per-shard checkpoint barrier, so they are
	// quiescent at every capture; they are deliberately not persisted
	// (rewarmed from live traffic after restore).
	Triage          bool
	TriageThreshold float64
	TriageModel     ml.Classifier

	// ModelQuorum and VoteWindow mirror the simulated mechanism
	// (defaults 2-of-ensemble and 3). When ensemble members are
	// marked unhealthy the quorum degrades to majority-of-available;
	// see scorer.quorumFor.
	ModelQuorum int
	VoteWindow  int
	// SkipNewRecords restricts prediction to record updates (§III-3
	// strict reading).
	SkipNewRecords bool

	// FlowIdleTimeout evicts flows idle past this TTL — their vote
	// windows, flow-table state, and database records — so long runs
	// don't accumulate per-flow memory without bound. Zero disables
	// eviction. Evictions are counted in intddos_evictions_total.
	FlowIdleTimeout time.Duration
	// SweepInterval is how often the eviction pass runs (default:
	// FlowIdleTimeout).
	SweepInterval time.Duration

	// CheckpointDir enables crash-consistent checkpointing: snapshots
	// of the pipeline's durable state (flow tables, store shards with
	// journal tails, vote windows, prediction log) are written
	// atomically into this directory, and NewLive restores from the
	// newest valid one at boot. Empty disables checkpointing.
	CheckpointDir string
	// CheckpointEvery is the periodic checkpoint interval. Zero writes
	// no periodic checkpoints — WriteCheckpoint can still be called
	// explicitly (shutdown, signal handler, tests).
	CheckpointEvery time.Duration
	// CheckpointKeep is how many checkpoint files to retain (default 3;
	// a delta's chain ancestors are always retained with it).
	CheckpointKeep int
	// CheckpointFullEvery sets the full-snapshot cadence: every Nth
	// checkpoint is a self-contained full snapshot and the N-1 between
	// are incremental deltas carrying only state dirtied since the
	// previous capture. 0 or 1 writes only full snapshots (the legacy
	// behavior). Deltas keep the capture barrier's hold time
	// proportional to the churn since the last checkpoint, not to the
	// total flow count.
	CheckpointFullEvery int
	// CheckpointCompress flate-compresses checkpoint section payloads —
	// smaller files for slower disks, more CPU outside the barrier.
	CheckpointCompress bool

	// Registry receives the runtime's metrics, stage histograms, and
	// decision tracer; nil builds a private registry, readable via
	// Obs(). A registry should be scoped to one pipeline instance.
	Registry *obs.Registry
	// TraceSampleEvery routes 1-in-N flow records through the
	// per-stage span tracer (default 64; negative disables tracing).
	TraceSampleEvery int

	// JourneySampleEvery follows 1-in-N flow updates end to end —
	// ingest → journal → poll (the hand-off) → batch → predict → vote, one wall-clock
	// stamp per hop, across every goroutine handoff — queryable on
	// /traces/flow (default 256; negative disables journey tracing).
	JourneySampleEvery int

	// ProfileDir, when set, enables periodic on-disk profile captures
	// (CPU/mutex/block/goroutine/heap) into a bounded ring of files;
	// ProfileInterval is the capture period (default 30s). Contention
	// profiling itself is always on, at prof's default sampling rates;
	// its attribution report is served on /debug/attrib.
	ProfileDir      string
	ProfileInterval time.Duration

	// DedupWindow enables per-source report deduplication at
	// HandleReport: each source's last DedupWindow sequence numbers are
	// remembered, duplicate and stale reports are suppressed before
	// they can become flow observations (one report never becomes two
	// decisions over a duplicating wire), and reordered arrivals within
	// the window are admitted. Zero (the default) disables dedup — the
	// report path is byte-identical to the pre-dedup pipeline. Only
	// reports carrying a meaningful source key participate: dedup is
	// per exporter, never global; the tracker keeps state for the
	// dedupMaxSources most recently active sources.
	DedupWindow int

	// Fault injects a deterministic fault schedule into the pipeline:
	// telemetry drop/corrupt/delay at ingestion, store stalls and
	// transient errors (the store is wrapped automatically), worker
	// panics, and per-model scoring failures. Nil injects nothing and
	// costs one branch per event.
	Fault *fault.Injector

	// DrainOnStop makes Stop score every record still queued to the
	// prediction workers instead of abandoning them. Off (the
	// default, matching the paper's shutdown) queued records are
	// counted in intddos_records_abandoned{reason="stop"} — observable
	// either way, lost silently never.
	DrainOnStop bool

	// WorkerRestartBudget bounds how many times the supervisor
	// restarts a panicking prediction worker before declaring it down
	// (default 8; negative: unlimited). A down worker's queue is
	// drained into intddos_records_abandoned{reason="worker_down"}
	// and the pipeline reports shedding.
	WorkerRestartBudget int
	// WorkerRestartBackoff is the supervisor's initial restart delay,
	// doubling per consecutive restart up to one second (default 10ms).
	WorkerRestartBackoff time.Duration

	// StoreRetries bounds retry attempts after a transient store
	// error (default 3). Writes still failing after the budget are
	// dropped and counted in intddos_store_dropped_total. A failed
	// journal drain has no budget: it consumed nothing, so the
	// hand-off retries it on the same backoff until it succeeds.
	StoreRetries int
	// StoreRetryBackoff is the initial delay between store retries,
	// doubling per attempt (default 2ms; journal drains cap at 1s).
	StoreRetryBackoff time.Duration

	// ModelFailThreshold is how many consecutive scoring failures
	// mark an ensemble member unhealthy (default 3).
	ModelFailThreshold int
	// ModelProbeAfter is how long an unhealthy member sits out before
	// a recovery probe re-includes it in a scoring attempt (default 1s).
	ModelProbeAfter time.Duration

	// HealthRecency is how long after the last fault event the
	// pipeline keeps reporting the corresponding non-healthy state
	// before reassessment may lower it (default 5s).
	HealthRecency time.Duration
}

// Fixed sizings no caller has needed to vary.
const (
	// ingestQueueCap bounds each shard's ingest queue. HandleReport
	// demuxes reports onto per-shard queues by flow-key hash; a full
	// queue applies backpressure to the producer (like the paper's
	// collector socket) rather than dropping.
	ingestQueueCap = 1024
	// checkpointBarrierTimeout bounds how long a checkpoint waits for
	// accepted and in-flight records to settle before giving up.
	checkpointBarrierTimeout = 5 * time.Second
	// dedupMaxSources bounds the dedup tracker's per-source state
	// (least-recently-active eviction).
	dedupMaxSources = 1024
	// maxRetryBackoff caps the doubling backoffs that have no attempt
	// budget: worker restarts and journal-drain retries.
	maxRetryBackoff = time.Second
)

// defaults resolves every zero-valued knob except the model bundle's
// (newScorer owns those).
func (cfg *LiveConfig) defaults() {
	if cfg.Features == nil {
		cfg.Features = flow.INTFeatures()
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 4096
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.Shards < 0 {
		cfg.Shards = 0
	}
	if cfg.PredictBatch < 1 {
		cfg.PredictBatch = 1
	}
	if cfg.VoteWindow <= 0 {
		cfg.VoteWindow = 3
	}
	if cfg.SweepInterval <= 0 {
		cfg.SweepInterval = cfg.FlowIdleTimeout
	}
	if cfg.WorkerRestartBudget == 0 {
		cfg.WorkerRestartBudget = 8
	}
	if cfg.WorkerRestartBackoff <= 0 {
		cfg.WorkerRestartBackoff = 10 * time.Millisecond
	}
	if cfg.StoreRetries <= 0 {
		cfg.StoreRetries = 3
	}
	if cfg.StoreRetryBackoff <= 0 {
		cfg.StoreRetryBackoff = 2 * time.Millisecond
	}
	if cfg.ModelFailThreshold <= 0 {
		cfg.ModelFailThreshold = 3
	}
	if cfg.ModelProbeAfter <= 0 {
		cfg.ModelProbeAfter = time.Second
	}
	if cfg.HealthRecency <= 0 {
		cfg.HealthRecency = 5 * time.Second
	}
	if cfg.CheckpointKeep <= 0 {
		cfg.CheckpointKeep = 3
	}
	if cfg.CheckpointFullEvery < 0 {
		cfg.CheckpointFullEvery = 0
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
}

// describeConfig renders the resolved runtime configuration for
// diagnostic bundles — what this pipeline actually ran with, defaults
// applied, not what the flags said.
func (l *Live) describeConfig() string {
	cfg := l.cfg
	models := make([]string, len(cfg.Models))
	for i, m := range cfg.Models {
		models[i] = m.Name()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "shards=%d\nworkers=%d\n", l.nShards, cfg.Workers)
	fmt.Fprintf(&b, "models=%s\nquorum=%d\nvote_window=%d\n", strings.Join(models, ","), cfg.ModelQuorum, cfg.VoteWindow)
	fmt.Fprintf(&b, "features=%d\n", len(cfg.Scaler.Mean))
	fmt.Fprintf(&b, "queue_cap=%d\ningest_queue_cap=%d\npredict_batch=%d\n", cfg.QueueCap, ingestQueueCap, cfg.PredictBatch)
	triageModel := ""
	if c := l.scorer.cascade; c != nil {
		triageModel = c.Stages[0].Name
	}
	fmt.Fprintf(&b, "triage=%t\ntriage_threshold=%g\ntriage_model=%s\n", cfg.Triage, cfg.TriageThreshold, triageModel)
	fmt.Fprintf(&b, "skip_new_records=%t\ndrain_on_stop=%t\n", cfg.SkipNewRecords, cfg.DrainOnStop)
	fmt.Fprintf(&b, "flow_idle_timeout=%s\nsweep_interval=%s\n", cfg.FlowIdleTimeout, cfg.SweepInterval)
	fmt.Fprintf(&b, "checkpoint_dir=%s\ncheckpoint_every=%s\ncheckpoint_keep=%d\n", cfg.CheckpointDir, cfg.CheckpointEvery, cfg.CheckpointKeep)
	fmt.Fprintf(&b, "checkpoint_full_every=%d\ncheckpoint_compress=%t\n", cfg.CheckpointFullEvery, cfg.CheckpointCompress)
	fmt.Fprintf(&b, "worker_restart_budget=%d\nstore_retries=%d\n", cfg.WorkerRestartBudget, cfg.StoreRetries)
	fmt.Fprintf(&b, "model_fail_threshold=%d\nmodel_probe_after=%s\nhealth_recency=%s\n", cfg.ModelFailThreshold, cfg.ModelProbeAfter, cfg.HealthRecency)
	fmt.Fprintf(&b, "trace_sample_every=%d\njourney_sample_every=%d\n", cfg.TraceSampleEvery, l.journeys.SampleEvery())
	fmt.Fprintf(&b, "profile_mutex_fraction=%d\nprofile_block_rate_ns=%d\nprofile_dir=%s\n", prof.DefaultMutexFraction, prof.DefaultBlockRateNs, cfg.ProfileDir)
	fmt.Fprintf(&b, "fingerprint=%016x\n", l.fingerprint)
	return b.String()
}
