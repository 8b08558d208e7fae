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
// What the paper fixes — the 15 INT features, the 2-of-3 ensemble
// quorum, the three-prediction vote window — and the runtime's fixed
// bounds are constants below, not fields.
type LiveConfig struct {
	// Models is the pre-trained ensemble.
	Models []ml.Classifier
	// Scaler standardizes snapshots; required.
	Scaler *ml.StandardScaler

	// QueueCap bounds the reports queued ahead of the pipeline (default
	// 4096, divided across shards). A full shard queue blocks its
	// producer; a report that waited longer than a fixed bound (1 s)
	// before its shard took it is folded into its flow, then shed and
	// counted.
	QueueCap int
	// Deprecated: ignored — each shard runs on one goroutine. Kept
	// until benchmark/workloads.go stops setting it.
	Workers int

	// Shards stripes the flow table, the prediction log, the report
	// queue and the goroutine that drains it by flow.Key hash, so all
	// updates of one flow are taken and decided by one goroutine in
	// order — the invariant the vote window needs. Zero selects the
	// legacy single-lock store.DB (the paper's one-database layout);
	// n >= 1 selects a store.ShardedDB with n shards, which at n=1 is
	// observably identical to the legacy layout.
	Shards int

	// PredictBatch caps the micro-batch a shard scores in one call:
	// the rows a shard takes in one pass are scored through the scaler
	// and ensemble batch paths up to PredictBatch at a time. Batches
	// form only from the burst a pass already holds — a shard never
	// waits for one to fill — so their size follows load. The batch
	// contract makes results row-for-row identical to per-record
	// scoring. Zero scores whole bursts (up to maxScoreBatch rows a
	// call); one is record-at-a-time.
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

	// FlowIdleTimeout evicts flows idle past this TTL — their
	// flow-table records, vote windows included — so long runs don't
	// accumulate per-flow memory without bound. Zero disables
	// eviction. Evictions are counted in intddos_evictions_total.
	FlowIdleTimeout time.Duration
	// SweepInterval is how often the eviction pass runs (default:
	// FlowIdleTimeout).
	SweepInterval time.Duration

	// CheckpointDir enables crash-consistent checkpointing: snapshots
	// of the pipeline's durable state (flow tables, undecided rows as
	// journal tails, vote windows, prediction log) are written
	// atomically into this directory, and NewLive restores from the
	// newest valid one at boot, after removing the temp files of
	// writes a crash cut short. Empty disables checkpointing.
	CheckpointDir string
	// CheckpointEvery is the periodic checkpoint interval. Zero writes
	// no periodic checkpoints — WriteCheckpoint can still be called
	// explicitly (shutdown, signal handler, tests). The newest
	// checkpointKeep files are retained.
	CheckpointEvery time.Duration
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
	// flow journeys; nil builds a private registry.
	// A registry serves one pipeline instance.
	Registry *obs.Registry

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
	// telemetry drop/corrupt/delay at ingestion, stalls and transient
	// errors on the prediction-log write (the store is wrapped
	// automatically), shard panics, and per-model scoring failures.
	// Nil injects nothing and costs one branch per event.
	Fault *fault.Injector

	// WorkerRestartBackoff is the initial delay before a shard restarts
	// after a panic, doubling per restart of the shard up to one second
	// (default 10ms).
	WorkerRestartBackoff time.Duration

	// StoreRetryBackoff is the initial delay between retries of a
	// prediction-log write that failed transiently, doubling per retry
	// (default 2ms), storeRetries retries a shard pass at most.
	StoreRetryBackoff time.Duration
}

// intFeatures is the model input vector: the paper's 15 INT features.
var intFeatures = flow.INTFeatures()

// Fixed sizings no caller has needed to vary. Those a test varies are
// copied into the Live field of the same name, which the test sets
// between NewLive and Start.
const (
	// shedAfter is the overload bound: a report its shard takes more
	// than this long after the demux accepted it is folded into its
	// flow, then shed. It exceeds the QueueCap ÷ rate of every configured workload
	// (0.4 s on the default), so only a backlog no queue bound explains
	// sheds.
	shedAfter = time.Second
	// voteWindow is the §IV-C4 smoothing window: each flow's decision
	// is the majority of its last three raw predictions, in Live and
	// Mechanism alike.
	voteWindow = 3
	// workerRestartBudget bounds how many panics a shard survives —
	// each abandons the rest of its pass and restarts the shard after a
	// backoff — before it is declared down; negative is unlimited. A
	// down shard still folds in what it takes and abandons it as
	// intddos_records_abandoned{reason="worker_down"}, and the pipeline
	// reports shedding.
	workerRestartBudget = 8
	// storeRetries bounds the backoff retries after transient errors on
	// the prediction-log writes of one shard pass — the one store write
	// the pipeline makes. The budget is the pass's, because the pass
	// holds its shard while it sleeps. Once the pass has spent it, a
	// failing write is retried once at once; still failing, it is
	// dropped: counted in intddos_store_dropped_total, its row abandoned
	// as store_dropped, its flow tainted, OnDecision not called.
	storeRetries = 3
	// modelFailThreshold consecutive scoring failures mark an ensemble
	// member unhealthy; it sits out modelProbeAfter before a recovery
	// probe re-includes it in a scoring attempt.
	modelFailThreshold = 3
	modelProbeAfter    = time.Second
	// healthRecency is how long after the last fault event the pipeline
	// keeps reporting the corresponding non-healthy state before
	// reassessment may lower it.
	healthRecency = 5 * time.Second
	// checkpointKeep is how many checkpoint files WriteCheckpoint
	// retains; a delta's chain ancestors are always retained with it.
	checkpointKeep = 3
	// checkpointBarrierTimeout bounds how long a checkpoint waits for
	// accepted reports to be taken before giving up.
	checkpointBarrierTimeout = 5 * time.Second
	// dedupMaxSources bounds the dedup tracker's per-source state
	// (least-recently-active eviction).
	dedupMaxSources = 1024
	// maxScoreBatch caps a scoring call when PredictBatch is zero: a
	// burst is scored whole, a longer one 32 rows a call — enough for
	// the ensemble's four-row kernels and per-call costs to amortize.
	maxScoreBatch = 32
	// maxRetryBackoff caps the doubling backoff of shard restarts.
	maxRetryBackoff = time.Second
)

// defaults resolves every zero-valued knob except the model bundle's
// (newScorer owns those).
func (cfg *LiveConfig) defaults() {
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 4096
	}
	if cfg.Shards < 0 {
		cfg.Shards = 0
	}
	if cfg.PredictBatch < 1 {
		cfg.PredictBatch = maxScoreBatch
	}
	if cfg.SweepInterval <= 0 {
		cfg.SweepInterval = cfg.FlowIdleTimeout
	}
	if cfg.WorkerRestartBackoff <= 0 {
		cfg.WorkerRestartBackoff = 10 * time.Millisecond
	}
	if cfg.StoreRetryBackoff <= 0 {
		cfg.StoreRetryBackoff = 2 * time.Millisecond
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
	fmt.Fprintf(&b, "shards=%d\n", l.nShards)
	fmt.Fprintf(&b, "models=%s\nquorum=%d\nvote_window=%d\n", strings.Join(models, ","), quorumFor(len(models)), voteWindow)
	fmt.Fprintf(&b, "features=%d\n", len(cfg.Scaler.Mean))
	fmt.Fprintf(&b, "queue_cap=%d\nshard_queue_cap=%d\nshed_after=%s\npredict_batch=%d\n",
		cfg.QueueCap, cap(l.shards[0].queue), l.shedAfter, cfg.PredictBatch)
	triageModel := ""
	if c := l.scorer.cascade; c != nil {
		triageModel = c.Stages[0].Name
	}
	fmt.Fprintf(&b, "triage=%t\ntriage_threshold=%g\ntriage_model=%s\n", cfg.Triage, cfg.TriageThreshold, triageModel)
	fmt.Fprintf(&b, "drain_on_stop=%t\n", l.drainOnStop)
	fmt.Fprintf(&b, "flow_idle_timeout=%s\nsweep_interval=%s\n", cfg.FlowIdleTimeout, cfg.SweepInterval)
	fmt.Fprintf(&b, "checkpoint_dir=%s\ncheckpoint_every=%s\ncheckpoint_keep=%d\n", cfg.CheckpointDir, cfg.CheckpointEvery, checkpointKeep)
	fmt.Fprintf(&b, "checkpoint_full_every=%d\ncheckpoint_compress=%t\n", cfg.CheckpointFullEvery, cfg.CheckpointCompress)
	fmt.Fprintf(&b, "worker_restart_budget=%d\nstore_retries=%d\n", l.workerRestartBudget, storeRetries)
	fmt.Fprintf(&b, "model_fail_threshold=%d\nmodel_probe_after=%s\nhealth_recency=%s\n", modelFailThreshold, l.modelProbeAfter, l.healthRecency)
	fmt.Fprintf(&b, "journey_sample_every=%d\n", l.journeys.SampleEvery())
	fmt.Fprintf(&b, "profile_mutex_fraction=%d\nprofile_block_rate_ns=%d\nprofile_dir=%s\n", prof.DefaultMutexFraction, prof.DefaultBlockRateNs, cfg.ProfileDir)
	fmt.Fprintf(&b, "fingerprint=%016x\n", l.fingerprint)
	return b.String()
}
