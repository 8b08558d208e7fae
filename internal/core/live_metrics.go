package core

import (
	"sync/atomic"

	"github.com/amlight/intddos/internal/obs"
)

// liveMetrics bundles the runtime's obs instruments for facts no public
// atomic already counts (registerAtomics exposes those). All fields are
// nil-safe, so a zero value disables instrumentation.
type liveMetrics struct {
	polls *obs.Counter

	decisions *obs.CounterVec // by attack_type
	misclass  *obs.CounterVec // by attack_type

	// Bottleneck-attribution instruments: ingest calls that found the
	// checkpoint barrier held, reports dropped at the ingest demux
	// after Stop, and per-shard rows taken for a decision.
	ingestStalls  *obs.Counter
	ingestDropped *obs.Counter
	shardPolled   *obs.CounterVec // by shard

	// Robustness accounting: every row taken for a decision is
	// eventually a decision, a shed, or an abandonment with a reason —
	// nothing vanishes silently.
	abandoned         *obs.CounterVec // by reason: stop/panic/worker_down/no_model/malformed/store_dropped
	workerPanics      *obs.Counter
	degradedBatches   *obs.Counter
	modelFailures     *obs.CounterVec // by model
	modelHealthy      *obs.GaugeVec   // by model, 1 healthy / 0 unhealthy
	healthTransitions *obs.CounterVec // by state entered

	predictLatency *obs.Histogram // end-to-end §III-2 prediction latency
	batchSize      *obs.Histogram // records per micro-batch scoring call

	// Tiered-inference instruments: per-stage exit counters (label
	// "fallthrough" counts rows that paid for the full ensemble; the
	// stage-1 and fallthrough children are cached off the hot path)
	// and the cost of the triage pass itself.
	triageExits       *obs.CounterVec // by stage: "1", ..., "fallthrough"
	triageExitStage1  *obs.Counter
	triageFallthrough *obs.Counter
	triageLatency     *obs.Histogram

	// Checkpoint/restore instruments. ckptDuration covers the whole
	// write (capture + encode + fsync); ckptBarrier only the pause the
	// pipeline actually feels — the window in which the per-shard
	// barrier locks are held. Prune failures are counted apart from
	// write failures: a failed write lost a snapshot, a failed prune
	// only leaked disk.
	ckptFailures      *obs.Counter
	ckptPruneFailures *obs.Counter
	ckptBytes         *obs.Counter
	ckptDuration      *obs.Histogram
	ckptBarrier       *obs.Histogram
	ckptLastSuccess   *obs.Gauge
	restores          *obs.Counter
	restoredRecs      *obs.CounterVec // by kind: flows/journal_pending/windows/predictions

	// Per-stage latency histograms (children of intddos_stage_seconds
	// cached so the hot path skips the vec lookup).
	stageIngest  *obs.Histogram
	stageJournal *obs.Histogram
	stageQueue   *obs.Histogram
	stagePredict *obs.Histogram
	stageVote    *obs.Histogram
}

// newLiveMetrics registers the runtime's instruments on reg.
func newLiveMetrics(reg *obs.Registry) liveMetrics {
	stages := reg.HistogramVec("intddos_stage_seconds", "stage", nil)
	triageExits := reg.CounterVec("intddos_triage_exits_total", "stage")
	return liveMetrics{
		triageExits:       triageExits,
		triageExitStage1:  triageExits.With("1"),
		triageFallthrough: triageExits.With("fallthrough"),
		triageLatency:     reg.Histogram("intddos_triage_seconds", nil),
		polls:             reg.Counter("intddos_polls_total"),
		decisions:         reg.CounterVec("intddos_decisions_total", "attack_type"),
		misclass:          reg.CounterVec("intddos_misclassified_total", "attack_type"),
		ingestStalls:      reg.Counter("intddos_ingest_barrier_stalls_total"),
		ingestDropped:     reg.Counter("intddos_ingest_dropped_total"),
		shardPolled:       reg.CounterVec("intddos_shard_polled_total", "shard"),
		abandoned:         reg.CounterVec("intddos_records_abandoned", "reason"),
		workerPanics:      reg.Counter("intddos_worker_panics_total"),
		degradedBatches:   reg.Counter("intddos_degraded_batches_total"),
		modelFailures:     reg.CounterVec("intddos_model_failures_total", "model"),
		modelHealthy:      reg.GaugeVec("intddos_model_healthy", "model"),
		healthTransitions: reg.CounterVec("intddos_health_transitions_total", "state"),
		predictLatency:    reg.Histogram("intddos_predict_latency_seconds", nil),
		batchSize:         reg.Histogram("intddos_predict_batch_size", []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}),
		ckptFailures:      reg.Counter("intddos_checkpoint_failures_total"),
		ckptPruneFailures: reg.Counter("intddos_checkpoint_prune_failures_total"),
		ckptBytes:         reg.Counter("intddos_checkpoint_bytes_total"),
		ckptDuration:      reg.Histogram("intddos_checkpoint_duration_seconds", nil),
		ckptBarrier:       reg.Histogram("intddos_checkpoint_barrier_seconds", nil),
		ckptLastSuccess:   reg.Gauge("intddos_checkpoint_last_success_unixtime"),
		restores:          reg.Counter("intddos_restores_total"),
		restoredRecs:      reg.CounterVec("intddos_restored_records_total", "kind"),
		stageIngest:       stages.With("ingest"),
		stageJournal:      stages.With("journal_wait"),
		stageQueue:        stages.With("queue_wait"),
		stagePredict:      stages.With("scale_predict"),
		stageVote:         stages.With("vote"),
	}
}

// registerAtomics exposes the runtime's public atomics under their
// series names. The atomic is the one count of its fact: the registry
// reads it on scrape, so the two can never disagree.
func (l *Live) registerAtomics() {
	for name, v := range map[string]*atomic.Int64{
		"intddos_reports_total":           &l.Reports,
		"intddos_reports_duplicate_total": &l.Duplicates,
		"intddos_reports_stale_total":     &l.StaleReps,
		"intddos_reports_reordered_total": &l.Reordered,
		"intddos_reports_seq_gaps_total":  &l.SeqGaps,
		"intddos_snapshots_total":         &l.Snapshots,
		"intddos_predictions_total":       &l.Predictions,
		"intddos_shed_total":              &l.Shed,
		"intddos_evictions_total":         &l.Evictions,
		"intddos_records_polled_total":    &l.Polled,
		"intddos_store_retries_total":     &l.StoreRetries,
		"intddos_store_dropped_total":     &l.StoreDropped,
		"intddos_worker_restarts_total":   &l.WorkerRestarts,
		"intddos_checkpoints_total":       &l.Checkpoints,
	} {
		l.reg.CounterOf(name, v)
	}
}
