package core

import (
	"log/slog"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/amlight/intddos/internal/checkpoint"
	"github.com/amlight/intddos/internal/fault"
	"github.com/amlight/intddos/internal/flow"
	"github.com/amlight/intddos/internal/ml"
	"github.com/amlight/intddos/internal/netsim"
	"github.com/amlight/intddos/internal/obs"
	"github.com/amlight/intddos/internal/obs/prof"
	"github.com/amlight/intddos/internal/store"
	"github.com/amlight/intddos/internal/telemetry"
)

// liveShard is one shard of the runtime: the queue reports wait in,
// the goroutine that drains it (runShard), and the rows it has taken
// and not yet decided. The flow-table stripe — one record per flow,
// vote window included — lives in the ShardedTable and the prediction
// log stripe in the Store, both indexed by the same Key.Shard value.
//
// run serializes the shard's passes — its goroutine's bursts, direct
// Ingest calls, the sweeper's visit, so no sweep lands between a row's
// take and its vote — and guards everything below it. Every writer
// also holds the shard's ckptMu for read, so a capture, which holds it
// for write, reads pending without run.
type liveShard struct {
	queue chan flow.Observation // the demux → runShard; QueueCap ÷ shards

	run sync.Mutex
	// pending is the shard's rows taken and not yet decided, in take
	// order: within a pass, the pass's own; outside Start..Stop, what
	// direct Ingest calls took; after a restore, the checkpoint's tail.
	// It is what a checkpoint writes as the shard's journal tail. slab
	// holds the feature rows fold cuts for them, reset by the first
	// pass that finds pending empty.
	pending []store.FlowRecord
	slab    []float64
	scratch batchScratch // scoring buffers (predictBatch)
	// journeys is the shard's share of the journey sampler: its
	// sampling counter, Following mask and active records.
	journeys *obs.JourneyShard
	// todo[:done] of the pass in progress are finished; a panic
	// abandons the rest.
	todo []store.FlowRecord
	done int
	// retried counts the log-write backoffs the pass in progress has
	// slept: one retry sequence a pass (see logPrediction).
	retried int

	// Supervision: restarts survived, the next restart's backoff, and
	// whether the restart budget is spent.
	restarts int
	backoff  time.Duration
	down     bool

	busy   atomic.Int64 // nanoseconds spent in passes, for the utilization gauge
	polled *obs.Counter // intddos_shard_polled_total{shard}
}

// Live runs the four Figure 2 modules over the wall clock — the
// deployment mode of the paper's production implementation — sharing
// the same flow table, database, and voting logic as the simulated
// Mechanism. Timestamps are wall-clock nanoseconds widened into the
// same Time domain the rest of the repository uses.
//
// The shard is the unit of execution. Each shard has its own
// flow-table stripe, prediction-log stripe, report queue, and one
// goroutine that runs each burst it takes from the queue to
// completion: fold every row into its flow's record and the shard's
// pending rows (Data Processor), take the pending rows (CentralServer),
// score, vote and log (Prediction). The store is the decision log: a
// row waits in its shard, not in a database journal. Every update of a
// flow goes through one queue and one goroutine, so per-flow decision
// order holds at any shard count; with Shards=0 (the default) the
// layout degenerates to the legacy single-lock pipeline. Batches form
// from the backlog a shard finds when it wakes: no timer sits between
// a report and its decision (the simulated Mechanism keeps the paper's
// poll-tick clock).
//
// The runtime is supervised: a shard recovers from a panic and
// restarts with exponential backoff under a restart budget, transient
// log-write errors are retried with backoff, unhealthy ensemble members
// are voted around (quorum degrades to majority-of-available), and
// every row taken for a decision is accounted for — decided, shed, or
// abandoned with a reason — even across panics and shutdown. The
// aggregate condition (healthy/degraded/shedding) is reported on
// /healthz.
type Live struct {
	cfg LiveConfig
	// drainOnStop makes Stop score every record still queued instead
	// of abandoning it. Off, as in the paper's shutdown; tests set it
	// between NewLive and Start to pin the other policy.
	drainOnStop bool
	nShards     int

	tables *flow.ShardedTable
	shards []*liveShard

	// scorer is the Prediction module, shared read-only by every
	// shard; its per-shard triage sketches are fed by fold under the
	// checkpoint-barrier read lock.
	scorer *scorer

	DB  store.Store
	fdb store.Fallible // non-nil when DB surfaces transient errors

	// Fixed bounds, set from the constants of the same names; tests
	// change them between NewLive and Start.
	shedAfter           time.Duration
	workerRestartBudget int
	modelProbeAfter     time.Duration
	healthRecency       time.Duration

	// Checkpointing. ckptMu is the capture barrier, one lock per
	// shard: a shard's pass holds only its own lock for read, so
	// shards never contend with each other on the barrier; a capture
	// takes every lock for write in ascending shard order, so it waits
	// out at most one pass per shard and sees no row between its take
	// and its decision. rawDB is the concrete store beneath any fault
	// wrapper — a checkpoint must read real state, not a fault-shaped
	// view of it.
	ckptMu      []sync.RWMutex
	rawDB       durableStore
	ckptSeq     atomic.Uint64
	fingerprint uint64
	restored    *RestoreSummary
	restoreMark uint64 // newest restored decision stamp: this process's decisions come after it

	// lastBarrierNs is the most recent capture's barrier hold, for the
	// bench and /metrics.
	lastBarrierNs atomic.Int64

	// ckptWriteMu serializes WriteCheckpoint callers (the periodic
	// checkpointer, shutdown, signal handlers) and guards the chain
	// bookkeeping below: whether a base exists on disk for deltas to
	// chain to, how many deltas were written since the last full, and
	// the (seq, CRC) identity of the newest file — the parent link the
	// next delta records. A failed write clears haveBase: the capture
	// consumed the dirty marks, so the next checkpoint must be full or
	// the chain would silently skip a delta.
	ckptWriteMu sync.Mutex
	haveBase    bool
	sinceFull   int
	lastCkptSeq uint64
	lastCkptCRC uint32

	// ckptScratch holds the previous full capture's export arrays,
	// reclaimed after its snapshot has been encoded to disk and handed
	// back to the next full capture, which then copies into warm
	// memory instead of allocating (and page-faulting) hundreds of
	// megabytes inside the barrier. Guarded by ckptWriteMu; only the
	// WriteCheckpoint path reuses — a capture given no scratch owns
	// its snapshot indefinitely, so it always gets fresh arrays.
	ckptScratch *captureScratch

	// encScratch is the encoder's buffer freelist, owned here so the
	// buffers survive the GC cycles between periodic checkpoints
	// (sync.Pool would be drained long before the next write). Guarded
	// by ckptWriteMu like ckptScratch; it never influences the encoded
	// bytes, only allocation.
	encScratch *checkpoint.EncodeScratch

	// ckptPostCapture, when set (tests), runs after the capture barrier
	// has released and before the snapshot is encoded or written.
	ckptPostCapture func(*checkpoint.Snapshot)

	// Multi-producer ingest: HandleReport demuxes reports onto the
	// shard queues. quit (not a channel close — producers are external
	// and uncounted) is Stop's one signal: the shards take what is
	// queued and exit, the periodic goroutines return, backoffs are cut
	// short. running gates deciding: outside Start..Stop a pass only
	// takes. ingestAccepted counts observations enqueued (or handed to
	// Ingest), ingestDone observations taken; the difference is the
	// queued backlog, which a checkpoint capture settles before its cut
	// (an accepted report must not vanish into a queue the simulated
	// crash discards).
	quit           chan struct{}
	running        atomic.Bool
	shardWg        sync.WaitGroup // runShard goroutines
	everyWg        sync.WaitGroup // sweeper + periodic checkpointer
	stop           sync.Once
	ingestAccepted atomic.Int64
	ingestDone     atomic.Int64

	reg *obs.Registry
	met liveMetrics

	// Diagnostics: the structured event log (every noteworthy state
	// change), the flow-journey sampler and the contention profiler.
	events        *obs.EventLog
	elog          *slog.Logger
	journeys      *obs.Journeys
	profiler      *prof.Profiler
	lastShedEvent atomic.Int64 // unix second of the last shed event (throttle)

	health      healthTracker
	modelHealth []*modelHealth
	shardsDown  atomic.Int32

	// OnDecision observes every final decision, on the deciding
	// shard's goroutine under its run lock: keep it fast, and call
	// nothing that takes shard locks (Ledger, AwaitSettled, Stop). Set
	// it before Start. The Decision is the callee's to keep except
	// Votes, which are valid only during the call (they live in the
	// shard's scoring scratch): clone them to keep them.
	OnDecision func(Decision)

	// dedup suppresses duplicate/stale reports per source at
	// HandleReport (nil when LiveConfig.DedupWindow is zero).
	dedup *telemetry.SeqTracker
	// attacks interns the attack types observations carry through the
	// shard queues as indexes.
	attacks attackTypes

	// Stats (atomics: read while running). Each is the one count of its
	// fact: the registry reads it on scrape (registerAtomics). Ledger
	// says how they add up.
	Reports     atomic.Int64
	Duplicates  atomic.Int64 // reports suppressed as duplicates
	StaleReps   atomic.Int64 // reports rejected as stale
	Reordered   atomic.Int64 // reports admitted out of order
	SeqGaps     atomic.Int64 // reports inferred lost upstream
	Snapshots   atomic.Int64
	Predictions atomic.Int64 // decisions finished: logged, OnDecision returned
	Shed        atomic.Int64
	Evictions   atomic.Int64

	// Robustness accounting (atomics: read while running).
	Polled         atomic.Int64 // rows taken for a decision
	Abandoned      atomic.Int64 // rows abandoned, any reason
	StoreRetries   atomic.Int64 // transient log-write errors retried
	StoreDropped   atomic.Int64 // log writes dropped after retries (abandoned, store_dropped)
	WorkerRestarts atomic.Int64 // shard restarts after panics
	ModelFailures  atomic.Int64 // failed ensemble scoring calls
	Checkpoints    atomic.Int64 // checkpoints successfully written
}

// NewLive validates cfg and builds the runtime.
func NewLive(cfg LiveConfig) (*Live, error) {
	cfg.defaults()
	nShards := max(cfg.Shards, 1)
	// The bundle is validated — and the triage model resolved — before
	// fault wrapping: the cascade needs the model's probability path,
	// which fault wrappers do not expose. Triage is a performance tier,
	// not a fault surface — fall-through rows still score through the
	// wrapped ensemble.
	sc, err := newScorer(cfg.Models, cfg.Scaler, nShards,
		cfg.Triage, cfg.TriageThreshold, cfg.TriageModel)
	if err != nil {
		return nil, err
	}
	// The bundle fingerprint is computed over the caller's models
	// before fault wrapping (WrapModel preserves Name(), but the
	// fingerprint should describe the bundle, not the harness).
	fingerprint := bundleFingerprint(cfg.Models, cfg.Scaler, intFeatures)
	// The ensemble is scored through each model's fallible path; with
	// an injector configured the models are wrapped so scheduled
	// scoring failures and latency can fire. The slice is copied —
	// the caller's models are never mutated.
	models := make([]ml.Classifier, len(cfg.Models))
	copy(models, cfg.Models)
	if cfg.Fault != nil {
		for i, m := range models {
			models[i] = fault.WrapModel(m, cfg.Fault)
		}
	}
	cfg.Models = models

	// The concrete store is kept apart from any fault wrapping: the
	// checkpoint path exports and imports the real log directly.
	var rawDB durableStore = store.New() // the paper's exact single-lock layout
	if cfg.Shards > 0 {
		rawDB = store.NewSharded(cfg.Shards)
	}
	var db store.Store = rawDB
	if cfg.Fault != nil && cfg.Fault.Spec().HasStoreFaults() {
		db = fault.WrapStore(db, cfg.Fault)
	}
	l := &Live{
		cfg:         cfg,
		nShards:     nShards,
		tables:      flow.NewShardedTable(nShards),
		shards:      make([]*liveShard, nShards),
		DB:          db,
		rawDB:       rawDB,
		fingerprint: fingerprint,
		scorer:      sc,
		ckptMu:      make([]sync.RWMutex, nShards),
		quit:        make(chan struct{}),
		reg:         cfg.Registry,
		journeys:    obs.NewJourneys(obs.DefaultJourneySampleEvery, 0, nShards),

		shedAfter:           shedAfter,
		workerRestartBudget: workerRestartBudget,
		modelProbeAfter:     modelProbeAfter,
		healthRecency:       healthRecency,
	}
	sc.ensemble = l.scoreBatch
	l.met = newLiveMetrics(l.reg)
	l.registerAtomics()
	l.fdb, _ = db.(store.Fallible)
	if cfg.DedupWindow > 0 {
		l.dedup = telemetry.NewSeqTracker(cfg.DedupWindow, dedupMaxSources)
	}
	for i := range l.shards {
		l.shards[i] = &liveShard{
			queue:    make(chan flow.Observation, max(cfg.QueueCap/nShards, 1)),
			journeys: l.journeys.Shard(i),
			backoff:  cfg.WorkerRestartBackoff,
			polled:   l.met.shardPolled.With(strconv.Itoa(i)),
		}
	}
	l.tables.SetIdleTimeout(netsim.Time(cfg.FlowIdleTimeout))
	// Diagnostics: the event log must exist before anything below can
	// log (restore does), and the registry carries the journey sampler
	// and runtime telemetry for /traces/flow and /metrics.
	l.events = l.reg.Events()
	l.elog = l.events.Logger()
	l.reg.SetFlowJourneys(l.journeys)
	obs.RegisterRuntimeMetrics(l.reg)
	l.tables.SetContentionHook(l.reg.Counter("intddos_flow_table_contention_total").Inc)
	l.modelHealth = make([]*modelHealth, len(cfg.Models))
	for i, m := range cfg.Models {
		name := m.Name()
		// Two members with one name would share fault targeting and
		// health reporting; disambiguate by position.
		for j := 0; j < i; j++ {
			if l.modelHealth[j].name == name {
				name = name + "#" + strconv.Itoa(i)
				break
			}
		}
		l.modelHealth[i] = &modelHealth{name: name}
		l.met.modelHealthy.With(name).Set(1)
	}
	l.reg.GaugeFunc("intddos_queue_depth", func() float64 {
		used, _ := l.queueLoad()
		return float64(used)
	})
	l.reg.GaugeFunc("intddos_queue_capacity", func() float64 {
		_, capacity := l.queueLoad()
		return float64(capacity)
	})
	// Per-shard queue depth and utilization: which shard saturates
	// first is the difference between "add shards" and "fix the hash".
	depthVec := l.reg.GaugeVec("intddos_shard_queue_depth", "shard")
	busyVec := l.reg.GaugeVec("intddos_shard_busy_seconds", "shard")
	utilVec := l.reg.GaugeVec("intddos_shard_utilization", "shard")
	for s, sh := range l.shards {
		ss := strconv.Itoa(s)
		depthVec.WithFunc(ss, func() float64 { return float64(len(sh.queue)) })
		busyVec.WithFunc(ss, func() float64 {
			return time.Duration(sh.busy.Load()).Seconds()
		})
		// Utilization is the busy fraction since the previous scrape;
		// the closure owns its window state (scrapes may be concurrent).
		var utilMu sync.Mutex
		lastAt := time.Now()
		var lastBusy int64
		utilVec.WithFunc(ss, func() float64 {
			utilMu.Lock()
			defer utilMu.Unlock()
			busy := sh.busy.Load()
			nowT := time.Now()
			dt := nowT.Sub(lastAt)
			if dt <= 0 {
				return 0
			}
			u := float64(busy-lastBusy) / float64(dt)
			lastBusy, lastAt = busy, nowT
			return u
		})
	}
	// Sketch saturation and entropy per shard: occupancy climbing
	// toward 1 means the count-min counters are filling up (widen the
	// sketch or shorten its life), entropy collapsing toward 0 means
	// the shard's key distribution has — the triage veto is active.
	if sc.sketches != nil {
		occVec := l.reg.GaugeVec("intddos_sketch_occupancy", "shard")
		entVec := l.reg.GaugeVec("intddos_sketch_entropy", "shard")
		for s, sk := range sc.sketches {
			ss := strconv.Itoa(s)
			occVec.WithFunc(ss, sk.Occupancy)
			entVec.WithFunc(ss, sk.Entropy)
		}
	}
	l.reg.GaugeFunc("intddos_flows", func() float64 { return float64(l.tables.Len()) })
	l.reg.GaugeFunc("intddos_pipeline_shards", func() float64 { return float64(l.nShards) })
	l.reg.GaugeFunc("intddos_health_state", func() float64 { return float64(l.Health()) })
	l.reg.GaugeFunc("intddos_shards_down", func() float64 { return float64(l.shardsDown.Load()) })
	if cfg.Fault != nil {
		sites := l.reg.GaugeVec("intddos_faults_injected", "site")
		for _, name := range fault.Sites() {
			name := name
			sites.WithFunc(name, func() float64 { return float64(cfg.Fault.SiteCount(name)) })
		}
	}
	l.reg.SetHealth(l.healthReport)
	l.reg.AddBundleFile("config.txt", func() ([]byte, error) {
		return []byte(l.describeConfig()), nil
	})
	l.DB.Instrument(l.reg)
	if cfg.CheckpointDir != "" {
		// A process killed mid-write leaves its temp file behind, and
		// nothing else ever removes it.
		if err := checkpoint.RemoveTemps(cfg.CheckpointDir); err != nil {
			l.elog.Warn("checkpoint temp sweep failed", "component", "checkpoint", "err", err.Error())
		}
		// Dirty tracking goes live before the restore and before any
		// concurrent use: the table's hot path reads its track flag
		// without synchronization.
		l.tables.SetDeltaTracking(true)
		if err := l.restoreLatest(cfg.CheckpointDir); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// MetricsSnapshot captures every runtime metric — counters, queue
// gauges, and the per-stage latency histograms — for end-of-run
// summaries.
func (l *Live) MetricsSnapshot() obs.Snapshot { return l.reg.Snapshot() }

// now returns the wall clock in the repository's Time domain.
func now() netsim.Time { return netsim.Time(time.Now().UnixNano()) }

// Start launches one goroutine per shard and (when configured) the
// eviction sweeper and the periodic checkpointer.
func (l *Live) Start() {
	l.startProfiler()
	l.event("pipeline started", "component", "lifecycle", "shards", l.nShards)
	l.running.Store(true)
	for s := 0; s < l.nShards; s++ {
		l.shardWg.Add(1)
		go l.runShard(s)
	}
	if l.cfg.FlowIdleTimeout > 0 {
		l.everyWg.Add(1)
		go l.every(l.cfg.SweepInterval, l.sweep)
	}
	if l.cfg.CheckpointDir != "" && l.cfg.CheckpointEvery > 0 {
		l.everyWg.Add(1)
		// Errors are counted and reported via metrics/healthz; the next
		// tick retries.
		go l.every(l.cfg.CheckpointEvery, func() { l.WriteCheckpoint() })
	}
}

// Stop terminates the pipeline — each shard takes what is queued and
// exits — and waits for every goroutine. Records still queued, or
// still undecided in a pass when Stop begins, are abandoned and
// counted in intddos_records_abandoned{reason="stop"}, as the paper's
// shutdown drops its in-flight work; nothing is dropped silently
// (reports handed to HandleReport after Stop begins are counted in
// intddos_ingest_dropped_total). Stop is idempotent — extra and
// concurrent calls wait for the same shutdown and return.
func (l *Live) Stop() {
	l.stop.Do(func() {
		close(l.quit)
		l.shardWg.Wait()
		l.everyWg.Wait()
		// A producer racing Stop can land a report in a queue after its
		// shard's final pass; fold those in before deciding stops so
		// they are taken and accounted, not stranded.
		for s := range l.shards {
			l.takeQueued(s)
		}
		l.running.Store(false)
		l.profiler.Stop()
		l.event("pipeline stopped", "component", "lifecycle", "ledger", l.Ledger().String())
	})
}

// startProfiler enables always-on contention profiling for the
// pipeline's lifetime and wires the attribution report into the
// registry. A capture directory that cannot be created degrades to
// profiling without on-disk snapshots.
func (l *Live) startProfiler() {
	cfg := prof.Config{
		Dir:      l.cfg.ProfileDir,
		Interval: l.cfg.ProfileInterval,
		Registry: l.reg,
	}
	p, err := prof.Start(cfg)
	if err != nil {
		l.elog.Warn("profile capture dir unavailable", "component", "prof", "err", err.Error())
		cfg.Dir = ""
		p, _ = prof.Start(cfg)
	}
	l.profiler = p
}

// event appends one structured event to the pipeline's event log.
func (l *Live) event(msg string, attrs ...any) {
	l.elog.Info(msg, attrs...)
}

// sleepQuit sleeps for d — a shard's restart backoff — or until Stop
// begins.
func (l *Live) sleepQuit(d time.Duration) {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-l.quit:
	case <-timer.C:
	}
}

// every runs fn each period until Stop: the eviction sweeper's and
// the periodic checkpointer's goroutine.
func (l *Live) every(period time.Duration, fn func()) {
	defer l.everyWg.Done()
	ticker := time.NewTicker(period)
	defer ticker.Stop()
	for {
		select {
		case <-l.quit:
			return
		case <-ticker.C:
			fn()
		}
	}
}

// Decisions materialises this process's decisions (not history restored
// from a checkpoint), in logged order, from the store's prediction log.
func (l *Live) Decisions() []Decision {
	c := l.rawDB.PredictionCursor(l.restoreMark)
	out := make([]Decision, 0, c.Remaining())
	for p, ok := c.Next(); ok; p, ok = c.Next() {
		out = append(out, decisionOf(p))
	}
	return out
}

// DecisionCount returns how many decisions this process has made — one
// atomic read; Decisions holds at least that many.
func (l *Live) DecisionCount() int { return int(l.Predictions.Load()) }

// AbandonedByReason returns the per-reason abandonment counts
// (reasons: stop, panic, worker_down — a shard past its restart
// budget —, no_model, malformed, store_dropped).
func (l *Live) AbandonedByReason() map[string]int64 {
	return l.met.abandoned.Values()
}

// abandon accounts one record lost for a reason.
func (l *Live) abandon(reason string) {
	l.Abandoned.Add(1)
	l.met.abandoned.With(reason).Inc()
}

// abandonRecord accounts one of sh's records lost to a fault: counted,
// its flow tainted, its sampled journey aborted.
func (l *Live) abandonRecord(sh *liveShard, rec *store.FlowRecord, reason string) {
	l.abandon(reason)
	l.taintKey(rec.Key)
	sh.journeys.Abort(&rec.Key, rec.Updates, reason)
}

// taintKey marks a flow as fault-touched when an injector is wired.
func (l *Live) taintKey(key flow.Key) {
	if l.cfg.Fault != nil {
		l.cfg.Fault.Taint(key.String())
	}
}

// windowedFlows counts flow-table records holding a vote window.
func (l *Live) windowedFlows() int {
	n := 0
	l.tables.Range(func(st *flow.State) bool {
		if st.Window.Len() > 0 {
			n++
		}
		return true
	})
	return n
}

// sweep evicts flows idle past FlowIdleTimeout, one shard at a time,
// each under its barrier's read side (a sweep must not interleave with
// a capture) and its run lock. A flow's vote window goes with its
// record.
func (l *Live) sweep() {
	evicted := 0
	for s, sh := range l.shards {
		l.ckptMu[s].RLock()
		sh.run.Lock()
		evicted += l.tables.SweepShard(s, now())
		sh.run.Unlock()
		l.ckptMu[s].RUnlock()
	}
	l.Evictions.Add(int64(evicted))
	if evicted > 0 {
		l.event("flows evicted", "component", "sweep", "evicted", evicted)
	}
}
