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

// liveShard is the per-shard mutable state of the runtime: the vote
// windows of the flows hashed onto the shard. The flow-table stripe
// lives in the ShardedTable and the journal stripe in the Store, both
// indexed by the same Key.Shard value.
//
// dirty and removed are the windows' delta-checkpoint marks,
// maintained only while the runtime tracks deltas (CheckpointDir
// set): windows voted into since the last capture, and windows
// deleted since it. A key lives in at most one set — the last action
// wins. Guarded by mu, like the windows they describe.
type liveShard struct {
	mu      sync.Mutex
	windows map[flow.Key][]int
	dirty   map[flow.Key]struct{}
	removed map[flow.Key]struct{}

	hand   sync.Mutex         // serializes the shard's hand-offs (Live.handoff)
	recs   []store.FlowRecord // journal-drain buffer, reused; guarded by hand
	polled *obs.Counter       // intddos_shard_polled_total{shard}
}

// Live runs the four Figure 2 modules as concurrent goroutines over
// the wall clock — the deployment mode of the paper's production
// implementation — sharing the same flow table, database, and voting
// logic as the simulated Mechanism. Timestamps are wall-clock
// nanoseconds widened into the same Time domain the rest of the
// repository uses.
//
// The hot path is sharded end to end by flow.Key hash: each shard has
// its own flow-table stripe, database journal, and ingester goroutine,
// and shards map to prediction workers round-robin, so every update of
// one flow flows through one lock stripe, one journal, one serialized
// hand-off, and one worker — per-flow prediction order is preserved at
// any worker count. With Shards=0 (the default) the layout degenerates
// to the legacy single-lock pipeline.
// Whoever journals a snapshot hands it to the shard's worker on the
// spot, and micro-batches form from the backlog a worker finds when it
// wakes: no timer sits between a report and its decision (the
// simulated Mechanism keeps the paper's poll-tick clock).
//
// The runtime is supervised: prediction workers recover from panics
// and are restarted with exponential backoff under a restart budget,
// transient store errors are retried with backoff, unhealthy ensemble
// members are voted around (quorum degrades to majority-of-available),
// and every record handed off is accounted for — decided,
// shed, or abandoned with a reason — even across panics and shutdown.
// The aggregate condition (healthy/degraded/shedding) is reported on
// /healthz.
type Live struct {
	cfg     LiveConfig
	nShards int

	tables *flow.ShardedTable
	shards []*liveShard

	// scorer is the Prediction module, shared read-only by every
	// prediction worker; its per-shard triage sketches are fed by the
	// shard's ingester under the checkpoint-barrier read lock.
	scorer *scorer

	DB  store.Store
	fdb store.Fallible // non-nil when DB surfaces transient errors

	// Checkpointing. ckptMu is the capture barrier, one lock per
	// shard: ingest and the hand-off it ends in hold only their own
	// shard's lock for read per burst, so shards never contend with each
	// other on the barrier; the sweeper and a checkpoint capture take
	// every lock in ascending shard order (all-read and all-write
	// respectively — the fixed order keeps the set acyclic), wait for
	// in-flight records to settle, and export a consistent cut.
	// rawDB is the concrete store beneath any fault wrapper — a
	// checkpoint must read real state, not a fault-shaped view of it.
	ckptMu      []sync.RWMutex
	rawDB       durableStore
	ckptSeq     atomic.Uint64
	fingerprint uint64
	restored    *RestoreSummary
	restoreMark uint64       // newest restored decision stamp: this process's decisions come after it
	completed   atomic.Int64 // records fully finished (decision logged, OnDecision returned)

	// Incremental checkpointing. deltaTrack reports that dirty tracking
	// is live across the table, store, and window layers (set once in
	// NewLive when CheckpointDir is configured, before any concurrent
	// use). lastBarrierNs is the most recent capture's barrier hold, for
	// the bench and /metrics.
	deltaTrack    bool
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
	// WriteCheckpoint path reuses — CaptureCheckpoint callers own
	// their snapshots indefinitely, so they always get fresh arrays.
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

	// Multi-producer ingest: HandleReport demuxes reports onto
	// per-shard queues; one ingester goroutine per shard owns the
	// journal appends for its stripe. quit (not a channel close —
	// producers are external and uncounted) is Stop's one signal: the
	// ingesters drain their queues and exit, the periodic goroutines
	// return, backoffs are cut short. ingestAccepted counts
	// observations enqueued, ingestDone observations journaled; the
	// difference is the demux backlog, which a checkpoint capture
	// settles before its cut (an accepted report must not vanish into
	// a queue the simulated crash discards).
	ingestChs      []chan flow.PacketInfo
	quit           chan struct{}
	ingestWg       sync.WaitGroup
	ingestAccepted atomic.Int64
	ingestDone     atomic.Int64

	workerChs []chan queued
	handing   atomic.Bool    // hand-off is live: set by Start, cleared by Stop
	everyWg   sync.WaitGroup // sweeper + periodic checkpointer
	workWg    sync.WaitGroup // worker supervisors (stop after channels close)
	stop      sync.Once

	reg    *obs.Registry
	met    liveMetrics
	tracer *obs.Tracer

	// Diagnostics: the structured event log (every noteworthy state
	// change), the flow-journey sampler, the contention profiler, and
	// per-worker busy-time accumulators (nanoseconds spent scoring).
	events        *obs.EventLog
	elog          *slog.Logger
	journeys      *obs.Journeys
	profiler      *prof.Profiler
	workerBusy    []atomic.Int64
	lastShedEvent atomic.Int64 // unix second of the last shed event (throttle)

	health      healthTracker
	modelHealth []*modelHealth
	workersDown atomic.Int32

	// OnDecision observes every final decision, on the prediction
	// worker's goroutine: keep it fast. Set it before Start. The
	// Decision is the callee's to keep, Votes included.
	OnDecision func(Decision)

	// dedup suppresses duplicate/stale reports per source at
	// HandleReport (nil when LiveConfig.DedupWindow is zero).
	dedup *telemetry.SeqTracker

	// Stats (atomics: read while running). Mirrored into the obs
	// registry; kept for compatibility with existing callers. Ledger
	// says how they add up.
	Reports     atomic.Int64
	Duplicates  atomic.Int64 // reports suppressed as duplicates
	StaleReps   atomic.Int64 // reports rejected as stale
	Reordered   atomic.Int64 // reports admitted out of order
	SeqGaps     atomic.Int64 // reports inferred lost upstream
	Snapshots   atomic.Int64
	Predictions atomic.Int64
	Shed        atomic.Int64
	Evictions   atomic.Int64

	// Robustness accounting (atomics: read while running).
	Polled         atomic.Int64 // records handed off to the workers
	Abandoned      atomic.Int64 // records abandoned, any reason
	StoreRetries   atomic.Int64 // transient store errors retried
	StoreDropped   atomic.Int64 // store writes dropped after retries
	WorkerRestarts atomic.Int64 // supervisor restarts after panics
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
	sc, err := newScorer(cfg.Models, cfg.Scaler, cfg.ModelQuorum, nShards,
		cfg.Triage, cfg.TriageThreshold, cfg.TriageModel)
	if err != nil {
		return nil, err
	}
	cfg.ModelQuorum = sc.quorum
	// The bundle fingerprint is computed over the caller's models
	// before fault wrapping (WrapModel preserves Name(), but the
	// fingerprint should describe the bundle, not the harness).
	fingerprint := bundleFingerprint(cfg.Models, cfg.Scaler, cfg.Features)
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
	// checkpoint path exports and imports the real state directly.
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
	}
	sc.ensemble = l.scoreBatch
	l.met = newLiveMetrics(l.reg)
	l.fdb, _ = db.(store.Fallible)
	if cfg.DedupWindow > 0 {
		l.dedup = telemetry.NewSeqTracker(cfg.DedupWindow, dedupMaxSources)
	}
	for i := range l.shards {
		l.shards[i] = &liveShard{
			windows: make(map[flow.Key][]int),
			dirty:   make(map[flow.Key]struct{}),
			removed: make(map[flow.Key]struct{}),
			polled:  l.met.shardPolled.With(strconv.Itoa(i)),
		}
	}
	l.ingestChs = make([]chan flow.PacketInfo, nShards)
	for i := range l.ingestChs {
		l.ingestChs[i] = make(chan flow.PacketInfo, ingestQueueCap)
	}
	perWorkerCap := cfg.QueueCap / cfg.Workers
	if perWorkerCap < 1 {
		perWorkerCap = 1
	}
	l.workerChs = make([]chan queued, cfg.Workers)
	for i := range l.workerChs {
		l.workerChs[i] = make(chan queued, perWorkerCap)
	}
	l.tables.SetIdleTimeout(netsim.Time(cfg.FlowIdleTimeout))
	// Downstream state keyed by flow dies with the table entry: the
	// eviction hook deletes the database record and the vote window the
	// moment Sweep removes a flow, so idle eviction bounds memory in
	// every layer (previously swept flows leaked store records).
	l.tables.SetOnEvict(l.onEvict)
	l.DB.SetJournalNew(!cfg.SkipNewRecords)
	// Diagnostics: the event log must exist before anything below can
	// log (restore does), and the registry carries the journey sampler
	// and runtime telemetry for /traces/flow and /metrics.
	l.events = l.reg.Events()
	l.elog = l.events.Logger()
	if cfg.JourneySampleEvery >= 0 {
		l.journeys = obs.NewJourneys(cfg.JourneySampleEvery, 0)
		l.reg.SetFlowJourneys(l.journeys)
	}
	obs.RegisterRuntimeMetrics(l.reg)
	l.tables.SetContentionHook(l.reg.Counter("intddos_flow_table_contention_total").Inc)
	l.workerBusy = make([]atomic.Int64, cfg.Workers)
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
	if cfg.TraceSampleEvery >= 0 {
		l.tracer = l.reg.Tracer("intddos_pipeline", cfg.TraceSampleEvery, 64)
	}
	l.reg.GaugeFunc("intddos_queue_depth", func() float64 {
		used, _ := l.queueLoad()
		return float64(used)
	})
	l.reg.GaugeFunc("intddos_queue_capacity", func() float64 {
		_, capacity := l.queueLoad()
		return float64(capacity)
	})
	l.reg.GaugeFunc("intddos_ingest_queue_depth", func() float64 {
		n := 0
		for _, ch := range l.ingestChs {
			n += len(ch)
		}
		return float64(n)
	})
	// Per-worker queue depth and utilization: which worker saturates
	// first is the difference between "add workers" and "fix the lock".
	depthVec := l.reg.GaugeVec("intddos_worker_queue_depth", "worker")
	busyVec := l.reg.GaugeVec("intddos_worker_busy_seconds", "worker")
	utilVec := l.reg.GaugeVec("intddos_worker_utilization", "worker")
	for w := range l.workerChs {
		w := w
		ws := strconv.Itoa(w)
		ch := l.workerChs[w]
		depthVec.WithFunc(ws, func() float64 { return float64(len(ch)) })
		busyVec.WithFunc(ws, func() float64 {
			return time.Duration(l.workerBusy[w].Load()).Seconds()
		})
		// Utilization is the busy fraction since the previous scrape;
		// the closure owns its window state (scrapes may be concurrent).
		var utilMu sync.Mutex
		lastAt := time.Now()
		var lastBusy int64
		utilVec.WithFunc(ws, func() float64 {
			utilMu.Lock()
			defer utilMu.Unlock()
			busy := l.workerBusy[w].Load()
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
	l.reg.GaugeFunc("intddos_vote_windows", func() float64 { return float64(l.windowCount()) })
	l.reg.GaugeFunc("intddos_pipeline_shards", func() float64 { return float64(l.nShards) })
	l.reg.GaugeFunc("intddos_health_state", func() float64 { return float64(l.Health()) })
	l.reg.GaugeFunc("intddos_workers_down", func() float64 { return float64(l.workersDown.Load()) })
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
		// Dirty tracking goes live before the restore and before any
		// concurrent use: restore resets the marks it touches, and every
		// layer's hot path reads its track flag without synchronization.
		l.deltaTrack = true
		rawDB.SetDeltaTracking(true)
		l.tables.SetDeltaTracking(true)
		if err := l.restoreLatest(cfg.CheckpointDir); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// Obs returns the runtime's metrics registry (the one passed in
// LiveConfig.Registry, or the private default). Mount Obs().Handler()
// to serve /metrics, /healthz, /traces, and pprof.
func (l *Live) Obs() *obs.Registry { return l.reg }

// MetricsSnapshot captures every runtime metric — counters, queue
// gauges, and the per-stage latency histograms — for end-of-run
// summaries.
func (l *Live) MetricsSnapshot() obs.Snapshot { return l.reg.Snapshot() }

// Shards returns the pipeline's stripe count.
func (l *Live) Shards() int { return l.nShards }

// now returns the wall clock in the repository's Time domain.
func now() netsim.Time { return netsim.Time(time.Now().UnixNano()) }

// Start launches the per-shard ingesters, the supervised Prediction
// workers, and (when configured) the eviction sweeper and the periodic
// checkpointer.
func (l *Live) Start() {
	l.startProfiler()
	l.event("pipeline started", "component", "lifecycle",
		"shards", l.nShards, "workers", l.cfg.Workers)
	l.handing.Store(true)
	for s := 0; s < l.nShards; s++ {
		l.ingestWg.Add(1)
		go l.ingester(s)
	}
	for w := 0; w < l.cfg.Workers; w++ {
		l.workWg.Add(1)
		go l.superviseWorker(w)
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

// Stop terminates the pipeline in three phases — the ingesters drain
// their queues and exit, then hand-off stops, then the worker
// channels are closed and the workers drain them — and waits for
// every goroutine. What happens to records still queued is policy:
// with DrainOnStop they are scored and logged like any other record;
// without it they are counted in
// intddos_records_abandoned{reason="stop"}. Either way nothing is
// dropped silently (reports handed to HandleReport after Stop begins
// are counted in intddos_ingest_dropped_total). Stop is idempotent —
// extra and concurrent calls wait for the same shutdown and return.
func (l *Live) Stop() {
	l.stop.Do(func() {
		close(l.quit)
		l.ingestWg.Wait()
		// A producer racing Stop can land a report in a queue after its
		// ingester's final drain; fold those in before hand-off stops
		// so they are journaled, not stranded.
		var row []float64
		for _, ch := range l.ingestChs {
			l.drainIngest(ch, &row)
		}
		l.everyWg.Wait()
		// Only hand-offs write to the worker channels. One already under
		// its shard's hand lock finishes its sends; a later one sees
		// handing cleared and leaves its rows journaled. Then the
		// channels can close; the workers run out their queues (scoring
		// or accounting per DrainOnStop) and return.
		l.handing.Store(false)
		for _, sh := range l.shards {
			sh.hand.Lock()
			sh.hand.Unlock()
		}
		for _, ch := range l.workerChs {
			close(ch)
		}
		l.workWg.Wait()
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
		MutexFraction: prof.DefaultMutexFraction,
		BlockRateNs:   prof.DefaultBlockRateNs,
		Dir:           l.cfg.ProfileDir,
		Interval:      l.cfg.ProfileInterval,
		Registry:      l.reg,
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

// Events returns the pipeline's structured event log.
func (l *Live) Events() *obs.EventLog { return l.events }

// Journeys returns the pipeline's flow-journey sampler (nil when
// disabled).
func (l *Live) Journeys() *obs.Journeys { return l.journeys }

// Journey helpers: a row no journey follows costs one atomic load; its
// key is hashed only when its Seq matches one in flight.

func (l *Live) jHop(key flow.Key, seq int, hop string) {
	if l.journeys.Following(seq) {
		l.journeys.Hop(obs.JourneyID{Flow: key.Hash(), Seq: seq}, hop)
	}
}

func (l *Live) jComplete(key flow.Key, seq int) {
	if l.journeys.Following(seq) {
		l.journeys.Complete(obs.JourneyID{Flow: key.Hash(), Seq: seq}, "vote")
	}
}

func (l *Live) jAbort(key flow.Key, seq int, reason string) {
	if l.journeys.Following(seq) {
		l.journeys.Abort(obs.JourneyID{Flow: key.Hash(), Seq: seq}, reason)
	}
}

// sleepQuit sleeps for d — a retry backoff — or until Stop begins,
// reporting whether the full duration elapsed.
func (l *Live) sleepQuit(d time.Duration) bool {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-l.quit:
		return false
	case <-timer.C:
		return true
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
func (l *Live) DecisionCount() int { return int(l.completed.Load()) }

// AbandonedByReason returns the per-reason abandonment counts
// (reasons: stop, panic, worker_down, no_model, malformed).
func (l *Live) AbandonedByReason() map[string]int64 {
	return l.met.abandoned.Values()
}

// abandon accounts one record lost for a reason.
func (l *Live) abandon(reason string) {
	l.Abandoned.Add(1)
	l.met.abandoned.With(reason).Inc()
}

// abandonRecord accounts one record lost to a fault: counted, its flow
// tainted, its sampled journey aborted.
func (l *Live) abandonRecord(rec store.FlowRecord, reason string) {
	l.abandon(reason)
	l.taintKey(rec.Key)
	l.jAbort(rec.Key, rec.Updates, reason)
}

// taintKey marks a flow as fault-touched when an injector is wired.
func (l *Live) taintKey(key flow.Key) {
	if l.cfg.Fault != nil {
		l.cfg.Fault.Taint(key.String())
	}
}

// windowCount sums live vote windows across shards.
func (l *Live) windowCount() int {
	n := 0
	for _, sh := range l.shards {
		sh.mu.Lock()
		n += len(sh.windows)
		sh.mu.Unlock()
	}
	return n
}
