// Package core implements the paper's primary contribution: the
// automated DDoS detection mechanism of Figure 2. Four modules
// cooperate around the database:
//
//	INT Data Collection — terminates collector reports and extracts
//	packet-level fields (steps 1–2);
//	Data Processor — maintains the flow table, derives flow-level
//	features, writes snapshots to the database, and aggregates final
//	decisions (steps 3, 7–8);
//	CentralServer — polls the database for record updates and feeds
//	them to prediction, then routes predictions back (steps 4–7);
//	Prediction — standardizes snapshots and runs the pre-trained
//	model ensemble (steps 5–6).
//
// The Prediction module is modelled as a single-server queue with a
// configurable per-item service time on the virtual clock, so
// prediction latency — including the backlog growth the paper
// observes under high-volume benign traffic — emerges from queueing
// rather than being scripted.
package core

import (
	"fmt"
	"slices"

	"github.com/amlight/intddos/internal/flow"
	"github.com/amlight/intddos/internal/ml"
	"github.com/amlight/intddos/internal/netsim"
	"github.com/amlight/intddos/internal/store"
	"github.com/amlight/intddos/internal/telemetry"
)

// Config parameterizes the mechanism.
type Config struct {
	// Features selects the model input vector (default: the paper's
	// 15 INT features).
	Features flow.FeatureSet
	// Models is the pre-trained ensemble (the paper uses MLP+RF+GNB).
	Models []ml.Classifier
	// Scaler standardizes snapshots before prediction; required.
	Scaler *ml.StandardScaler

	// PollInterval is the CentralServer's database polling period
	// (default 2 ms).
	PollInterval netsim.Time
	// PollBatch bounds records fetched per poll (default 64).
	PollBatch int
	// ServiceTime is the Prediction module's per-item cost on the
	// virtual clock (default 1 ms), standing in for the Python
	// inference + IPC cost of the paper's implementation.
	ServiceTime netsim.Time
	// QueueCap bounds the prediction input queue; beyond it updates
	// are dropped and counted (default unbounded).
	QueueCap int

	// ModelQuorum is how many ensemble votes make a raw attack
	// prediction (default 2 of 3, §IV-C4).
	ModelQuorum int
	// VoteWindow smooths per-flow decisions over the last N raw
	// predictions (default 3, §IV-C4); at most flow.MaxVoteWindow.
	VoteWindow int

	// SkipNewRecords restricts prediction to record *updates*, the
	// strict reading of §III-3 (the CentralServer "does not consider
	// new entries"). The default (false) also predicts on brand-new
	// records, which the testbed behaviour — per-packet decisions
	// from the first packet on, Figure 7 — requires.
	SkipNewRecords bool

	// PredictBatch is the Prediction module's scoring batch: when the
	// service queue holds several records, the ensemble scores up to
	// this many of them in one amortized batch call, and completions
	// then drain the cached scores one record per ServiceTime. Timing,
	// decision order, and votes are identical to per-sample scoring
	// (the batch contract guarantees row-for-row equality), so Table
	// VI is byte-identical at any batch size. Zero or one keeps
	// per-sample scoring, the paper-faithful default.
	PredictBatch int

	// FlowIdleTimeout evicts idle flows (with their vote windows and
	// database records); zero disables. SweepInterval defaults to the
	// timeout.
	FlowIdleTimeout netsim.Time
	SweepInterval   netsim.Time

	// Shards selects the database layout: zero keeps the paper's
	// single-lock store.DB, n >= 1 stripes the journal over a
	// store.ShardedDB with n shards. The simulated mechanism is
	// single-threaded either way, and the CentralServer polls the
	// merged global journal order, so the decision stream — and Table
	// VI — is bit-exact at every shard count.
	Shards int

	// Triage enables tiered inference: a streaming sketch over the
	// ingest stream plus a confidence-thresholded stage-0 model
	// early-exit confident rows before the full ensemble vote (ROADMAP
	// item 2). Off (the default) keeps the paper's score-everything
	// contract bit-identical. TriageThreshold is the minimum stage-0
	// confidence |2p-1| to exit (<= 0 leaves the cascade inert — the
	// tiered code path runs but every row falls through, still
	// bit-identical). TriageModel picks the stage-0 model; nil selects
	// the last probability-capable ensemble member (GNB in the paper's
	// MLP/RF/GNB order — also the cheapest).
	Triage          bool
	TriageThreshold float64
	TriageModel     ml.Classifier
}

// Decision is one final, smoothed classification of a flow snapshot.
type Decision struct {
	Key   flow.Key
	Label int
	// Seq is the per-flow decision index (0 = first decision).
	Seq int
	// At is the decision time; Latency measures from the snapshot's
	// registration (§III-2's Prediction Latency).
	At      netsim.Time
	Latency netsim.Time
	// Votes are the raw per-model outputs for this snapshot. For a
	// triage-exited record (Stage > 0) the slice holds the single
	// stage-0 vote instead of the full ensemble's. Live's OnDecision
	// lends them for the call only (see Live.OnDecision).
	Votes []int
	// Stage is the decision's provenance in the tiered cascade: 0 for
	// the full-ensemble path (every decision when triage is off, so
	// legacy output is unchanged), n >= 1 when cascade stage n
	// early-exited the record.
	Stage int

	Truth      bool
	AttackType string
}

// decisionOf is the Decision view of a logged prediction: the store's
// log keeps the one record, Decisions are read from it.
func decisionOf(p store.PredictionRecord) Decision {
	return Decision{
		Key: p.Key, Label: p.Label, Seq: p.FlowSeq, At: p.At, Latency: p.Latency,
		Votes: p.Votes, Stage: p.Stage, Truth: p.Truth, AttackType: p.AttackType,
	}
}

// Correct reports whether the decision matches ground truth.
func (d Decision) Correct() bool { return (d.Label == 1) == d.Truth }

// Mechanism wires the four modules together on a netsim engine.
type Mechanism struct {
	eng *netsim.Engine
	cfg Config

	Table *flow.Table
	DB    store.Store

	// gcursor is the CentralServer's position in the global journal
	// order: PollGlobal merges the per-shard journals by their global
	// ingest stamps, so the poll stream is the exact sequence of
	// UpsertFlow calls regardless of shard count — the invariant the
	// Table VI golden tests pin across layouts.
	gcursor uint64
	queue   []store.FlowRecord
	busy    bool

	// scorer is the Prediction module; scored caches its verdicts for
	// the queue head block: index 0 always corresponds to queue[0].
	// Scoring is pure, so scoring records at batch time instead of
	// service time changes nothing observable.
	scorer  *scorer
	scratch batchScratch
	scored  []verdict
	// row is the Data Processor's feature-row scratch: dead once
	// UpsertFlow has copied it.
	row []float64

	// OnDecision observes every final decision as it is made.
	OnDecision func(Decision)
	// Decisions accumulates the full decision log.
	Decisions []Decision

	// Stats
	Reports      int // reports ingested by INT Data Collection
	Snapshots    int // feature snapshots written to the database
	Predictions  int // ensemble runs completed
	DroppedPolls int // updates dropped at a full prediction queue
	MaxQueue     int

	// Tiered-inference stats: records early-exited by the cascade vs
	// records that paid for the full ensemble vote.
	TriageExited      int
	TriageFallthrough int
}

// New validates cfg and builds a mechanism.
func New(eng *netsim.Engine, cfg Config) (*Mechanism, error) {
	sc, err := newScorer(cfg.Models, cfg.Scaler, cfg.ModelQuorum, 1,
		cfg.Triage, cfg.TriageThreshold, cfg.TriageModel)
	if err != nil {
		return nil, err
	}
	cfg.ModelQuorum = sc.quorum
	if cfg.Features == nil {
		cfg.Features = flow.INTFeatures()
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 2 * netsim.Millisecond
	}
	if cfg.PollBatch <= 0 {
		cfg.PollBatch = 64
	}
	if cfg.ServiceTime <= 0 {
		cfg.ServiceTime = netsim.Millisecond
	}
	if cfg.VoteWindow <= 0 {
		cfg.VoteWindow = voteWindow
	}
	if cfg.VoteWindow > flow.MaxVoteWindow {
		return nil, fmt.Errorf("core: vote window %d is longer than a flow record holds (%d)",
			cfg.VoteWindow, flow.MaxVoteWindow)
	}
	if cfg.SweepInterval <= 0 {
		cfg.SweepInterval = cfg.FlowIdleTimeout
	}
	if cfg.Shards < 0 {
		cfg.Shards = 0
	}
	if cfg.PredictBatch < 1 {
		cfg.PredictBatch = 1
	}
	var db store.Store = store.New()
	if cfg.Shards > 0 {
		db = store.NewSharded(cfg.Shards)
	}
	m := &Mechanism{
		eng:    eng,
		cfg:    cfg,
		Table:  flow.NewTable(),
		DB:     db,
		scorer: sc,
	}
	// The simulation's ensemble call is the plain batch path: every
	// member always votes.
	sc.ensemble = func(s *batchScratch, X [][]float64) ([][]int, []int, int) {
		votes, ones := ml.EnsembleVotesInto(&s.vs, m.cfg.Models, X)
		return votes, ones, len(m.cfg.Models)
	}
	m.Table.IdleTimeout = cfg.FlowIdleTimeout
	// Eviction is single-pass: when Sweep removes a flow, its database
	// record goes with it, as its vote window does with the table
	// record. The simulation is single-threaded, so no locking.
	m.Table.OnEvict = m.DB.DeleteFlow
	m.DB.SetJournalNew(!cfg.SkipNewRecords)
	return m, nil
}

// Config returns the effective configuration after defaulting.
func (m *Mechanism) Config() Config { return m.cfg }

// Start arms the CentralServer polling loop and the eviction sweeps.
func (m *Mechanism) Start() {
	m.eng.After(m.cfg.PollInterval, m.pollTick)
	if m.cfg.FlowIdleTimeout > 0 {
		m.eng.After(m.cfg.SweepInterval, m.sweepTick)
	}
}

// HandleReport is the INT Data Collection entry point: hook it to a
// telemetry collector's OnReport.
func (m *Mechanism) HandleReport(r *telemetry.Report, at netsim.Time) {
	m.Reports++
	m.Observe(flow.FromINT(r, at))
}

// Observe is the Data Processor ingest path: update the flow table
// and write the feature snapshot to the database. Tests and the
// sFlow-driven variant of the mechanism feed it normalized
// observations directly.
func (m *Mechanism) Observe(pi flow.PacketInfo) {
	m.scorer.observe(pi.Key)
	st, _ := m.Table.Observe(pi)
	m.row = st.Features(m.row[:0], m.cfg.Features)
	m.DB.UpsertFlow(pi.Key, m.row, st.RegisteredAt, st.LastAt, st.Updates, pi.Label, pi.AttackType)
	m.Snapshots++
}

// pollTick is the CentralServer: fetch journal updates in global
// ingest order — one merged stream across every shard, which for the
// legacy single-shard DB is exactly the old single-journal poll —
// enqueue them for prediction, re-arm.
func (m *Mechanism) pollTick() {
	recs, cur := m.DB.PollGlobal(m.gcursor, m.cfg.PollBatch)
	m.gcursor = cur
	for _, rec := range recs {
		if m.cfg.QueueCap > 0 && len(m.queue) >= m.cfg.QueueCap {
			m.DroppedPolls++
			continue
		}
		m.queue = append(m.queue, rec)
	}
	m.DB.TrimGlobal(cur)
	if len(m.queue) > m.MaxQueue {
		m.MaxQueue = len(m.queue)
	}
	if !m.busy && len(m.queue) > 0 {
		m.startService()
	}
	m.eng.After(m.cfg.PollInterval, m.pollTick)
}

// startService begins predicting the head of the queue.
func (m *Mechanism) startService() {
	m.busy = true
	m.eng.After(m.cfg.ServiceTime, m.completeService)
}

// scoreHead scores the queue's head block (one record at the default
// PredictBatch) and caches the verdicts, consumed one record per
// service completion.
func (m *Mechanism) scoreHead() {
	s := &m.scratch
	s.rows, s.keys = s.rows[:0], s.keys[:0]
	for _, rec := range m.queue[:min(m.cfg.PredictBatch, len(m.queue))] {
		s.rows = append(s.rows, rec.Features)
		s.keys = append(s.keys, rec.Key)
	}
	m.scored, _ = m.scorer.score(s.rows, s.keys, s)
}

// completeService is the Prediction module finishing one item, plus
// the Data Processor's aggregation of the result (§IV-C4 ensemble
// and window voting).
func (m *Mechanism) completeService() {
	if len(m.scored) == 0 {
		m.scoreHead()
	}
	rec, v := m.queue[0], m.scored[0]
	copy(m.queue, m.queue[1:])
	m.queue = m.queue[:len(m.queue)-1]
	m.scored = m.scored[1:]

	m.Predictions++
	if v.stage > 0 {
		m.TriageExited++
	} else if m.scorer.cascade != nil {
		m.TriageFallthrough++
	}

	label, _ := m.Table.Vote(rec.Key, v.raw, m.cfg.VoteWindow)

	// The verdict's votes live in the scoring scratch, reused by the
	// next scoreHead; the public Decisions keep theirs.
	now := m.eng.Now()
	p := store.PredictionRecord{
		Key: rec.Key, Label: label, At: now, Latency: now - rec.UpdatedAt, Votes: slices.Clone(v.votes),
		FlowSeq: rec.Updates - 1, Stage: v.stage, Truth: rec.Truth, AttackType: rec.AttackType,
	}
	d := decisionOf(p)
	m.Decisions = append(m.Decisions, d)
	m.DB.AppendPrediction(p)
	if m.OnDecision != nil {
		m.OnDecision(d)
	}

	if len(m.queue) > 0 {
		m.startService()
	} else {
		m.busy = false
	}
}

// sweepTick evicts idle flows from the table; the eviction hook
// removes their database records in the same pass.
func (m *Mechanism) sweepTick() {
	m.Table.Sweep(m.eng.Now())
	m.eng.After(m.cfg.SweepInterval, m.sweepTick)
}
