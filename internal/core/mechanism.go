// Package core implements the paper's primary contribution: the
// automated DDoS detection mechanism of Figure 2. Four modules
// cooperate around the database:
//
//	INT Data Collection — terminates collector reports and extracts
//	packet-level fields (steps 1–2);
//	Data Processor — maintains the flow table, derives flow-level
//	features, writes snapshots for the CentralServer, and aggregates
//	final decisions into the decision log (steps 3, 7–8);
//	CentralServer — picks up the snapshot updates and feeds them to
//	prediction, then routes predictions back (steps 4–7);
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

// Config parameterizes the mechanism. The model input is the paper's
// 15 INT features, as in LiveConfig.
type Config struct {
	// Models is the pre-trained ensemble (the paper uses MLP+RF+GNB).
	Models []ml.Classifier
	// Scaler standardizes snapshots before prediction; required.
	Scaler *ml.StandardScaler

	// PollInterval is the CentralServer's database polling period
	// (default 2 ms); each poll fetches up to pollBatch records.
	PollInterval netsim.Time
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

	// PredictBatch is the Prediction module's scoring batch: when the
	// service queue holds several records, the ensemble scores up to
	// this many of them in one amortized batch call, and completions
	// then drain the cached scores one record per ServiceTime. Timing,
	// decision order, and votes are identical to per-sample scoring
	// (the batch contract guarantees row-for-row equality), so Table
	// VI is byte-identical at any batch size. Zero or one keeps
	// per-sample scoring, the paper-faithful default.
	PredictBatch int

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

// snapshot is the Data Processor's database row for observation pi,
// just folded into its flow's record st: the flow's feature row, cut
// from the end of slab (returned extended), and its bookkeeping. Both
// drivers build their rows here.
func snapshot(pi flow.PacketInfo, st *flow.State, slab []float64) (store.FlowRecord, []float64) {
	off := len(slab)
	slab = st.Features(slab, intFeatures)
	return store.FlowRecord{
		Key: pi.Key, Features: slab[off:len(slab):len(slab)],
		RegisteredAt: st.RegisteredAt, UpdatedAt: st.LastAt, Updates: st.Updates,
		Truth: pi.Label, AttackType: pi.AttackType,
	}, slab
}

// decisionRecord is the log record of rec's decision: label, smoothed
// from verdict v, made at at. The decision is the flow's
// (Updates−1)th, and its latency runs from the snapshot's
// registration (§III-2). Both drivers log theirs through it.
func decisionRecord(rec *store.FlowRecord, v verdict, label int, at netsim.Time) store.PredictionRecord {
	return store.PredictionRecord{
		Key: rec.Key, Label: label, At: at, Latency: at - rec.UpdatedAt, Votes: v.votes,
		FlowSeq: rec.Updates - 1, Stage: v.stage, Truth: rec.Truth, AttackType: rec.AttackType,
	}
}

// Correct reports whether the decision matches ground truth.
func (d Decision) Correct() bool { return (d.Label == 1) == d.Truth }

// pollBatch bounds the records the CentralServer fetches per poll.
const pollBatch = 64

// rowChunkLen is how many feature values one of Mechanism's row chunks
// holds (32 KiB, about 270 rows of the 15-feature vector).
const rowChunkLen = 4096

// Mechanism wires the four modules together on a netsim engine.
type Mechanism struct {
	eng *netsim.Engine
	cfg Config

	Table *flow.Table
	// DB is the prediction log: every decision is appended to it.
	DB *store.DB

	// pending holds the snapshots the Data Processor has written and the
	// CentralServer has not yet polled, in Observe order; queue holds
	// the polled ones awaiting the Prediction module. chunk is the row
	// chunk Observe cuts feature rows from: a full one is replaced, not
	// grown, so a queued row's chunk is freed once no queued row reads
	// it.
	pending rowQueue
	queue   rowQueue
	chunk   []float64
	busy    bool

	// scorer is the Prediction module; scored caches its verdicts for
	// the queue head block: index 0 always corresponds to the queue's
	// head. Scoring is pure, so scoring records at batch time instead
	// of service time changes nothing observable.
	scorer  *scorer
	scratch batchScratch
	scored  []verdict

	// OnDecision observes every final decision as it is made.
	OnDecision func(Decision)
	// Decisions accumulates the full decision log.
	Decisions []Decision

	// Stats
	Reports      int // reports ingested by INT Data Collection
	Snapshots    int // feature snapshots taken by the Data Processor
	Predictions  int // ensemble runs completed
	DroppedPolls int // updates dropped at a full prediction queue
	MaxQueue     int

	// Tiered-inference stats: records early-exited by the cascade vs
	// records that paid for the full ensemble vote.
	TriageExited      int
	TriageFallthrough int
}

// rowQueue is a first-in, first-out run of feature snapshots. take
// removes rows from the head in O(1): a taken slot is cleared, so the
// GC can free a row chunk no queued row points into, and the live rows
// move to the front only once the dead head outgrows them.
type rowQueue struct {
	rows []store.FlowRecord
	head int
}

// live returns the queued rows, oldest first.
func (q *rowQueue) live() []store.FlowRecord { return q.rows[q.head:] }

func (q *rowQueue) len() int { return len(q.rows) - q.head }

func (q *rowQueue) push(rec store.FlowRecord) { q.rows = append(q.rows, rec) }

// take drops the n oldest rows.
func (q *rowQueue) take(n int) {
	clear(q.rows[q.head : q.head+n])
	q.head += n
	if q.head >= q.len() {
		k := copy(q.rows, q.rows[q.head:])
		clear(q.rows[k:])
		q.rows, q.head = q.rows[:k], 0
	}
}

// New validates cfg and builds a mechanism.
func New(eng *netsim.Engine, cfg Config) (*Mechanism, error) {
	sc, err := newScorer(cfg.Models, cfg.Scaler, cfg.ModelQuorum, 1,
		cfg.Triage, cfg.TriageThreshold, cfg.TriageModel)
	if err != nil {
		return nil, err
	}
	cfg.ModelQuorum = sc.quorum
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 2 * netsim.Millisecond
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
	if cfg.PredictBatch < 1 {
		cfg.PredictBatch = 1
	}
	m := &Mechanism{
		eng:    eng,
		cfg:    cfg,
		Table:  flow.NewTable(),
		DB:     store.New(),
		scorer: sc,
	}
	// The simulation's ensemble call is the plain batch path: every
	// member always votes.
	sc.ensemble = func(s *batchScratch, X [][]float64) ([][]int, []int, int) {
		votes, ones := ml.EnsembleVotesInto(&s.vs, m.cfg.Models, X)
		return votes, ones, len(m.cfg.Models)
	}
	return m, nil
}

// Config returns the effective configuration after defaulting.
func (m *Mechanism) Config() Config { return m.cfg }

// Start arms the CentralServer polling loop.
func (m *Mechanism) Start() {
	m.eng.After(m.cfg.PollInterval, m.pollTick)
}

// HandleReport is the INT Data Collection entry point: hook it to a
// telemetry collector's OnReport.
func (m *Mechanism) HandleReport(r *telemetry.Report, at netsim.Time) {
	m.Reports++
	m.Observe(flow.FromINT(r, at))
}

// Observe is the Data Processor ingest path: update the flow table
// and write the feature snapshot for the CentralServer's next poll —
// every observation's, a flow's first included, as the testbed's
// per-packet decisions from the first packet on (Figure 7) require.
// Tests and the sFlow-driven variant of the mechanism feed it
// normalized observations directly.
func (m *Mechanism) Observe(pi flow.PacketInfo) {
	m.scorer.observe(pi.Key)
	st, _ := m.Table.Observe(pi)
	if cap(m.chunk)-len(m.chunk) < len(intFeatures) {
		m.chunk = make([]float64, 0, rowChunkLen)
	}
	var rec store.FlowRecord
	rec, m.chunk = snapshot(pi, st, m.chunk)
	m.pending.push(rec)
	m.Snapshots++
}

// pollTick is the CentralServer: fetch up to pollBatch snapshots in
// the order they were written, enqueue them for prediction, re-arm.
func (m *Mechanism) pollTick() {
	polled := m.pending.live()[:min(pollBatch, m.pending.len())]
	for _, rec := range polled {
		if m.cfg.QueueCap > 0 && m.queue.len() >= m.cfg.QueueCap {
			m.DroppedPolls++
			continue
		}
		m.queue.push(rec)
	}
	m.pending.take(len(polled))
	m.MaxQueue = max(m.MaxQueue, m.queue.len())
	if !m.busy && m.queue.len() > 0 {
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
	queued := m.queue.live()
	for _, rec := range queued[:min(m.cfg.PredictBatch, len(queued))] {
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
	rec, v := m.queue.live()[0], m.scored[0]
	m.queue.take(1)
	m.scored = m.scored[1:]

	m.Predictions++
	if v.stage > 0 {
		m.TriageExited++
	} else if m.scorer.cascade != nil {
		m.TriageFallthrough++
	}

	label, _ := m.Table.Vote(rec.Key, v.raw, m.cfg.VoteWindow)

	p := decisionRecord(&rec, v, label, m.eng.Now())
	// The verdict's votes live in the scoring scratch, reused by the
	// next scoreHead; the public Decisions keep theirs.
	p.Votes = slices.Clone(p.Votes)
	d := decisionOf(p)
	m.Decisions = append(m.Decisions, d)
	m.DB.AppendPrediction(p)
	if m.OnDecision != nil {
		m.OnDecision(d)
	}

	if m.queue.len() > 0 {
		m.startService()
	} else {
		m.busy = false
	}
}
