package core

import (
	"errors"
	"fmt"
	"time"

	"github.com/amlight/intddos/internal/flow"
	"github.com/amlight/intddos/internal/ml"
	"github.com/amlight/intddos/internal/ml/sketch"
	"github.com/amlight/intddos/internal/store"
)

// verdict is the Prediction module's answer for one snapshot.
type verdict struct {
	// raw is the pre-smoothing label: the ensemble quorum, or the
	// exiting cascade stage's label.
	raw int
	// stage is the cascade provenance: 0 for the full-ensemble path,
	// n >= 1 when cascade stage n early-exited the row.
	stage int
	// votes are the per-model outputs (one stage vote for an exited
	// row), in the scratch's vote or exit slab: valid until the next
	// score call with the same scratch.
	votes []int
	// decided is false when the row needed the ensemble and no member
	// was available to vote.
	decided bool
}

// ensembleFunc scores standardized rows with the full ensemble:
// votes[i] is row i's per-model vote vector in s.vs, ones[i] how many
// members voted attack, navail how many members voted at all.
type ensembleFunc func(s *batchScratch, X [][]float64) (votes [][]int, ones []int, navail int)

// batchScratch is one clock driver's reusable scoring buffers, the
// vote storage the verdicts point into included. One goroutine owns
// one scratch, so nothing allocates after warm-up.
type batchScratch struct {
	// rows and keys are the driver's views of the current batch, the
	// inputs to score; scaled, out and exits are score's own — exits
	// holds each early-exited row's single stage vote.
	rows   [][]float64
	keys   []flow.Key
	scaled [][]float64
	out    []verdict
	exits  []int

	// The ensembleFunc's vote buffers (see ml.VoteScratch).
	vs ml.VoteScratch

	// Tiered-inference buffers, and how long the last triage pass took.
	cs         ml.CascadeScratch
	sus        []bool
	sub        [][]float64
	triageTook time.Duration
}

// scorer is the paper's Prediction module (§III, §IV-C4), implemented
// once: standardise → sketch veto → early-exit cascade → ensemble
// quorum over the rows that fell through. Mechanism and Live are its
// two clock drivers; the ensemble call is the one seam between them
// (plain batch scoring in the simulation, fault-isolated and
// health-tracked in the live runtime).
type scorer struct {
	scaler  *ml.StandardScaler
	nModels int
	quorum  int

	// Tiered inference, nil with triage off: the cascade, and one
	// streaming sketch per ingest shard — single writer (observe),
	// concurrent readers (score), atomics throughout.
	cascade  *ml.Cascade
	sketches []*sketch.Sketch

	// ensemble is set by the driver before the first score call.
	ensemble ensembleFunc
}

// newScorer validates a model bundle and resolves its voting policy.
// quorum <= 0 selects the paper's 2-of-3 majority; a quorum the
// ensemble can never reach is clamped to a majority of its members.
// triageModel nil lets resolveTriageModel pick the stage-0 model.
func newScorer(models []ml.Classifier, scaler *ml.StandardScaler, quorum, shards int,
	triage bool, threshold float64, triageModel ml.Classifier) (*scorer, error) {
	if len(models) == 0 {
		return nil, errors.New("core: no models configured")
	}
	if scaler == nil {
		return nil, errors.New("core: scaler required")
	}
	if len(models) > store.MaxVotes {
		return nil, fmt.Errorf("core: %d models configured, a logged decision holds %d votes",
			len(models), store.MaxVotes)
	}
	if quorum <= 0 {
		quorum = (len(models) + 2) / 2
	}
	if quorum > len(models) {
		quorum = (len(models) + 1) / 2
	}
	sc := &scorer{scaler: scaler, nModels: len(models), quorum: quorum}
	scored := models[:len(models):len(models)]
	if triage {
		pm, ok := resolveTriageModel(triageModel, models)
		if !ok {
			return nil, errors.New("core: triage enabled but no probability-capable model available")
		}
		scored = append(scored, pm)
		sc.cascade = &ml.Cascade{Stages: []ml.CascadeStage{
			{Name: pm.Name(), Model: pm, Threshold: threshold},
		}}
		sc.sketches = make([]*sketch.Sketch, shards)
		for i := range sc.sketches {
			sc.sketches[i] = sketch.New(0, 0)
		}
	}
	// A model that reports its trained input width must agree with the
	// scaler — a mismatched bundle would otherwise panic at the first
	// scoring call.
	for _, m := range scored {
		if w := ml.ExpectedFeatures(m); w > 0 && w != len(scaler.Mean) {
			return nil, fmt.Errorf("core: model %s expects %d features, scaler has %d",
				m.Name(), w, len(scaler.Mean))
		}
	}
	return sc, nil
}

// Stage-0 sketch policy. The sketch never decides a record on its own
// — it only vetoes benign early-exits — so these knobs trade exit
// rate against how defensively the cascade treats volumetric
// anomalies, not accuracy of the final labels for fall-through rows.
const (
	// triageHeavyHitterFrac: a flow holding at least this fraction of
	// the recent stream is suspicious (AMON-style heavy hitter).
	triageHeavyHitterFrac = 0.02
	// triageEntropyFloor: when the normalized flow-key entropy drops
	// below this, the whole stream looks like a volumetric event and
	// no flow may early-exit benign.
	triageEntropyFloor = 0.25
	// triageMinSample: the sketch stays silent until it has seen this
	// many observations — too little traffic to call anything heavy.
	triageMinSample = 512
)

// DefaultTriageThreshold is the stage-0 confidence |2p-1| required to
// early-exit a record when triage is enabled without an explicit
// threshold. 0.95 exits only near-saturated probabilities, which on
// the paper's workloads keeps the Table III/VI deltas inside the
// bound documented in EXPERIMENTS.md.
const DefaultTriageThreshold = 0.95

// resolveTriageModel returns the stage-0 cascade model: the
// configured one when it exposes the batch probability path, else a
// probability-capable ensemble member, preferring the Random Forest.
// The gate needs *calibrated* confidence more than it needs a cheap
// score: GNB's density products saturate to 0/1 on everything —
// including zero-day attacks it has never seen — so gating on it
// exits confidently-wrong verdicts (measured on the held-out
// SlowLoris replay: −61 pp accuracy). The forest's vote fraction
// stays honest on unfamiliar inputs and exits >90% of rows with no
// measurable accuracy cost.
func resolveTriageModel(configured ml.Classifier, models []ml.Classifier) (ml.BatchProbaClassifier, bool) {
	if configured != nil {
		pm, ok := configured.(ml.BatchProbaClassifier)
		return pm, ok
	}
	for _, m := range models {
		if pm, ok := m.(ml.BatchProbaClassifier); ok && m.Name() == "RF" {
			return pm, true
		}
	}
	for i := len(models) - 1; i >= 0; i-- {
		if pm, ok := models[i].(ml.BatchProbaClassifier); ok {
			return pm, true
		}
	}
	return nil, false
}

// observe feeds one ingested flow key to its shard's triage sketch.
func (sc *scorer) observe(key flow.Key) {
	if sc.sketches != nil {
		h := key.Hash()
		sc.sketches[h%uint64(len(sc.sketches))].Update(h)
	}
}

// quorumFor returns the attack-vote threshold for a batch scored by
// navail members. At full strength it is the configured quorum (the
// paper's 2-of-3); with members out it degrades to
// majority-of-available — 2-of-2, 1-of-1 — so detection keeps
// producing best-effort answers instead of silently requiring votes
// that can no longer arrive.
func (sc *scorer) quorumFor(navail int) int {
	if navail >= sc.nModels {
		return sc.quorum
	}
	return navail/2 + 1
}

// triage runs the cascade over the standardized batch. A flow its
// sketch finds suspicious (a heavy hitter, or any flow while key
// entropy has collapsed) is never early-exited benign.
func (sc *scorer) triage(keys []flow.Key, s *batchScratch) (stage, label []int) {
	t0 := time.Now()
	if cap(s.sus) < len(keys) {
		s.sus = make([]bool, len(keys))
	}
	sus := s.sus[:len(keys)]
	for i, k := range keys {
		h := k.Hash()
		sus[i] = sc.sketches[h%uint64(len(sc.sketches))].Suspicious(h,
			triageHeavyHitterFrac, triageEntropyFloor, triageMinSample)
	}
	stage, label = sc.cascade.TriageBatch(s.scaled, sus, &s.cs)
	s.triageTook = time.Since(t0)
	return stage, label
}

// score runs the Prediction module over one batch of raw feature rows
// (keys[i] is row i's flow) and returns one verdict per row, in batch
// order, valid until the next call with the same scratch. Scoring is
// pure and row-independent, so how rows were grouped into batches
// never shows in the verdicts. navail is how many ensemble members
// voted on the fall-through rows (0 when none needed the ensemble).
func (sc *scorer) score(rows [][]float64, keys []flow.Key, s *batchScratch) (out []verdict, navail int) {
	s.scaled = sc.scaler.TransformBatch(s.scaled, rows)
	// With triage off there are no stages: every row falls through.
	var stage, label []int
	fall := s.scaled
	if sc.cascade != nil {
		stage, label = sc.triage(keys, s)
		fall = s.sub[:0]
		for i, st := range stage {
			if st == 0 {
				fall = append(fall, s.scaled[i])
			}
		}
		s.sub = fall
	}
	var votes [][]int
	var ones []int
	quorum := 0
	if len(fall) > 0 {
		votes, ones, navail = sc.ensemble(s, fall)
		quorum = sc.quorumFor(navail)
	}
	// An exited row carries its single stage vote as provenance, cut
	// from the scratch's exit slab.
	if cap(s.exits) < len(rows)-len(fall) {
		s.exits = make([]int, len(rows)-len(fall))
	}
	exits := s.exits[:len(rows)-len(fall)]
	if cap(s.out) < len(rows) {
		s.out = make([]verdict, len(rows))
	}
	out = s.out[:len(rows)]
	j := 0
	for i := range out {
		if stage != nil && stage[i] > 0 {
			exits[0] = label[i]
			out[i] = verdict{raw: label[i], stage: stage[i], votes: exits[:1:1], decided: true}
			exits = exits[1:]
			continue
		}
		raw := 0
		if navail > 0 && ones[j] >= quorum {
			raw = 1
		}
		out[i] = verdict{raw: raw, votes: votes[j], decided: navail > 0}
		j++
	}
	return out, navail
}
