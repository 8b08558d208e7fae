package ml

// Cascade is the early-exit scoring cascade behind tiered inference
// (ROADMAP item 2, after the collaborative P4-SDN early-exit design in
// PAPERS.md). Each stage wraps a cheap probabilistic model with a
// confidence threshold: a row whose stage probability is confident
// enough exits the cascade with that stage's label, and only the
// uncertain remainder falls through to the caller's full-ensemble
// vote. The cascade itself is stateless and safe for concurrent use
// by many prediction workers as long as the stage models are.
//
// Exactness contract: a stage with Threshold <= 0 (or a nil model) is
// skipped entirely, so a zero/disabled cascade triages nothing and the
// caller's output is bit-identical to the plain ensemble path —
// that is the default-off mode the golden tables pin.
type Cascade struct {
	Stages []CascadeStage
}

// CascadeStage pairs one cheap model with the confidence it needs to
// early-exit a row.
type CascadeStage struct {
	// Name labels the stage in metrics and provenance output.
	Name string
	// Model scores the stage. It must expose calibrated-ish
	// probabilities; confidence is |2p - 1|.
	Model BatchProbaClassifier
	// Threshold is the minimum confidence |2p - 1| required to exit
	// at this stage. Values <= 0 disable the stage (exact mode);
	// 1 exits only on fully saturated probabilities.
	Threshold float64
}

// CascadeScratch holds the per-worker reusable buffers for
// TriageBatch so steady-state triage does not allocate. The zero
// value is ready to use; do not share one scratch between goroutines.
type CascadeScratch struct {
	stage []int
	label []int
	idx   []int
	sub   [][]float64
	proba []float64 // a stage's probabilities, for models that write into it
}

// probaBatchIntoClassifier is the optional shape of a stage model that
// writes its probabilities into a caller's buffer, as BatchClassifier
// does labels; a stage model without it pays PredictProbaBatch's fresh
// slice a call.
type probaBatchIntoClassifier interface {
	PredictProbaBatchInto(dst []float64, X [][]float64) []float64
}

func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// TriageBatch runs every row of X through the cascade stages in
// order. It returns two slices of len(X), valid until the next call
// with the same scratch: stage[i] is 1+the index of the stage that
// exited row i (0 means the row fell through and must be scored by
// the full ensemble), and label[i] is that stage's verdict (only
// meaningful when stage[i] > 0).
//
// suspicious optionally carries the stage-0 sketch verdict: a row
// marked suspicious is never early-exited as benign — a confident
// benign verdict on it is discarded and the row falls through to the
// full vote. Pass nil when no sketch is in play.
func (c *Cascade) TriageBatch(X [][]float64, suspicious []bool, s *CascadeScratch) (stage, label []int) {
	if s == nil {
		s = &CascadeScratch{}
	}
	s.stage = growInts(s.stage, len(X))
	s.label = growInts(s.label, len(X))
	stage, label = s.stage, s.label
	for i := range stage {
		stage[i] = 0
		label[i] = 0
	}
	if c == nil || len(X) == 0 {
		return stage, label
	}

	// idx tracks the rows still in the cascade; each stage scores
	// only those and the confident ones drop out.
	s.idx = growInts(s.idx, len(X))
	remaining := s.idx[:0]
	for i := range X {
		remaining = append(remaining, i)
	}

	for si, st := range c.Stages {
		if st.Model == nil || st.Threshold <= 0 || len(remaining) == 0 {
			continue
		}
		if cap(s.sub) < len(remaining) {
			s.sub = make([][]float64, len(remaining))
		}
		sub := s.sub[:len(remaining)]
		for j, i := range remaining {
			sub[j] = X[i]
		}
		var probs []float64
		if m, ok := st.Model.(probaBatchIntoClassifier); ok {
			s.proba = m.PredictProbaBatchInto(s.proba, sub)
			probs = s.proba
		} else {
			probs = st.Model.PredictProbaBatch(sub)
		}
		next := remaining[:0]
		for j, i := range remaining {
			p := probs[j]
			conf := 2*p - 1
			if conf < 0 {
				conf = -conf
			}
			lab := 0
			if p >= 0.5 {
				lab = 1
			}
			if conf >= st.Threshold && !(lab == 0 && suspicious != nil && suspicious[i]) {
				stage[i] = si + 1
				label[i] = lab
				continue
			}
			next = append(next, i)
		}
		remaining = next
	}
	return stage, label
}
