package ml

// EnsembleVotes scores every row of X with every model through the
// batch path and returns the transposed result: votes[i] is row i's
// per-model vote vector (in model order, safe for the caller to
// retain) and ones[i] how many models voted attack — the inputs the
// §IV-C4 quorum rule consumes. Each model walks the whole batch once,
// so per-batch costs (tree-arena faults, activation buffers, hoisted
// constants) are paid per model instead of per sample.
func EnsembleVotes(models []Classifier, X [][]float64) (votes [][]int, ones []int) {
	return EnsembleVotesInto(nil, models, X)
}

// VoteScratch holds the reusable buffers for EnsembleVotesInto. The
// zero value is ready to use; do not share one scratch between
// goroutines.
type VoteScratch struct {
	votes [][]int
	ones  []int
}

// Rows returns the vote buffers for one batch of n rows scored by
// nModels members: the recycled votes header with each row sliced out
// of one fresh flat slab (callers retain the rows), and the recycled
// ones counters zeroed.
func (s *VoteScratch) Rows(n, nModels int) (votes [][]int, ones []int) {
	if cap(s.votes) < n {
		s.votes = make([][]int, n)
	}
	if cap(s.ones) < n {
		s.ones = make([]int, n)
	}
	votes = s.votes[:n]
	ones = s.ones[:n]
	for i := range ones {
		ones[i] = 0
	}
	flat := make([]int, n*nModels)
	for i := range votes {
		votes[i] = flat[i*nModels : (i+1)*nModels : (i+1)*nModels]
	}
	return votes, ones
}

// EnsembleVotesInto is EnsembleVotes with the outer votes header and
// the ones buffer recycled from s across calls — the per-batch
// allocations a prediction worker would otherwise pay on every
// micro-batch. The flat per-row vote storage is still allocated fresh
// each call because callers retain the row slices in Decisions and
// prediction records; only the buffers that die with the batch are
// reused. A nil scratch allocates everything, matching EnsembleVotes.
func EnsembleVotesInto(s *VoteScratch, models []Classifier, X [][]float64) (votes [][]int, ones []int) {
	if s == nil {
		s = &VoteScratch{}
	}
	votes, ones = s.Rows(len(X), len(models))
	for mi, m := range models {
		labels := PredictBatch(m, X)
		for i, lab := range labels {
			votes[i][mi] = lab
			ones[i] += lab
		}
	}
	return votes, ones
}

// QuorumLabels reduces per-row attack-vote counts to raw ensemble
// labels: 1 where at least quorum models voted attack.
func QuorumLabels(ones []int, quorum int) []int {
	out := make([]int, len(ones))
	for i, n := range ones {
		if n >= quorum {
			out[i] = 1
		}
	}
	return out
}
