package ml

// VoteScratch is the reusable storage behind EnsembleVotesInto: the
// votes header, the flat slab its rows are cut from, the ones counters,
// and Labels, the one buffer every member's PredictBatchInto writes
// into in turn. The zero value is ready to use; do not share one
// scratch between goroutines. Everything a call returns is valid until
// the next call on the same scratch: a caller that keeps a vote row
// clones it.
type VoteScratch struct {
	votes [][]int
	flat  []int
	ones  []int
	// Labels is the per-model label buffer. A caller that scores the
	// members itself (the live runtime's fault-isolated ensemble) passes
	// it as dst and stores the result back, as EnsembleVotesInto does.
	Labels []int
}

// Rows returns the vote buffers for one batch of n rows scored by
// nModels members: the votes header with each row cut from the
// scratch's flat slab (contents unspecified, every cell is the
// caller's to write), and the ones counters zeroed.
func (s *VoteScratch) Rows(n, nModels int) (votes [][]int, ones []int) {
	if cap(s.votes) < n {
		s.votes = make([][]int, n)
	}
	if cap(s.ones) < n {
		s.ones = make([]int, n)
	}
	if cap(s.flat) < n*nModels {
		s.flat = make([]int, n*nModels)
	}
	votes = s.votes[:n]
	ones = s.ones[:n]
	clear(ones)
	for i := range votes {
		votes[i] = s.flat[i*nModels : (i+1)*nModels : (i+1)*nModels]
	}
	return votes, ones
}

// EnsembleVotesInto scores every row of X with every model through the
// batch path and returns the transposed result: votes[i] is row i's
// per-model vote vector (in model order) and ones[i] how many models
// voted attack — the inputs the §IV-C4 quorum rule consumes. Each model
// walks the whole batch once, so per-batch costs (tree-arena faults,
// activation buffers, hoisted constants) are paid per model instead of
// per sample. Every buffer comes from s and stays valid until the next
// call on it, so a warm scratch allocates nothing; a nil scratch
// allocates everything fresh.
func EnsembleVotesInto(s *VoteScratch, models []Classifier, X [][]float64) (votes [][]int, ones []int) {
	if s == nil {
		s = &VoteScratch{}
	}
	votes, ones = s.Rows(len(X), len(models))
	for mi, m := range models {
		s.Labels = PredictBatchInto(m, s.Labels, X)
		for i, lab := range s.Labels {
			votes[i][mi] = lab
			ones[i] += lab
		}
	}
	return votes, ones
}
