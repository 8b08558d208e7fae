package forest

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sync"
)

// Config parameterizes a Random Forest.
type Config struct {
	// Trees is the ensemble size (default 50).
	Trees int
	// MaxDepth bounds tree depth (default 18).
	MaxDepth int
	// MinSamplesSplit is the smallest node eligible for splitting
	// (default 2).
	MinSamplesSplit int
	// MinSamplesLeaf is the smallest admissible leaf (default 1).
	MinSamplesLeaf int
	// MaxFeatures is the per-split feature subset size; 0 selects
	// sqrt(features), the scikit-learn default the paper used.
	MaxFeatures int
	// Seed makes training deterministic.
	Seed int64
}

// Default returns the configuration used by the experiments.
func Default(seed int64) Config {
	return Config{Trees: 50, MaxDepth: 18, MinSamplesSplit: 4, MinSamplesLeaf: 1, Seed: seed}
}

// Forest is a trained Random Forest classifier.
type Forest struct {
	cfg      Config
	trees    []*tree
	features int
}

// Features returns the trained input width (0 before Fit), letting
// pipelines validate feature-vector shape before scoring.
func (f *Forest) Features() int { return f.features }

// New constructs an untrained forest; zero-valued config fields take
// their defaults.
func New(cfg Config) *Forest {
	if cfg.Trees <= 0 {
		cfg.Trees = 50
	}
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = 18
	}
	if cfg.MinSamplesSplit < 2 {
		cfg.MinSamplesSplit = 2
	}
	if cfg.MinSamplesLeaf < 1 {
		cfg.MinSamplesLeaf = 1
	}
	return &Forest{cfg: cfg}
}

// Name implements ml.Classifier.
func (f *Forest) Name() string { return "RF" }

// Fit trains the ensemble: each tree gets an independent bootstrap
// sample and RNG, and trees are grown concurrently, GOMAXPROCS at a
// time.
func (f *Forest) Fit(X [][]float64, y []int) error {
	if len(X) == 0 {
		return errors.New("forest: empty training set")
	}
	if len(X) != len(y) {
		return errors.New("forest: rows and labels differ")
	}
	f.features = len(X[0])
	cfg := f.cfg
	if cfg.MaxFeatures <= 0 {
		cfg.MaxFeatures = int(math.Sqrt(float64(f.features)))
		if cfg.MaxFeatures < 1 {
			cfg.MaxFeatures = 1
		}
	}
	tcfg := treeConfig{
		maxDepth:        cfg.MaxDepth,
		minSamplesSplit: cfg.MinSamplesSplit,
		minSamplesLeaf:  cfg.MinSamplesLeaf,
		maxFeatures:     cfg.MaxFeatures,
	}

	f.trees = make([]*tree, cfg.Trees)
	// Pre-derive one seed per tree so results are independent of
	// worker scheduling.
	seeds := make([]int64, cfg.Trees)
	seedRNG := rand.New(rand.NewSource(cfg.Seed))
	for i := range seeds {
		seeds[i] = seedRNG.Int63()
	}

	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for ti := 0; ti < cfg.Trees; ti++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(ti int) {
			defer wg.Done()
			defer func() { <-sem }()
			rng := rand.New(rand.NewSource(seeds[ti]))
			idx := make([]int, len(X))
			for i := range idx {
				idx[i] = rng.Intn(len(X)) // bootstrap with replacement
			}
			f.trees[ti] = growTree(X, y, idx, tcfg, rng)
		}(ti)
	}
	wg.Wait()
	return nil
}

// Predict returns the majority vote across trees.
func (f *Forest) Predict(x []float64) int {
	votes := 0
	for _, t := range f.trees {
		votes += t.predict(x)
	}
	if 2*votes > len(f.trees) {
		return 1
	}
	return 0
}

// Proba returns the fraction of trees voting attack.
func (f *Forest) Proba(x []float64) float64 {
	votes := 0
	for _, t := range f.trees {
		votes += t.predict(x)
	}
	return float64(votes) / float64(len(f.trees))
}

// treeOuterMinNodes switches the batch paths to tree-outer iteration once
// the forest's node arenas total roughly an L2 cache: past that point
// per-row iteration misses on every deep node, while walking one tree
// across the whole batch keeps its arena resident (measured ~1.7x on
// 20k-row forests). Below it the whole forest stays hot either way
// and row-outer avoids re-streaming the batch per tree.
const treeOuterMinNodes = 8 << 10

// arenaNodes is the forest's total node count across trees.
func (f *Forest) arenaNodes() int {
	total := 0
	for _, t := range f.trees {
		total += len(t.nodes)
	}
	return total
}

// treeOuterVotes accumulates per-row attack votes into votes
// (len(X) long, zeroed here) with tree-outer iteration: each tree's
// arena is walked across the whole batch while it is cache-resident.
// Vote totals are integer sums — exact in a float64 too — and
// therefore identical to per-sample traversal in either order.
func treeOuterVotes[T int | float64](f *Forest, votes []T, X [][]float64) {
	clear(votes)
	for _, t := range f.trees {
		for i, x := range X {
			votes[i] += T(t.predict(x))
		}
	}
}

// PredictBatchInto implements ml.BatchClassifier: the majority vote
// per row, row-for-row identical to Predict. Large forests (see
// treeOuterMinNodes) vote tree-outer, accumulating in dst itself;
// small cache-resident forests keep the per-row loop, which needs no
// second pass.
func (f *Forest) PredictBatchInto(dst []int, X [][]float64) []int {
	if cap(dst) < len(X) {
		dst = make([]int, len(X))
	}
	dst = dst[:len(X)]
	if f.arenaNodes() >= treeOuterMinNodes {
		treeOuterVotes(f, dst, X)
		for i, v := range dst {
			dst[i] = b2i(2*v > len(f.trees))
		}
		return dst
	}
	for i, x := range X {
		v := 0
		for _, t := range f.trees {
			v += t.predict(x)
		}
		dst[i] = b2i(2*v > len(f.trees))
	}
	return dst
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// PredictProbaBatch returns the attack-vote fraction per row,
// row-for-row identical to Proba.
func (f *Forest) PredictProbaBatch(X [][]float64) []float64 {
	return f.PredictProbaBatchInto(nil, X)
}

// PredictProbaBatchInto is PredictProbaBatch into dst[:len(X)], grown
// only when it is too short: the cascade's triage stage scores through
// it into a buffer it keeps batch to batch. Large forests vote
// tree-outer, accumulating in dst itself.
func (f *Forest) PredictProbaBatchInto(dst []float64, X [][]float64) []float64 {
	if cap(dst) < len(X) {
		dst = make([]float64, len(X))
	}
	dst = dst[:len(X)]
	n := float64(len(f.trees))
	if f.arenaNodes() >= treeOuterMinNodes {
		treeOuterVotes(f, dst, X)
		for i, v := range dst {
			dst[i] = v / n
		}
		return dst
	}
	for i, x := range X {
		v := 0
		for _, t := range f.trees {
			v += t.predict(x)
		}
		dst[i] = float64(v) / n
	}
	return dst
}

// Importances returns normalized Gini feature importances averaged
// across trees (the native RF importance behind Table V).
func (f *Forest) Importances() []float64 {
	if len(f.trees) == 0 {
		return nil
	}
	out := make([]float64, f.features)
	for _, t := range f.trees {
		for j, v := range t.importance {
			out[j] += v
		}
	}
	var sum float64
	for _, v := range out {
		sum += v
	}
	if sum > 0 {
		for j := range out {
			out[j] /= sum
		}
	}
	return out
}
