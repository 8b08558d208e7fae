// Package knn implements a K-Nearest-Neighbors classifier with
// Euclidean distance and majority vote. The paper keeps KNN
// tractable by training on a heavy subsample ("one thousandth of the
// whole sample"); the classifier itself is exact brute force, with
// batch prediction parallelized across cores.
package knn

import (
	"errors"
	"runtime"
	"sort"
	"sync"
)

// KNN is a K-nearest-neighbors classifier. The zero value is not
// usable; construct with New.
type KNN struct {
	// K is the neighborhood size (default 5).
	K int
	// Workers bounds PredictBatchInto parallelism; 0 selects GOMAXPROCS.
	Workers int

	X [][]float64
	y []int
}

// New returns a classifier with the given neighborhood size.
func New(k int) *KNN {
	if k <= 0 {
		k = 5
	}
	return &KNN{K: k}
}

// Name implements ml.Classifier.
func (k *KNN) Name() string { return "KNN" }

// Features returns the trained input width (0 before Fit), letting
// pipelines validate feature-vector shape before scoring.
func (k *KNN) Features() int {
	if len(k.X) == 0 {
		return 0
	}
	return len(k.X[0])
}

// Fit memorizes the training set.
func (k *KNN) Fit(X [][]float64, y []int) error {
	if len(X) == 0 {
		return errors.New("knn: empty training set")
	}
	if len(X) != len(y) {
		return errors.New("knn: rows and labels differ")
	}
	k.X = X
	k.y = y
	return nil
}

// sqDist returns squared Euclidean distance.
func sqDist(a, b []float64) float64 {
	var s float64
	for j := range a {
		d := a[j] - b[j]
		s += d * d
	}
	return s
}

// cand is one running top-K candidate: a squared distance with the
// training row's label. The candidate set is kept as a simple sorted
// insertion buffer (K is small), a bounded max-heap in effect.
type cand struct {
	d float64
	y int
}

// consider merges one candidate into the running top-kk buffer,
// preserving the original scan's insertion semantics exactly.
func consider(best []cand, kk int, d float64, y int) []cand {
	if len(best) < kk {
		best = append(best, cand{d, y})
		if len(best) == kk {
			sort.Slice(best, func(a, b int) bool { return best[a].d < best[b].d })
		}
		return best
	}
	if d >= best[kk-1].d {
		return best
	}
	pos := sort.Search(kk, func(j int) bool { return best[j].d > d })
	copy(best[pos+1:], best[pos:kk-1])
	best[pos] = cand{d, y}
	return best
}

// vote reduces a candidate buffer to its majority label.
func vote(best []cand) int {
	votes := 0
	for _, c := range best {
		votes += c.y
	}
	if 2*votes > len(best) {
		return 1
	}
	return 0
}

// kk caps the neighborhood at the training-set size.
func (k *KNN) kk() int {
	if k.K > len(k.X) {
		return len(k.X)
	}
	return k.K
}

// predictInto scans the training set for one query, reusing the
// caller's candidate buffer.
func (k *KNN) predictInto(x []float64, best []cand) int {
	kk := k.kk()
	best = best[:0]
	for i, row := range k.X {
		best = consider(best, kk, sqDist(x, row), k.y[i])
	}
	return vote(best)
}

// Predict implements ml.Classifier: majority vote among the K
// nearest training rows.
func (k *KNN) Predict(x []float64) int {
	return k.predictInto(x, make([]cand, 0, k.kk()))
}

// predictBlock4 scans the training set once for four queries: each
// training row is loaded from memory one time and its distance to all
// four queries accumulates in independent chains, which is what makes
// the batch path faster than four sequential scans. Per-query
// distance accumulation order matches sqDist exactly, so results are
// identical to Predict.
func (k *KNN) predictBlock4(x0, x1, x2, x3 []float64, b0, b1, b2, b3 []cand, out []int) {
	kk := k.kk()
	b0, b1, b2, b3 = b0[:0], b1[:0], b2[:0], b3[:0]
	for i, row := range k.X {
		var s0, s1, s2, s3 float64
		for j, v := range row {
			d0 := x0[j] - v
			s0 += d0 * d0
			d1 := x1[j] - v
			s1 += d1 * d1
			d2 := x2[j] - v
			s2 += d2 * d2
			d3 := x3[j] - v
			s3 += d3 * d3
		}
		y := k.y[i]
		b0 = consider(b0, kk, s0, y)
		b1 = consider(b1, kk, s1, y)
		b2 = consider(b2, kk, s2, y)
		b3 = consider(b3, kk, s3, y)
	}
	out[0] = vote(b0)
	out[1] = vote(b1)
	out[2] = vote(b2)
	out[3] = vote(b3)
}

// PredictBatchInto implements ml.BatchClassifier: queries are spread
// over a bounded worker pool, and each worker walks the training set in
// four-query blocks with reused candidate buffers, writing every row's
// label into dst.
func (k *KNN) PredictBatchInto(dst []int, X [][]float64) []int {
	if cap(dst) < len(X) {
		dst = make([]int, len(X))
	}
	out := dst[:len(X)]
	workers := k.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var wg sync.WaitGroup
	chunk := (len(X) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= len(X) {
			break
		}
		hi := lo + chunk
		if hi > len(X) {
			hi = len(X)
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			kk := k.kk()
			b0 := make([]cand, 0, kk)
			b1 := make([]cand, 0, kk)
			b2 := make([]cand, 0, kk)
			b3 := make([]cand, 0, kk)
			i := lo
			for ; i+4 <= hi; i += 4 {
				k.predictBlock4(X[i], X[i+1], X[i+2], X[i+3], b0, b1, b2, b3, out[i:i+4])
			}
			for ; i < hi; i++ {
				out[i] = k.predictInto(X[i], b0)
			}
		}(lo, hi)
	}
	wg.Wait()
	return out
}
