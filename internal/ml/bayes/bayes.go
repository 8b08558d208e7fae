// Package bayes implements Gaussian Naive Bayes, the lightweight
// GNB baseline of the paper's Tables III–VI.
package bayes

import (
	"errors"
	"math"
)

// GaussianNB models each feature as an independent per-class
// Gaussian, with scikit-learn-style variance smoothing for numeric
// stability.
type GaussianNB struct {
	// VarSmoothing is the fraction of the largest feature variance
	// added to every variance (default 1e-9, as in scikit-learn).
	VarSmoothing float64

	prior [2]float64   // log class priors
	mean  [2][]float64 // per-class feature means
	vr    [2][]float64 // per-class feature variances
	// lnorm caches -0.5*log(2π·vr) per class and feature — the
	// likelihood's normalization constants, hoisted out of the sample
	// loop so scoring never recomputes a logarithm. Derived from vr by
	// cacheNorms after Fit or UnmarshalBinary.
	lnorm [2][]float64
	ready bool
}

// New returns an untrained classifier with default smoothing.
func New() *GaussianNB { return &GaussianNB{VarSmoothing: 1e-9} }

// Name implements ml.Classifier.
func (g *GaussianNB) Name() string { return "GNB" }

// Features returns the trained input width (0 before Fit), letting
// pipelines validate feature-vector shape before scoring.
func (g *GaussianNB) Features() int { return len(g.mean[0]) }

// Fit estimates per-class feature means and variances.
func (g *GaussianNB) Fit(X [][]float64, y []int) error {
	if len(X) == 0 {
		return errors.New("bayes: empty training set")
	}
	if len(X) != len(y) {
		return errors.New("bayes: rows and labels differ")
	}
	w := len(X[0])
	var count [2]int
	for c := 0; c < 2; c++ {
		g.mean[c] = make([]float64, w)
		g.vr[c] = make([]float64, w)
	}
	for i, row := range X {
		c := y[i]
		count[c]++
		for j, v := range row {
			g.mean[c][j] += v
		}
	}
	if count[0] == 0 || count[1] == 0 {
		return errors.New("bayes: training set must contain both classes")
	}
	for c := 0; c < 2; c++ {
		for j := range g.mean[c] {
			g.mean[c][j] /= float64(count[c])
		}
	}
	for i, row := range X {
		c := y[i]
		for j, v := range row {
			d := v - g.mean[c][j]
			g.vr[c][j] += d * d
		}
	}
	maxVar := 0.0
	for c := 0; c < 2; c++ {
		for j := range g.vr[c] {
			g.vr[c][j] /= float64(count[c])
			if g.vr[c][j] > maxVar {
				maxVar = g.vr[c][j]
			}
		}
	}
	if g.VarSmoothing <= 0 {
		g.VarSmoothing = 1e-9
	}
	eps := g.VarSmoothing * maxVar
	if eps == 0 {
		eps = g.VarSmoothing
	}
	for c := 0; c < 2; c++ {
		for j := range g.vr[c] {
			g.vr[c][j] += eps
		}
	}
	n := float64(len(X))
	g.prior[0] = math.Log(float64(count[0]) / n)
	g.prior[1] = math.Log(float64(count[1]) / n)
	g.cacheNorms()
	g.ready = true
	return nil
}

// cacheNorms precomputes the per-feature log-normalization constants.
// The cached value is exactly the -0.5*log(2π·vr) term the likelihood
// previously evaluated per sample, so scores are bit-identical.
func (g *GaussianNB) cacheNorms() {
	for c := 0; c < 2; c++ {
		g.lnorm[c] = make([]float64, len(g.vr[c]))
		for j, v := range g.vr[c] {
			g.lnorm[c][j] = -0.5 * math.Log(2*math.Pi*v)
		}
	}
}

// logLikelihood returns the joint log-likelihood of x under class c.
func (g *GaussianNB) logLikelihood(x []float64, c int) float64 {
	ll := g.prior[c]
	norm, mean, vr := g.lnorm[c], g.mean[c], g.vr[c]
	for j, v := range x {
		d := v - mean[j]
		ll += norm[j] - d*d/(2*vr[j])
	}
	return ll
}

// Predict implements ml.Classifier.
func (g *GaussianNB) Predict(x []float64) int {
	if !g.ready {
		return 0
	}
	if g.logLikelihood(x, 1) > g.logLikelihood(x, 0) {
		return 1
	}
	return 0
}

// Proba returns P(attack|x) via the normalized likelihoods.
func (g *GaussianNB) Proba(x []float64) float64 {
	if !g.ready {
		return 0
	}
	l0, l1 := g.logLikelihood(x, 0), g.logLikelihood(x, 1)
	m := math.Max(l0, l1)
	e0, e1 := math.Exp(l0-m), math.Exp(l1-m)
	return e1 / (e0 + e1)
}

// logLikelihoodBlock4 computes four rows' log-likelihoods under class
// c in one pass: the per-feature constants and class parameters are
// loaded once per block, and the four accumulator chains are
// independent, so the divides and adds of different rows overlap.
// Each row's accumulation order matches logLikelihood exactly.
func (g *GaussianNB) logLikelihoodBlock4(x0, x1, x2, x3 []float64, c int) (l0, l1, l2, l3 float64) {
	l0, l1, l2, l3 = g.prior[c], g.prior[c], g.prior[c], g.prior[c]
	norm, mean, vr := g.lnorm[c], g.mean[c], g.vr[c]
	for j := range x0 {
		m, v, nm := mean[j], vr[j], norm[j]
		d0 := x0[j] - m
		d1 := x1[j] - m
		d2 := x2[j] - m
		d3 := x3[j] - m
		l0 += nm - d0*d0/(2*v)
		l1 += nm - d1*d1/(2*v)
		l2 += nm - d2*d2/(2*v)
		l3 += nm - d3*d3/(2*v)
	}
	return l0, l1, l2, l3
}

// PredictBatchInto implements ml.BatchClassifier: blocked
// class-posterior comparison into dst, row-for-row identical to
// Predict.
func (g *GaussianNB) PredictBatchInto(dst []int, X [][]float64) []int {
	if cap(dst) < len(X) {
		dst = make([]int, len(X))
	}
	dst = dst[:len(X)]
	if !g.ready {
		clear(dst)
		return dst
	}
	i := 0
	for ; i+4 <= len(X); i += 4 {
		a0, a1, a2, a3 := g.logLikelihoodBlock4(X[i], X[i+1], X[i+2], X[i+3], 0)
		b0, b1, b2, b3 := g.logLikelihoodBlock4(X[i], X[i+1], X[i+2], X[i+3], 1)
		dst[i] = b2i(b0 > a0)
		dst[i+1] = b2i(b1 > a1)
		dst[i+2] = b2i(b2 > a2)
		dst[i+3] = b2i(b3 > a3)
	}
	for ; i < len(X); i++ {
		dst[i] = g.Predict(X[i])
	}
	return dst
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// PredictProbaBatch returns P(attack|x) per row, row-for-row
// identical to Proba.
func (g *GaussianNB) PredictProbaBatch(X [][]float64) []float64 {
	out := make([]float64, len(X))
	if !g.ready {
		return out
	}
	softmax2 := func(l0, l1 float64) float64 {
		m := math.Max(l0, l1)
		e0, e1 := math.Exp(l0-m), math.Exp(l1-m)
		return e1 / (e0 + e1)
	}
	i := 0
	for ; i+4 <= len(X); i += 4 {
		a0, a1, a2, a3 := g.logLikelihoodBlock4(X[i], X[i+1], X[i+2], X[i+3], 0)
		b0, b1, b2, b3 := g.logLikelihoodBlock4(X[i], X[i+1], X[i+2], X[i+3], 1)
		out[i] = softmax2(a0, b0)
		out[i+1] = softmax2(a1, b1)
		out[i+2] = softmax2(a2, b2)
		out[i+3] = softmax2(a3, b3)
	}
	for ; i < len(X); i++ {
		out[i] = g.Proba(X[i])
	}
	return out
}
