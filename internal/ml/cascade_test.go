package ml

import (
	"fmt"
	"math/rand"
	"testing"
)

// probaStub is a deterministic BatchProbaClassifier: the probability
// is the first feature, clamped to [0, 1].
type probaStub struct{ calls int }

func (p *probaStub) Name() string                     { return "stub" }
func (p *probaStub) Fit(X [][]float64, y []int) error { return nil }
func (p *probaStub) Predict(x []float64) int {
	b := 0
	if p.Proba(x) >= 0.5 {
		b = 1
	}
	return b
}
func (p *probaStub) Proba(x []float64) float64 {
	v := x[0]
	if v < 0 {
		v = 0
	}
	if v > 1 {
		v = 1
	}
	return v
}
func (p *probaStub) PredictProbaBatch(X [][]float64) []float64 {
	p.calls++
	out := make([]float64, len(X))
	for i, x := range X {
		out[i] = p.Proba(x)
	}
	return out
}
func (p *probaStub) PredictBatchInto(dst []int, X [][]float64) []int {
	dst = labelBuf(dst, len(X))
	for i, x := range X {
		dst[i] = p.Predict(x)
	}
	return dst
}

func rowsWithProbs(ps ...float64) [][]float64 {
	X := make([][]float64, len(ps))
	for i, p := range ps {
		X[i] = []float64{p, float64(i)}
	}
	return X
}

func TestCascadeDisabledFallsThroughEverything(t *testing.T) {
	X := rowsWithProbs(0.0, 0.2, 0.5, 0.9, 1.0)
	for name, c := range map[string]*Cascade{
		"nil":          nil,
		"no stages":    {},
		"threshold 0":  {Stages: []CascadeStage{{Name: "t", Model: &probaStub{}, Threshold: 0}}},
		"threshold <0": {Stages: []CascadeStage{{Name: "t", Model: &probaStub{}, Threshold: -1}}},
		"nil model":    {Stages: []CascadeStage{{Name: "t", Threshold: 0.5}}},
	} {
		stage, _ := c.TriageBatch(X, nil, nil)
		for i, st := range stage {
			if st != 0 {
				t.Fatalf("%s: row %d exited at stage %d, want fall-through", name, i, st)
			}
		}
		if c.Enabled() {
			t.Fatalf("%s: Enabled() = true, want false", name)
		}
	}
}

func TestCascadeEarlyExit(t *testing.T) {
	m := &probaStub{}
	c := &Cascade{Stages: []CascadeStage{{Name: "t", Model: m, Threshold: 0.9}}}
	if !c.Enabled() {
		t.Fatal("Enabled() = false for an active stage")
	}
	// |2p-1| >= 0.9  <=>  p <= 0.05 or p >= 0.95.
	X := rowsWithProbs(0.01, 0.5, 0.96, 0.07, 1.0, 0.0)
	stage, label := c.TriageBatch(X, nil, nil)
	wantStage := []int{1, 0, 1, 0, 1, 1}
	wantLabel := []int{0, 0, 1, 0, 1, 0}
	for i := range X {
		if stage[i] != wantStage[i] {
			t.Fatalf("row %d stage = %d, want %d", i, stage[i], wantStage[i])
		}
		if stage[i] > 0 && label[i] != wantLabel[i] {
			t.Fatalf("row %d label = %d, want %d", i, label[i], wantLabel[i])
		}
	}
}

func TestCascadeSuspiciousNeverExitsBenign(t *testing.T) {
	c := &Cascade{Stages: []CascadeStage{{Name: "t", Model: &probaStub{}, Threshold: 0.9}}}
	X := rowsWithProbs(0.01, 0.99) // confident benign, confident attack
	sus := []bool{true, true}
	stage, label := c.TriageBatch(X, sus, nil)
	if stage[0] != 0 {
		t.Fatalf("suspicious benign row exited at stage %d, want fall-through", stage[0])
	}
	if stage[1] != 1 || label[1] != 1 {
		t.Fatalf("suspicious attack row: stage %d label %d, want exit as attack", stage[1], label[1])
	}
}

func TestCascadeMultiStage(t *testing.T) {
	// Stage 1 exits only saturated rows; stage 2 mops up anything
	// that is at least leaning one way.
	c := &Cascade{Stages: []CascadeStage{
		{Name: "first", Model: &probaStub{}, Threshold: 0.99},
		{Name: "second", Model: &probaStub{}, Threshold: 0.5},
	}}
	X := rowsWithProbs(0.0, 0.1, 0.5, 0.9, 1.0)
	stage, label := c.TriageBatch(X, nil, nil)
	wantStage := []int{1, 2, 0, 2, 1}
	wantLabel := []int{0, 0, 0, 1, 1}
	for i := range X {
		if stage[i] != wantStage[i] {
			t.Fatalf("row %d stage = %d, want %d", i, stage[i], wantStage[i])
		}
		if stage[i] > 0 && label[i] != wantLabel[i] {
			t.Fatalf("row %d label = %d, want %d", i, label[i], wantLabel[i])
		}
	}
}

// TestCascadeScratchReuse pins that repeated calls with one scratch
// produce the same answers as fresh calls and that the returned
// slices always match len(X).
func TestCascadeScratchReuse(t *testing.T) {
	c := &Cascade{Stages: []CascadeStage{{Name: "t", Model: &probaStub{}, Threshold: 0.8}}}
	s := &CascadeScratch{}
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 50; iter++ {
		n := rng.Intn(40)
		X := make([][]float64, n)
		for i := range X {
			X[i] = []float64{rng.Float64(), 0}
		}
		gotS, gotL := c.TriageBatch(X, nil, s)
		wantS, wantL := c.TriageBatch(X, nil, nil)
		if len(gotS) != n || len(gotL) != n {
			t.Fatalf("iter %d: result length %d/%d, want %d", iter, len(gotS), len(gotL), n)
		}
		if fmt.Sprint(gotS) != fmt.Sprint(wantS) || fmt.Sprint(gotL) != fmt.Sprint(wantL) {
			t.Fatalf("iter %d: scratch reuse diverged from fresh call", iter)
		}
	}
}

// TestEnsembleVotesIntoMatchesEnsembleVotes pins the buffer-reuse
// path to a fresh scratch's: one scratch reused across batches that
// grow and shrink must return, every call, what a nil scratch returns
// for the same batch — no vote or count left over from the batch
// before.
func TestEnsembleVotesIntoMatchesEnsembleVotes(t *testing.T) {
	models := []Classifier{&probaStub{}, &probaStub{}}
	s := &VoteScratch{}
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 30; iter++ {
		n := 1 + rng.Intn(16)
		X := make([][]float64, n)
		for i := range X {
			X[i] = []float64{rng.Float64(), 0}
		}
		wantVotes, wantOnes := EnsembleVotesInto(nil, models, X)
		for call := 0; call < 2; call++ {
			votes, ones := EnsembleVotesInto(s, models, X)
			if fmt.Sprint(votes) != fmt.Sprint(wantVotes) || fmt.Sprint(ones) != fmt.Sprint(wantOnes) {
				t.Fatalf("iter %d call %d: reused scratch %v %v, fresh %v %v", iter, call, votes, ones, wantVotes, wantOnes)
			}
		}
	}
}
