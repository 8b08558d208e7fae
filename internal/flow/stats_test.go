package flow

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestStatsBasics(t *testing.T) {
	var s Stats
	if s.Mean() != 0 || s.Std() != 0 || s.Sum() != 0 || s.Last() != 0 || s.n != 0 {
		t.Error("zero-value Stats not all-zero")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.n != 8 {
		t.Errorf("Count = %d", s.n)
	}
	if s.Last() != 9 {
		t.Errorf("Last = %v", s.Last())
	}
	if s.Sum() != 40 {
		t.Errorf("Sum = %v", s.Sum())
	}
	if s.Mean() != 5 {
		t.Errorf("Mean = %v", s.Mean())
	}
	if got := s.Std(); math.Abs(got-2) > 1e-12 {
		t.Errorf("Std = %v, want 2 (classic example)", got)
	}
}

func TestStatsSingleObservation(t *testing.T) {
	var s Stats
	s.Add(42)
	if s.Mean() != 42 || s.Std() != 0 || s.Var() != 0 {
		t.Errorf("single obs: mean=%v std=%v", s.Mean(), s.Std())
	}
}

func TestStatsMatchesTwoPass(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 1000)
	var s Stats
	for i := range xs {
		xs[i] = rng.NormFloat64()*37 + 100
		s.Add(xs[i])
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	var m2 float64
	for _, x := range xs {
		m2 += (x - mean) * (x - mean)
	}
	std := math.Sqrt(m2 / float64(len(xs)))
	if math.Abs(s.Mean()-mean) > 1e-9 {
		t.Errorf("mean %v vs two-pass %v", s.Mean(), mean)
	}
	if math.Abs(s.Std()-std) > 1e-9 {
		t.Errorf("std %v vs two-pass %v", s.Std(), std)
	}
}

func TestStatsPropertyNonNegativeVariance(t *testing.T) {
	f := func(xs []float64) bool {
		var s Stats
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			// keep magnitudes sane to avoid float overflow artifacts
			s.Add(math.Mod(x, 1e9))
		}
		return s.Var() >= 0 || math.IsNaN(s.Var()) == false
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStatsPropertyMeanWithinRange(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		var s Stats
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range raw {
			x := float64(v)
			s.Add(x)
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		return s.Mean() >= lo-1e-9 && s.Mean() <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
