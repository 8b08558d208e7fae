package sketch

import (
	"math/rand"
	"sync"
	"testing"
)

func TestEstimateNeverUnderestimates(t *testing.T) {
	s := New(4, 256)
	rng := rand.New(rand.NewSource(1))
	exact := map[uint64]uint64{}
	for i := 0; i < 20000; i++ {
		h := uint64(rng.Intn(500)) * 0x9e3779b97f4a7c15
		s.Update(h)
		exact[h]++
	}
	for h, want := range exact {
		if got := s.Estimate(h); got < want {
			t.Fatalf("count-min underestimated key %x: got %d want >= %d", h, got, want)
		}
	}
	if s.total.Load() != 20000 {
		t.Fatalf("total = %d, want 20000", s.total.Load())
	}
}

func TestHeavyHitterDetection(t *testing.T) {
	s := New(0, 0) // defaults
	hot := uint64(0xdeadbeefcafef00d)
	rng := rand.New(rand.NewSource(2))
	// 50% of the stream is one key, the rest spread over 10k keys.
	for i := 0; i < 10000; i++ {
		if i%2 == 0 {
			s.Update(hot)
		} else {
			s.Update(rng.Uint64())
		}
	}
	if !s.HeavyHitter(hot, 0.1, 512) {
		t.Fatal("half-of-stream key not flagged as heavy hitter at frac 0.1")
	}
	if s.HeavyHitter(rng.Uint64(), 0.1, 512) {
		t.Fatal("random unseen key flagged as heavy hitter")
	}
}

func TestHeavyHitterNeedsMinSample(t *testing.T) {
	s := New(4, 256)
	h := uint64(42)
	for i := 0; i < 100; i++ {
		s.Update(h)
	}
	if s.HeavyHitter(h, 0.1, 512) {
		t.Fatal("heavy hitter flagged below minSample")
	}
	if s.Suspicious(h, 0.1, 0.3, 512) {
		t.Fatal("suspicious verdict below minSample")
	}
}

func TestEntropyBounds(t *testing.T) {
	s := New(4, 256)
	if got := s.Entropy(); got != 1 {
		t.Fatalf("empty sketch entropy = %v, want 1", got)
	}
	// Single key: entropy collapses toward 0.
	for i := 0; i < 5000; i++ {
		s.Update(7)
	}
	if got := s.Entropy(); got > 0.01 {
		t.Fatalf("single-key entropy = %v, want ~0", got)
	}
	// Uniform keys: entropy near 1.
	s = New(4, 256)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50000; i++ {
		s.Update(rng.Uint64())
	}
	if got := s.Entropy(); got < 0.9 {
		t.Fatalf("uniform-key entropy = %v, want near 1", got)
	}
}

func TestSuspiciousEntropyCollapse(t *testing.T) {
	s := New(4, 512)
	// Two keys dominate: each is a heavy hitter AND entropy collapses,
	// so even an unrelated benign key is held for the full ensemble.
	for i := 0; i < 4096; i++ {
		s.Update(uint64(i % 2))
	}
	if !s.Suspicious(99999, 0.5, 0.3, 512) {
		t.Fatal("entropy collapse did not mark unrelated key suspicious")
	}
}

func TestOccupancy(t *testing.T) {
	s := New(4, 128)
	if got := s.Occupancy(); got != 0 {
		t.Fatalf("fresh occupancy = %v, want 0", got)
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 1000; i++ {
		s.Update(rng.Uint64())
	}
	mid := s.Occupancy()
	if mid <= 0 || mid > 1 {
		t.Fatalf("occupancy = %v, want (0, 1]", mid)
	}
}

func TestDeterministicAcrossInstances(t *testing.T) {
	a, b := New(4, 512), New(4, 512)
	rng := rand.New(rand.NewSource(5))
	keys := make([]uint64, 2000)
	for i := range keys {
		keys[i] = rng.Uint64()
		a.Update(keys[i])
		b.Update(keys[i])
	}
	for _, k := range keys {
		if a.Estimate(k) != b.Estimate(k) {
			t.Fatalf("estimates diverge for %x", k)
		}
	}
	if a.Entropy() != b.Entropy() || a.Occupancy() != b.Occupancy() {
		t.Fatal("entropy/occupancy diverge between identical update streams")
	}
}

// TestConcurrentReaders exercises the one-writer/many-readers contract
// under the race detector (this package is in `make race`).
func TestConcurrentReaders(t *testing.T) {
	s := New(4, 512)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-done:
					return
				default:
				}
				h := rng.Uint64()
				_ = s.Estimate(h)
				_ = s.Suspicious(h, 0.05, 0.3, 512)
				if e := s.Entropy(); e < 0 || e > 1 {
					t.Errorf("entropy out of range: %v", e)
					return
				}
				if o := s.Occupancy(); o < 0 || o > 1 {
					t.Errorf("occupancy out of range: %v", o)
					return
				}
			}
		}(int64(r))
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 50000; i++ {
		s.Update(rng.Uint64() % 1000)
	}
	close(done)
	wg.Wait()
}
