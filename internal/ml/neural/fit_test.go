package neural

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"
)

// wideData returns n seeded rows of `features` standard-normal values,
// labelled by the sign of a fixed linear score plus noise: the shape of
// the pipeline's standardised Table II rows.
func wideData(n, features int, seed int64) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	coef := make([]float64, features)
	for j := range coef {
		coef[j] = rng.NormFloat64()
	}
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		X[i] = make([]float64, features)
		s := rng.NormFloat64() * 0.5
		for j := range X[i] {
			X[i][j] = rng.NormFloat64()
			s += coef[j] * X[i][j]
		}
		if s > 0 {
			y[i] = 1
		}
	}
	return X, y
}

// TestFitWeightsPinned pins the fitted weights bit for bit: the SHA-256
// of MarshalBinary after Fit, for the pipeline's MLP on 2 001×15 rows
// (the last mini-batch holds 17 rows, so a padded block runs) and for
// the stage-1 network on two-feature blobs (last batch 27). The
// digests were computed with the per-row SGD loop that predates the
// blocked one; any change to the order of a floating-point operation
// in training changes them.
//
// Platform note: the sigmoid calls math.Exp, which on amd64 takes an
// FMA path when the CPU has FMA and so differs in the last bit from
// Go's portable exp on a share of inputs. The digests therefore pin
// amd64 with FMA; elsewhere (386, arm64, amd64 without FMA) they
// differ, while the kernel-against-kernel identities of block_test.go
// hold on every target.
func TestFitWeightsPinned(t *testing.T) {
	checkFitDigests(t)
}

// checkFitDigests fits both pinned networks through the kernels
// useAVX2 selects and compares their weight digests.
func checkFitDigests(t *testing.T) {
	t.Helper()
	wide, wideY := wideData(2001, 15, 11)
	blobX, blobY := blobs(603, 1)
	for _, c := range []struct {
		name string
		cfg  Config
		X    [][]float64
		y    []int
		want string
	}{
		{"MLP(42) 2001x15", MLP(42), wide, wideY, "c189c7ef7bec7a4c97bccd948ea85602c664316a563cfb05df1963b14733de22"},
		{"ShallowNN(7) blobs 603", ShallowNN(7), blobX, blobY, "a848b44fe0e33817a6048d96b828e6db54fa6aba2581e03b5d3cf711b60c441d"},
	} {
		n := New(c.cfg)
		if err := n.Fit(c.X, c.y); err != nil {
			t.Fatal(err)
		}
		blob, err := n.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(blob)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: weights digest %s, want %s", c.name, got, c.want)
		}
	}
}

// BenchmarkFitMLP times one Fit at the benchmark's training shape: the
// pipeline's 64-32-16 MLP, 30 epochs over 2 000 rows of 15 features.
func BenchmarkFitMLP(b *testing.B) {
	X, y := wideData(2000, 15, 11)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := New(MLP(42)).Fit(X, y); err != nil {
			b.Fatal(err)
		}
	}
}
