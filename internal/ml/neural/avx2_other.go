//go:build !amd64

package neural

// detectAVX2 is false off amd64: the portable kernels run.
func detectAVX2() bool { return false }

func layerBlock4AVX2(w, b, xt, yt []float64, in int) {
	panic("neural: no AVX2 kernels off amd64")
}

func gradStepAVX2(w, b, x, d []float64, in, rows int, lr float64) {
	panic("neural: no AVX2 kernels off amd64")
}
