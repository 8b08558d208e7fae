package neural

// detectAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers across context switches: CPUID leaf 1's OSXSAVE and AVX
// bits, XCR0's XMM and YMM state bits, and CPUID leaf 7's AVX2 bit.
func detectAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	const xmmState, ymmState = 1 << 1, 1 << 2
	if xcr0, _ := xgetbv(); xcr0&(xmmState|ymmState) != xmmState|ymmState {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// layerBlock4AVX2 is layerBlock4Go in AVX2; see avx2_amd64.s.
//
//go:noescape
func layerBlock4AVX2(w, b, xt, yt []float64, in int)

// gradStepAVX2 is gradStepGo in AVX2; see avx2_amd64.s.
//
//go:noescape
func gradStepAVX2(w, b, x, d []float64, in, rows int, lr float64)
