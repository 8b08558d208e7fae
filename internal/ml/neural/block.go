package neural

import "math"

// useAVX2 selects the kernel set: the AVX2 kernels when the CPU and OS
// support them (decided once, at start-up), else the portable Go ones.
// Tests clear it to run the portable kernels on an AVX2 host.
var useAVX2 = detectAVX2()

// layerBlock4 computes a dense layer's packed pre-activations for a
// four-row block; see layerBlock4Go for the contract.
func layerBlock4(w, b, xt, yt []float64, in int) {
	if useAVX2 {
		layerBlock4AVX2(w, b, xt, yt, in)
		return
	}
	layerBlock4Go(w, b, xt, yt, in)
}

// gradStep sums one dense layer's gradients over a mini-batch and
// takes the SGD step; see gradStepGo for the contract.
func gradStep(w, b, x, d []float64, in, rows int, lr float64) {
	if useAVX2 {
		gradStepAVX2(w, b, x, d, in, rows, lr)
		return
	}
	gradStepGo(w, b, x, d, in, rows, lr)
}

// layerBlock4Go is the portable layerBlock4 kernel: for a dense layer
// with `in` inputs, it computes the pre-activations of a four-row
// block from the packed input plane xt (element j*4+r is row r's
// input j) into the packed output plane yt:
//
//	yt[o*4+r] = b[o] + Σ_j w[o*in+j] · xt[j*4+r]
//
// Each (row, neuron) sum accumulates in strict j order, one rounded
// product at a time, so a row's result does not depend on the other
// three lanes, and the AVX2 kernel computes the same bits.
func layerBlock4Go(w, b, xt, yt []float64, in int) {
	for o := range b {
		// Ranging over the row resliced to the layer width, and
		// reading each packed column through a [4]float64, leave the
		// dot-product loop one length check per weight instead of four
		// index checks.
		row := w[o*in:]
		row = row[:in]
		bo := b[o]
		s0, s1, s2, s3 := bo, bo, bo, bo
		x := xt
		for _, v := range row {
			c := (*[4]float64)(x)
			// The conversions round each product, so no target fuses
			// it into the add.
			s0 += float64(v * c[0])
			s1 += float64(v * c[1])
			s2 += float64(v * c[2])
			s3 += float64(v * c[3])
			x = x[4:]
		}
		y := (*[4]float64)(yt[4*o:])
		y[0], y[1], y[2], y[3] = s0, s1, s2, s3
	}
}

// gradStepGo is the portable gradStep kernel. For a dense layer with
// `in` inputs and len(b) outputs, it reads the first `rows` rows of a
// mini-batch — the layer's inputs x, row-major (row r's input i at
// x[r*in+i]), and its deltas d, in the packed four-row blocks
// layerBlock4 writes (row r's delta for output o at
// d[r/4*4*len(b) + 4*o + r%4]) — and steps every weight by its
// gradient, summed from +0 in row order:
//
//	w[o*in+i] -= lr · Σ_r d[r][o]·x[r][i]
//	b[o]      -= lr · Σ_r d[r][o]
func gradStepGo(w, b, x, d []float64, in, rows int, lr float64) {
	stride := 4 * len(b)
	delta := func(r, o int) float64 { return d[r/4*stride+4*o+r%4] }
	for o := range b {
		var gb float64
		for r := range rows {
			gb += delta(r, o)
		}
		b[o] -= float64(lr * gb)
		row := w[o*in:]
		row = row[:in]
		i := 0
		for ; i+4 <= in; i += 4 {
			var g0, g1, g2, g3 float64
			for r := range rows {
				dr := delta(r, o)
				c := (*[4]float64)(x[r*in+i:])
				g0 += float64(dr * c[0])
				g1 += float64(dr * c[1])
				g2 += float64(dr * c[2])
				g3 += float64(dr * c[3])
			}
			c := (*[4]float64)(row[i:])
			c[0] -= float64(lr * g0)
			c[1] -= float64(lr * g1)
			c[2] -= float64(lr * g2)
			c[3] -= float64(lr * g3)
		}
		for ; i < in; i++ {
			var g float64
			for r := range rows {
				g += float64(delta(r, o) * x[r*in+i])
			}
			row[i] -= float64(lr * g)
		}
	}
}

// positive is all ones when v > 0 and zero otherwise, for NaN and ±0
// too. The compiler makes it a conditional move, so ReLU and ReLU′ do
// not branch on an activation's sign.
func positive(v float64) uint64 {
	m := uint64(0)
	if v > 0 {
		m = ^uint64(0)
	}
	return m
}

// relu is v when v > 0 and +0 otherwise, NaN and -0 included.
func relu(v float64) float64 {
	return math.Float64frombits(math.Float64bits(v) & positive(v))
}

// unpack copies a packed four-row plane of `width` columns into four
// consecutive rows of the row-major matrix m.
func unpack(m, plane []float64, width int) {
	r0 := m[:width]
	r1 := m[width:][:width]
	r2 := m[2*width:][:width]
	r3 := m[3*width:][:width]
	for j := range r0 {
		c := (*[4]float64)(plane[4*j:])
		r0[j], r1[j], r2[j], r3[j] = c[0], c[1], c[2], c[3]
	}
}
