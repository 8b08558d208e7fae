package neural

// layerBlock4Go is the portable layerBlock4 kernel: for a dense layer
// with `in` inputs, it computes the pre-activations of a four-row
// block from the packed input plane xt (element j*4+r is row r's
// input j) into the packed output plane yt:
//
//	yt[o*4+r] = b[o] + Σ_j w[o*in+j] · xt[j*4+r]
//
// Each (row, neuron) sum accumulates in strict j order, exactly like
// the scalar forward pass, so results are bit-identical to it. The
// amd64 assembly kernel follows the same contract.
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
			s0 += v * c[0]
			s1 += v * c[1]
			s2 += v * c[2]
			s3 += v * c[3]
			x = x[4:]
		}
		y := (*[4]float64)(yt[4*o:])
		y[0], y[1], y[2], y[3] = s0, s1, s2, s3
	}
}
