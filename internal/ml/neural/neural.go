// Package neural implements the paper's neural-network models from
// scratch: a fully connected multilayer perceptron with ReLU hidden
// layers, a sigmoid output, binary cross-entropy loss, and mini-batch
// SGD. The paper's two configurations are provided: the shallow
// 32-16-8 network of §IV-B3 and the scikit-learn-style MLP 64-32-16 of
// §IV-C3.
//
// Training and scoring share one kernel, layerBlock4, which runs four
// rows at a time through a dense layer (SSE2 on amd64). Fit uses it
// forward, and backward over the transposed weights; batch scoring
// uses it forward. Neither reorders a floating-point sum: the fitted
// weights are bit-identical to per-row SGD, and batch scores to
// per-row Proba.
package neural

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
)

// Config parameterizes an MLP.
type Config struct {
	// Hidden lists hidden-layer widths, e.g. {32, 16, 8}.
	Hidden []int
	// Epochs is the number of passes over the training set
	// (default 30).
	Epochs int
	// Seed makes initialization and shuffling deterministic.
	Seed int64
	// DisplayName overrides Name(), so the same implementation can
	// report as "NN" (stage 1) or "MLP" (stage 2).
	DisplayName string
}

// The SGD constants of every network the paper trains. The step has
// no momentum term.
const (
	// batchSize is the mini-batch size.
	batchSize = 64
	// learningRate is the SGD step.
	learningRate = 0.01
)

// ShallowNN returns the paper's stage-1 network: three hidden layers
// of 32, 16, and 8 neurons.
func ShallowNN(seed int64) Config {
	return Config{Hidden: []int{32, 16, 8}, Seed: seed, DisplayName: "NN"}
}

// MLP returns the paper's stage-2 network: 64, 32, 16.
func MLP(seed int64) Config {
	return Config{Hidden: []int{64, 32, 16}, Seed: seed, DisplayName: "MLP"}
}

// layer is one dense layer.
type layer struct {
	in, out int
	w       []float64 // out×in, row-major
	b       []float64
}

// Network is a trained MLP classifier.
type Network struct {
	cfg    Config
	layers []layer
	ready  bool
	// lr is the SGD step: learningRate, unless a test sets it between
	// New and Fit.
	lr float64

	// scratch pools the forward pass's activation buffers, sized to
	// layers: several KB that would otherwise be allocated on every
	// scoring call, whatever the batch size. Prediction workers share
	// one Network, so each call takes its own set. Replaced whenever
	// layers is (init, UnmarshalBinary), which retires buffers of the
	// old shape.
	scratch *sync.Pool
}

// inferScratch is one call's activation buffers: packed four-row
// planes for forwardBlock4 and single-row acts for forward.
type inferScratch struct {
	planes, acts [][]float64
}

// newScratchPool returns a pool of buffers sized to the current layers.
func (n *Network) newScratchPool() *sync.Pool {
	return &sync.Pool{New: func() any {
		return &inferScratch{planes: n.makePlanes(), acts: n.makeActs()}
	}}
}

// New constructs an untrained network; zero-valued config fields take
// their defaults.
func New(cfg Config) *Network {
	if len(cfg.Hidden) == 0 {
		cfg.Hidden = []int{32, 16, 8}
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 30
	}
	if cfg.DisplayName == "" {
		cfg.DisplayName = "NN"
	}
	return &Network{cfg: cfg, lr: learningRate}
}

// Name implements ml.Classifier.
func (n *Network) Name() string { return n.cfg.DisplayName }

// Features returns the trained input width (0 before Fit), letting
// pipelines validate feature-vector shape before scoring.
func (n *Network) Features() int {
	if len(n.layers) == 0 {
		return 0
	}
	return n.layers[0].in
}

// init builds layers with He-initialized weights.
func (n *Network) init(features int, rng *rand.Rand) {
	sizes := append([]int{features}, n.cfg.Hidden...)
	sizes = append(sizes, 1)
	n.layers = make([]layer, len(sizes)-1)
	for li := range n.layers {
		in, out := sizes[li], sizes[li+1]
		l := layer{in: in, out: out}
		l.w = make([]float64, in*out)
		l.b = make([]float64, out)
		scale := math.Sqrt(2.0 / float64(in))
		for i := range l.w {
			l.w[i] = rng.NormFloat64() * scale
		}
		n.layers[li] = l
	}
	n.scratch = n.newScratchPool()
}

// forward computes activations for one row. acts[0] is the input;
// acts[i+1] the output of layer i (ReLU for hidden, sigmoid for the
// final layer).
func (n *Network) forward(x []float64, acts [][]float64) {
	copy(acts[0], x)
	for li := range n.layers {
		l := &n.layers[li]
		in, out := acts[li], acts[li+1]
		last := li == len(n.layers)-1
		for o := 0; o < l.out; o++ {
			sum := l.b[o]
			row := l.w[o*l.in : (o+1)*l.in]
			for i, v := range in {
				sum += row[i] * v
			}
			if last {
				out[o] = 1 / (1 + math.Exp(-sum))
			} else if sum > 0 {
				out[o] = sum
			} else {
				out[o] = 0
			}
		}
	}
}

// Fit trains with mini-batch SGD on binary cross-entropy.
// Each mini-batch runs four rows at a time through layerBlock4, the
// kernel scoring uses: forward on packed planes, deltas back through
// the transposed weights, gradients summed four rows per weight load.
// Every weight's gradient still adds the batch's rows in order, so the
// fitted weights are bit-identical to per-row SGD; a batch's last
// len(batch)%4 rows run the per-row forward and backward.
func (n *Network) Fit(X [][]float64, y []int) error {
	if len(X) == 0 {
		return errors.New("neural: empty training set")
	}
	if len(X) != len(y) {
		return errors.New("neural: rows and labels differ")
	}
	for i, x := range X {
		if len(x) != len(X[0]) {
			return fmt.Errorf("neural: row %d has %d features, row 0 has %d", i, len(x), len(X[0]))
		}
	}
	rng := rand.New(rand.NewSource(n.cfg.Seed))
	n.init(len(X[0]), rng)
	t := n.newTrainer()

	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	for epoch := 0; epoch < n.cfg.Epochs; epoch++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for start := 0; start < len(idx); start += batchSize {
			batch := idx[start:min(start+batchSize, len(idx))]
			for li := range t.gw {
				clear(t.gw[li])
				clear(t.gb[li])
			}
			i := 0
			for ; i+blockRows <= len(batch); i += blockRows {
				r0, r1, r2, r3 := batch[i], batch[i+1], batch[i+2], batch[i+3]
				p0, p1, p2, p3 := n.forwardBlock4(X[r0], X[r1], X[r2], X[r3], t.planes)
				d := t.deltas[len(n.layers)-1]
				d[0] = p0 - float64(y[r0])
				d[1] = p1 - float64(y[r1])
				d[2] = p2 - float64(y[r2])
				d[3] = p3 - float64(y[r3])
				n.backwardBlock4(t)
			}
			for _, r := range batch[i:] {
				n.forward(X[r], t.acts)
				n.backward(float64(y[r]), t.acts, t.rowDeltas, t.gw, t.gb)
			}
			n.step(len(batch), t.gw, t.gb)
			t.transpose(n.layers)
		}
	}
	n.ready = true
	return nil
}

// trainer is one Fit's buffers, sized to the layer stack once.
type trainer struct {
	// planes are the packed four-row activations (as forwardBlock4
	// fills them) and deltas[li] layer li's packed
	// dLoss/dPreactivation; acts and rowDeltas are the per-row
	// remainder's.
	planes, deltas  [][]float64
	acts, rowDeltas [][]float64
	// wt[li] is layer li's weights transposed (in×out, row-major), so
	// layerBlock4 propagates deltas back through it; wt[0] is unused.
	wt [][]float64
	// zero is the zero bias of the backward layerBlock4 calls.
	zero   []float64
	gw, gb [][]float64
}

// newTrainer sizes a trainer to n's layers, with wt transposed from
// the initial weights.
func (n *Network) newTrainer() *trainer {
	t := &trainer{
		planes:    n.makePlanes(),
		acts:      n.makeActs(),
		deltas:    make([][]float64, len(n.layers)),
		rowDeltas: make([][]float64, len(n.layers)),
		wt:        make([][]float64, len(n.layers)),
		gw:        make([][]float64, len(n.layers)),
		gb:        make([][]float64, len(n.layers)),
	}
	width := 0
	for li, l := range n.layers {
		t.deltas[li] = make([]float64, blockRows*l.out)
		t.rowDeltas[li] = make([]float64, l.out)
		if li > 0 {
			t.wt[li] = make([]float64, len(l.w))
		}
		t.gw[li] = make([]float64, len(l.w))
		t.gb[li] = make([]float64, len(l.b))
		width = max(width, l.in)
	}
	t.zero = make([]float64, width)
	t.transpose(n.layers)
	return t
}

// transpose refreshes wt from the layers' current weights.
func (t *trainer) transpose(layers []layer) {
	for li := 1; li < len(layers); li++ {
		l := &layers[li]
		wt := t.wt[li]
		for o := 0; o < l.out; o++ {
			for i, v := range l.w[o*l.in : (o+1)*l.in] {
				wt[i*l.out+o] = v
			}
		}
	}
}

// backwardBlock4 accumulates the gradients of the four rows whose
// activations sit in t.planes, from the output deltas in the last
// t.deltas plane. Each packed delta is Σ_o w[o][i]·δ[o] summed from +0
// in o order, masked by ReLU′, as backward computes it; each gradient
// adds the four rows in row order, as four backward calls would.
func (n *Network) backwardBlock4(t *trainer) {
	for li := len(n.layers) - 1; li > 0; li-- {
		l := &n.layers[li]
		d := t.deltas[li-1]
		layerBlock4(t.wt[li], t.zero[:l.in], t.deltas[li], d, l.out)
		for k, a := range t.planes[li] {
			if !(a > 0) { // ReLU', tested as backward tests it
				d[k] = 0
			}
		}
	}
	for li := range n.layers {
		l := &n.layers[li]
		gw, gb, d := t.gw[li], t.gb[li], t.deltas[li]
		for o := range gb {
			d0, d1, d2, d3 := d[4*o], d[4*o+1], d[4*o+2], d[4*o+3]
			g := gb[o]
			g += d0
			g += d1
			g += d2
			g += d3
			gb[o] = g
			// Reslicing row to the layer width and reading each
			// packed column through a [4]float64 leave the loop one
			// bounds check per weight instead of four.
			row := gw[o*l.in:]
			row = row[:l.in]
			x := t.planes[li]
			for i, g := range row {
				xb := (*[4]float64)(x)
				g += d0 * xb[0]
				g += d1 * xb[1]
				g += d2 * xb[2]
				g += d3 * xb[3]
				row[i] = g
				x = x[4:]
			}
		}
	}
}

// backward accumulates gradients for one row into gw/gb.
func (n *Network) backward(target float64, acts, deltas, gw, gb [][]float64) {
	last := len(n.layers) - 1
	// Sigmoid + BCE: delta = prediction - target.
	deltas[last][0] = acts[last+1][0] - target
	for li := last - 1; li >= 0; li-- {
		l := &n.layers[li+1]
		for i := 0; i < l.in; i++ {
			var s float64
			for o := 0; o < l.out; o++ {
				s += l.w[o*l.in+i] * deltas[li+1][o]
			}
			if acts[li+1][i] > 0 { // ReLU'
				deltas[li][i] = s
			} else {
				deltas[li][i] = 0
			}
		}
	}
	for li := range n.layers {
		l := &n.layers[li]
		in := acts[li]
		for o := 0; o < l.out; o++ {
			d := deltas[li][o]
			gb[li][o] += d
			row := gw[li][o*l.in : (o+1)*l.in]
			for i, v := range in {
				row[i] += d * v
			}
		}
	}
}

// step applies one SGD update from accumulated gradients.
func (n *Network) step(batch int, gw, gb [][]float64) {
	lr := n.lr / float64(batch)
	for li := range n.layers {
		l := &n.layers[li]
		for i := range l.w {
			l.w[i] -= lr * gw[li][i]
		}
		for i := range l.b {
			l.b[i] -= lr * gb[li][i]
		}
	}
}

// makeActs allocates activation buffers sized to the layer stack.
func (n *Network) makeActs() [][]float64 {
	acts := make([][]float64, len(n.layers)+1)
	acts[0] = make([]float64, n.layers[0].in)
	for li := range n.layers {
		acts[li+1] = make([]float64, n.layers[li].out)
	}
	return acts
}

// Proba returns P(attack|x).
func (n *Network) Proba(x []float64) float64 {
	if !n.ready {
		return 0
	}
	sc := n.scratch.Get().(*inferScratch)
	defer n.scratch.Put(sc)
	n.forward(x, sc.acts)
	return sc.acts[len(sc.acts)-1][0]
}

// Predict implements ml.Classifier with a 0.5 threshold.
func (n *Network) Predict(x []float64) int {
	if n.Proba(x) > 0.5 {
		return 1
	}
	return 0
}

// blockRows is the row-block width of the batch forward pass: each
// weight row is streamed once per block instead of once per sample,
// and the block's dot products accumulate in independent chains, so
// the FP-add latency that serializes the single-sample path cannot
// bind. Activations for a block live in packed column-major planes
// (element j*blockRows+r is row r's value for neuron j), which lets
// the layerBlock4 kernel pair adjacent rows into SIMD lanes on amd64.
// Four divides the common micro-batch sizes (8/32/128), so chunked
// calls never fall to the scalar remainder. Per-row accumulation
// order is unchanged in every kernel, keeping batch scores
// bit-identical to Proba.
const blockRows = 4

// forwardBlock4 runs one full-width block of four rows through the
// network. planes[0] receives the packed input block; planes[li+1]
// holds layer li's packed activations. It returns the four sigmoid
// outputs.
func (n *Network) forwardBlock4(x0, x1, x2, x3 []float64, planes [][]float64) (p0, p1, p2, p3 float64) {
	xt := planes[0]
	for j := range x0 {
		xt[4*j] = x0[j]
		xt[4*j+1] = x1[j]
		xt[4*j+2] = x2[j]
		xt[4*j+3] = x3[j]
	}
	for li := range n.layers {
		l := &n.layers[li]
		yt := planes[li+1]
		layerBlock4(l.w, l.b, xt, yt, l.in)
		if li == len(n.layers)-1 {
			p0 = 1 / (1 + math.Exp(-yt[0]))
			p1 = 1 / (1 + math.Exp(-yt[1]))
			p2 = 1 / (1 + math.Exp(-yt[2]))
			p3 = 1 / (1 + math.Exp(-yt[3]))
			return
		}
		for i, v := range yt {
			yt[i] = relu(v)
		}
		xt = yt
	}
	return
}

func relu(v float64) float64 {
	if v > 0 {
		return v
	}
	return 0
}

// makePlanes allocates the packed activation planes for forwardBlock4:
// planes[0] is sized for the input block, planes[li+1] for layer li's
// output block.
func (n *Network) makePlanes() [][]float64 {
	planes := make([][]float64, len(n.layers)+1)
	planes[0] = make([]float64, blockRows*n.layers[0].in)
	for li := range n.layers {
		planes[li+1] = make([]float64, blockRows*n.layers[li].out)
	}
	return planes
}

// forEachProba runs X through one pooled set of activation buffers in
// four-row blocks and hands emit each row's P(attack|x) in row order;
// the scores are bit-identical to per-row Proba calls. The network
// must be trained.
func (n *Network) forEachProba(X [][]float64, emit func(i int, p float64)) {
	sc := n.scratch.Get().(*inferScratch)
	defer n.scratch.Put(sc)
	i := 0
	for ; i+blockRows <= len(X); i += blockRows {
		p0, p1, p2, p3 := n.forwardBlock4(X[i], X[i+1], X[i+2], X[i+3], sc.planes)
		emit(i, p0)
		emit(i+1, p1)
		emit(i+2, p2)
		emit(i+3, p3)
	}
	for ; i < len(X); i++ {
		n.forward(X[i], sc.acts)
		emit(i, sc.acts[len(sc.acts)-1][0])
	}
}

// PredictProbaBatch returns P(attack|x) for every row of X, through
// the batched forward pass.
func (n *Network) PredictProbaBatch(X [][]float64) []float64 {
	out := make([]float64, len(X))
	if n.ready {
		n.forEachProba(X, func(i int, p float64) { out[i] = p })
	}
	return out
}

// PredictBatchInto implements ml.BatchClassifier: the batched forward
// pass thresholded at 0.5 straight into dst, row-for-row identical to
// Predict.
func (n *Network) PredictBatchInto(dst []int, X [][]float64) []int {
	if cap(dst) < len(X) {
		dst = make([]int, len(X))
	}
	dst = dst[:len(X)]
	if !n.ready {
		clear(dst)
		return dst
	}
	n.forEachProba(X, func(i int, p float64) {
		dst[i] = 0
		if p > 0.5 {
			dst[i] = 1
		}
	})
	return dst
}
