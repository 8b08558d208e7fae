// Package neural implements the paper's neural-network models from
// scratch: a fully connected multilayer perceptron with ReLU hidden
// layers, a sigmoid output, binary cross-entropy loss, and mini-batch
// SGD. The paper's two configurations are provided: the shallow
// 32-16-8 network of §IV-B3 and the scikit-learn-style MLP 64-32-16 of
// §IV-C3.
//
// Every pass through the network runs four rows at a time through one
// kernel, layerBlock4: scoring forward, and Fit forward and then
// backward over the transposed weights. A second kernel, gradStep,
// sums a layer's gradients over a whole mini-batch and takes the SGD
// step. On amd64 with AVX2 both run in assembly, chosen once at
// start-up; elsewhere the portable Go kernels run. No kernel fuses a
// multiply-add or reorders a floating-point sum, so the fitted weights
// are bit-identical to per-row SGD, and every score to a one-row pass,
// on either kernel set.
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

// inferScratch is one call's packed activation planes for
// forwardBlock4.
type inferScratch struct {
	planes [][]float64
}

// newScratchPool returns a pool of buffers sized to the current layers.
func (n *Network) newScratchPool() *sync.Pool {
	return &sync.Pool{New: func() any {
		return &inferScratch{planes: n.makePlanes()}
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

// Fit trains with mini-batch SGD on binary cross-entropy. Each
// mini-batch runs in two phases. First its rows go through the network
// in four-row blocks (trainBlock): forward through layerBlock4, then
// deltas back through it over the transposed weights, leaving every
// layer's inputs and deltas for the whole batch in the trainer. Then
// one gradStep call per layer sums each weight's gradient over the
// batch's rows, in row order from +0, and takes the step. A batch's
// last len(batch)%4 rows fill their block's spare lanes with copies of
// a real row, and gradStep never reads those lanes. No floating-point
// sum is reordered, so the fitted weights are bit-identical to per-row
// SGD.
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
			for k := 0; k < len(batch); k += blockRows {
				n.trainBlock(t, X, y, batch, k)
			}
			lr := n.lr / float64(len(batch))
			for li := range n.layers {
				l := &n.layers[li]
				gradStep(l.w, l.b, t.inputs[li], t.deltas[li], l.in, len(batch), lr)
			}
			t.transpose(n.layers)
		}
	}
	n.ready = true
	return nil
}

// trainer is one Fit's buffers, sized to the layer stack once.
type trainer struct {
	// planes are one block's packed activations, as forwardBlock4
	// fills them.
	planes [][]float64
	// inputs[li] holds layer li's inputs for a mini-batch, row-major,
	// and deltas[li] its dLoss/dPreactivation in packed four-row
	// blocks: the two operands gradStep reads.
	inputs, deltas [][]float64
	// wt[li] is layer li's weights transposed (in×out, row-major), so
	// layerBlock4 propagates deltas back through it; wt[0] is unused.
	wt [][]float64
	// zero is the zero bias of the backward layerBlock4 calls.
	zero []float64
}

// newTrainer sizes a trainer to n's layers, with wt transposed from
// the initial weights.
func (n *Network) newTrainer() *trainer {
	t := &trainer{
		planes: n.makePlanes(),
		inputs: make([][]float64, len(n.layers)),
		deltas: make([][]float64, len(n.layers)),
		wt:     make([][]float64, len(n.layers)),
	}
	width := 0
	for li, l := range n.layers {
		t.inputs[li] = make([]float64, batchSize*l.in)
		t.deltas[li] = make([]float64, batchSize*l.out)
		if li > 0 {
			t.wt[li] = make([]float64, len(l.w))
		}
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

// trainBlock runs the block of a mini-batch's rows k..k+3 forward and
// back: their inputs to every layer go to t.inputs and their deltas to
// t.deltas. Each delta is Σ_o w[o][i]·δ[o] summed from +0 in o order,
// masked by ReLU′, as per-row backpropagation computes it.
func (n *Network) trainBlock(t *trainer, X [][]float64, y []int, batch []int, k int) {
	var xs [blockRows][]float64
	var ys [blockRows]float64
	for j, r := range blockOf(k, len(batch)) {
		xs[j], ys[j] = X[batch[r]], float64(y[batch[r]])
	}
	p := n.forwardBlock4(xs, t.planes)
	last := len(n.layers) - 1
	// Sigmoid + BCE: delta = prediction - target. The output layer
	// has one neuron, so its block sits at offset k.
	d := (*[blockRows]float64)(t.deltas[last][k:])
	for j := range d {
		d[j] = p[j] - ys[j]
	}
	for li := last; li > 0; li-- {
		l := &n.layers[li]
		prev := t.deltas[li-1][k*l.in:][:blockRows*l.in]
		layerBlock4(t.wt[li], t.zero[:l.in], t.deltas[li][k*l.out:][:blockRows*l.out], prev, l.out)
		for j, a := range t.planes[li] {
			prev[j] = math.Float64frombits(math.Float64bits(prev[j]) & positive(a)) // ReLU′
		}
	}
	for li := range n.layers {
		in := n.layers[li].in
		unpack(t.inputs[li][k*in:], t.planes[li], in)
	}
}

// Proba returns P(attack|x).
func (n *Network) Proba(x []float64) float64 {
	if !n.ready {
		return 0
	}
	sc := n.scratch.Get().(*inferScratch)
	defer n.scratch.Put(sc)
	return n.forwardBlock4([blockRows][]float64{x, x, x, x}, sc.planes)[0]
}

// Predict implements ml.Classifier with a 0.5 threshold.
func (n *Network) Predict(x []float64) int {
	if n.Proba(x) > 0.5 {
		return 1
	}
	return 0
}

// blockRows is the row-block width of every pass through the network:
// each weight row is streamed once per block instead of once per
// sample, and the block's dot products accumulate in independent
// chains, so the FP-add latency that serializes a single sample cannot
// bind. Activations for a block live in packed column-major planes
// (element j*blockRows+r is row r's value for neuron j), which lets
// layerBlock4 put the four rows in the four lanes of an AVX2 register.
// A partial block (a single Proba, a scoring call's last rows, a
// mini-batch's last rows) repeats a real row in its spare lanes and
// discards their results; lanes never mix, so every row's score is
// the same bits whichever block carries it.
const blockRows = 4

// blockOf returns the indices of the block of rows i..i+3 out of n
// rows: a lane past row n-1 repeats row n-1.
func blockOf(i, n int) [blockRows]int {
	var b [blockRows]int
	for j := range b {
		b[j] = min(i+j, n-1)
	}
	return b
}

// forwardBlock4 runs one block of four rows through the network.
// planes[0] receives the packed input block; planes[li+1] holds layer
// li's packed activations. It returns the four sigmoid outputs.
func (n *Network) forwardBlock4(x [blockRows][]float64, planes [][]float64) (p [blockRows]float64) {
	xt := planes[0]
	x0, x1, x2, x3 := x[0], x[1][:len(x[0])], x[2][:len(x[0])], x[3][:len(x[0])]
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
			for r := range p {
				p[r] = 1 / (1 + math.Exp(-yt[r]))
			}
			return p
		}
		for i, v := range yt {
			yt[i] = relu(v)
		}
		xt = yt
	}
	return p
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

// forEachProba runs X through one pooled set of activation planes in
// four-row blocks and hands emit each row's P(attack|x) in row order;
// the scores are bit-identical to per-row Proba calls. The network
// must be trained.
func (n *Network) forEachProba(X [][]float64, emit func(i int, p float64)) {
	sc := n.scratch.Get().(*inferScratch)
	defer n.scratch.Put(sc)
	for i := 0; i < len(X); i += blockRows {
		var xs [blockRows][]float64
		for j, r := range blockOf(i, len(X)) {
			xs[j] = X[r]
		}
		p := n.forwardBlock4(xs, sc.planes)
		for j := range min(blockRows, len(X)-i) {
			emit(i+j, p[j])
		}
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
