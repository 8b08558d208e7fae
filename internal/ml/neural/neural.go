// Package neural implements the paper's neural-network models from
// scratch: a fully connected multilayer perceptron with ReLU hidden
// layers, a sigmoid output, binary cross-entropy loss, and mini-batch
// SGD with momentum. The paper's two configurations are provided:
// the shallow 32-16-8 network of §IV-B3 and the scikit-learn-style
// MLP 64-32-16 of §IV-C3.
package neural

import (
	"errors"
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
	// BatchSize is the mini-batch size (default 64).
	BatchSize int
	// LearningRate is the SGD step (default 0.01).
	LearningRate float64
	// Momentum is the classical momentum coefficient (default 0.9).
	Momentum float64
	// Seed makes initialization and shuffling deterministic.
	Seed int64
	// DisplayName overrides Name(), so the same implementation can
	// report as "NN" (stage 1) or "MLP" (stage 2).
	DisplayName string
}

// ShallowNN returns the paper's stage-1 network: three hidden layers
// of 32, 16, and 8 neurons.
func ShallowNN(seed int64) Config {
	return Config{Hidden: []int{32, 16, 8}, Seed: seed, DisplayName: "NN"}
}

// MLP returns the paper's stage-2 network: 64, 32, 16.
func MLP(seed int64) Config {
	return Config{Hidden: []int{64, 32, 16}, Seed: seed, DisplayName: "MLP"}
}

// layer is one dense layer with its momentum buffers.
type layer struct {
	in, out int
	w       []float64 // out×in, row-major
	b       []float64
	vw      []float64
	vb      []float64
}

// Network is a trained MLP classifier.
type Network struct {
	cfg    Config
	layers []layer
	ready  bool

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
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 64
	}
	if cfg.LearningRate <= 0 {
		cfg.LearningRate = 0.01
	}
	if cfg.Momentum < 0 || cfg.Momentum >= 1 {
		cfg.Momentum = 0.9
	}
	if cfg.DisplayName == "" {
		cfg.DisplayName = "NN"
	}
	return &Network{cfg: cfg}
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
		l.vw = make([]float64, in*out)
		l.vb = make([]float64, out)
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

// Fit trains with mini-batch SGD + momentum on binary cross-entropy.
func (n *Network) Fit(X [][]float64, y []int) error {
	if len(X) == 0 {
		return errors.New("neural: empty training set")
	}
	if len(X) != len(y) {
		return errors.New("neural: rows and labels differ")
	}
	rng := rand.New(rand.NewSource(n.cfg.Seed))
	n.init(len(X[0]), rng)

	acts := n.makeActs()
	// deltas[i] is dLoss/dPreactivation for layer i.
	deltas := make([][]float64, len(n.layers))
	gw := make([][]float64, len(n.layers))
	gb := make([][]float64, len(n.layers))
	for li := range n.layers {
		deltas[li] = make([]float64, n.layers[li].out)
		gw[li] = make([]float64, len(n.layers[li].w))
		gb[li] = make([]float64, len(n.layers[li].b))
	}

	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	for epoch := 0; epoch < n.cfg.Epochs; epoch++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for start := 0; start < len(idx); start += n.cfg.BatchSize {
			end := start + n.cfg.BatchSize
			if end > len(idx) {
				end = len(idx)
			}
			batch := idx[start:end]
			for li := range gw {
				clear(gw[li])
				clear(gb[li])
			}
			for _, r := range batch {
				n.forward(X[r], acts)
				n.backward(X[r], float64(y[r]), acts, deltas, gw, gb)
			}
			n.step(len(batch), gw, gb)
		}
	}
	n.ready = true
	return nil
}

// backward accumulates gradients for one row into gw/gb.
func (n *Network) backward(x []float64, target float64, acts, deltas, gw, gb [][]float64) {
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

// step applies one momentum SGD update from accumulated gradients.
func (n *Network) step(batch int, gw, gb [][]float64) {
	lr := n.cfg.LearningRate / float64(batch)
	for li := range n.layers {
		l := &n.layers[li]
		for i := range l.w {
			l.vw[i] = n.cfg.Momentum*l.vw[i] - lr*gw[li][i]
			l.w[i] += l.vw[i]
		}
		for i := range l.b {
			l.vb[i] = n.cfg.Momentum*l.vb[i] - lr*gb[li][i]
			l.b[i] += l.vb[i]
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
