// Package nn implements the paper's Section V-B deep learning predictor
// from scratch: a feed-forward network with 17 input neurons (B1-B13,
// I1-I4), two hidden layers (four layers total, following Fig 10 and the
// four-layer result of Tamura & Tateishi the paper cites), and one output
// neuron per M choice. Hidden width is configurable — Table IV sweeps
// Deep.16 / Deep.32 / Deep.64 / Deep.128 — and training uses Adam over
// mini-batched MSE.
package nn

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"heteromap/internal/config"
	"heteromap/internal/feature"
	"heteromap/internal/predict"
)

// Options configure a Network.
type Options struct {
	// Hidden is the neuron count of each of the two hidden layers
	// (paper: 16/32/64/128; 128 is the selected model).
	Hidden int
	// Epochs is the number of training passes (default 60).
	Epochs int
	// BatchSize is the mini-batch size (default 32).
	BatchSize int
	// Seed fixes weight initialization and shuffling.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.Hidden <= 0 {
		o.Hidden = 128
	}
	if o.Epochs <= 0 {
		// Wider networks need more passes to converge.
		o.Epochs = 60
		if o.Hidden >= 128 {
			o.Epochs = 90
		}
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 32
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Network is a trained (or trainable) deep predictor.
type Network struct {
	opts   Options
	name   string
	limits config.Limits
	grid   config.Grid // limits' snap levels, for every decode
	layers []*dense
	ready  bool
}

var (
	_ predict.Trainable      = (*Network)(nil)
	_ predict.BatchPredictor = (*Network)(nil)
)

// New builds an untrained network for the given deployment limits.
func New(limits config.Limits, opts Options) *Network {
	opts = opts.withDefaults()
	rng := rand.New(rand.NewSource(opts.Seed))
	in, h, out := feature.NumFeatures, opts.Hidden, config.NumVariables
	return &Network{
		opts:   opts,
		name:   fmt.Sprintf("Deep.%d", opts.Hidden),
		limits: limits,
		grid:   config.NewGrid(limits),
		layers: []*dense{
			newDense(in, h, rng),
			newDense(h, h, rng),
			newDense(h, out, rng),
		},
	}
}

// Name implements predict.Predictor, matching the paper's Table IV labels.
// The serve path asks for it once per answered row, so New builds it once.
func (n *Network) Name() string { return n.name }

// Hidden returns the hidden-layer width.
func (n *Network) Hidden() int { return n.opts.Hidden }

// Predict implements predict.Predictor. The decoded configuration is
// snapped to the training grid (the network was trained on grid-optimal
// targets). Calling Predict before Train returns the decoded zero vector
// (predictors are validated as Trainable first).
func (n *Network) Predict(f feature.Vector) config.M {
	var v [config.NumVariables]float64
	n.forwardInto(f[:], v[:])
	return n.grid.Snap(config.FromNormalized(v, n.limits))
}

// PredictChecked implements predict.Checked: unlike Predict, it inspects
// the raw network output before decoding, so diverged or NaN-poisoned
// weights surface as an error instead of being laundered through the
// decode clamp into a syntactically valid but meaningless M.
func (n *Network) PredictChecked(f feature.Vector) (config.M, error) {
	if !n.ready {
		return config.M{}, errors.New("nn: predict before Train")
	}
	var v [config.NumVariables]float64
	n.forwardInto(f[:], v[:])
	for i, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return config.M{}, fmt.Errorf("nn: non-finite output %v at M%d", x, i+1)
		}
	}
	return n.grid.Snap(config.FromNormalized(v, n.limits)), nil
}

// PredictBatchChecked implements predict.BatchPredictor: rows go
// through the network two at a time, each weight load serving both
// (applyInto2), and an odd last row alone. Per row it performs exactly
// the operations PredictChecked performs — same layer order, same
// inner-loop accumulation order — so every dst[i] is bit-identical to
// PredictChecked(feats[i]); the conformance fastpath suite and
// TestPredictBatchMatchesSingle hold it to that. Any row with a
// non-finite raw output fails the whole batch (the caller re-derives per
// item through the fallback chain, which is where partial-failure policy
// lives).
func (n *Network) PredictBatchChecked(feats []feature.Vector, dst []config.M) error {
	if !n.ready {
		return errors.New("nn: predict before Train")
	}
	rows := len(feats)
	if len(dst) < rows {
		return fmt.Errorf("nn: dst holds %d rows, batch has %d", len(dst), rows)
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	for r := 0; r < rows; r += 2 {
		var v [2][config.NumVariables]float64
		if r+1 < rows {
			n.forwardRows(sc, feats[r][:], feats[r+1][:], v[0][:], v[1][:])
		} else {
			n.forwardRows(sc, feats[r][:], nil, v[0][:], nil)
		}
		for k := 0; k < 2 && r+k < rows; k++ {
			for j, x := range v[k] {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					return fmt.Errorf("nn: non-finite output %v at row %d M%d", x, r+k, j+1)
				}
			}
			dst[r+k] = n.grid.Snap(config.FromNormalized(v[k], n.limits))
		}
	}
	return nil
}

// M1Margin reports how far the raw inter-accelerator output (M1) sits
// from the 0.5 decision boundary, in [0, 0.5] for a converged network —
// the serving layer records it as the network's decision confidence in
// provenance. Untrained or non-finite networks report 0.
func (n *Network) M1Margin(f feature.Vector) float64 {
	if !n.ready {
		return 0
	}
	var v [config.NumVariables]float64
	n.forwardInto(f[:], v[:])
	m := math.Abs(v[0] - 0.5)
	if math.IsNaN(m) || math.IsInf(m, 0) {
		return 0
	}
	return m
}

// Train implements predict.Trainable with mini-batch Adam on MSE. Each
// mini-batch runs in phases over a workspace allocated once per call
// (see trainer), so the allocations do not grow with epochs or samples,
// and every weight, bias and Adam moment is bit-identical to training
// one sample at a time. The phases' chunks run on up to trainWorkers
// goroutines, the caller's among them; Train returns after its helpers
// have exited, and the trained bits do not depend on how many there
// were.
func (n *Network) Train(samples []predict.Sample) error {
	if len(samples) == 0 {
		return errors.New("nn: no training samples")
	}
	n.train(samples, trainWorkers())
	return nil
}

// train is Train on at most workers goroutines.
func (n *Network) train(samples []predict.Sample, workers int) {
	t := newTrainer(n, samples, workers)
	t.crew.start(len(t.lives) - 1)
	defer t.crew.stop()
	rng := rand.New(rand.NewSource(n.opts.Seed + 7))
	idx := make([]int, len(samples))
	for i := range idx {
		idx[i] = i
	}
	for epoch := 0; epoch < n.opts.Epochs; epoch++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for start := 0; start < len(idx); start += n.opts.BatchSize {
			t.step(idx[start:min(start+n.opts.BatchSize, len(idx))])
		}
	}
	n.ready = true
}

// Loss returns the mean squared error over a sample set; training
// diagnostics and tests use it.
func (n *Network) Loss(samples []predict.Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum float64
	for i := range samples {
		var out [config.NumVariables]float64
		n.forwardInto(samples[i].Features[:], out[:])
		for j, y := range samples[i].Target {
			d := out[j] - y
			sum += d * d
		}
	}
	return sum / float64(len(samples)*config.NumVariables)
}

// ParamCount returns the number of trainable parameters (weights+biases);
// overhead comparisons use it.
func (n *Network) ParamCount() int {
	total := 0
	for _, l := range n.layers {
		total += len(l.w) + len(l.b)
	}
	return total
}

// scratch holds pooled activation rows for the inference passes; a and b
// ping-pong between consecutive layers. Pooling keeps steady-state
// inference off the heap — the historical per-call implementation paid
// two slice allocations per layer.
type scratch struct{ a, b []float64 }

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func (s *scratch) grow(n int) {
	if cap(s.a) < n {
		s.a = make([]float64, n)
	}
	s.a = s.a[:cap(s.a)]
	if cap(s.b) < n {
		s.b = make([]float64, n)
	}
	s.b = s.b[:cap(s.b)]
}

// maxWidth is the widest activation row any layer produces (floored at
// the input width) — the per-row stride of the pooled scratch matrices.
func (n *Network) maxWidth() int {
	w := feature.NumFeatures
	for _, l := range n.layers {
		if l.out > w {
			w = l.out
		}
	}
	return w
}

// forwardInto is the inference pass, writing the output layer's
// activations into out (len >= the output width). It is pure with
// respect to layer state — only pooled scratch is written — so a trained
// Network may serve concurrent Predict/PredictChecked/M1Margin calls
// (the serving layer answers misses, and derives explain detail, on many
// request goroutines at once). Training is the only mutating phase; a
// Network must not be trained while serving. Training runs the same
// kernels (applyInto and applyInto2), so every activation it learns from
// is the one inference computes: pooling, pairing and packed lanes must
// never change a prediction bit.
func (n *Network) forwardInto(in []float64, out []float64) {
	sc := scratchPool.Get().(*scratch)
	n.forwardRows(sc, in, nil, out, nil)
	scratchPool.Put(sc)
}

// forwardRows is the inference pass over sc's activation rows for the
// row in0, or for the rows in0 and in1 through applyInto2 when in1 is
// not nil, writing the output layer's activations into out0 and out1.
func (n *Network) forwardRows(sc *scratch, in0, in1, out0, out1 []float64) {
	w := n.maxWidth()
	sc.grow(2 * w)
	cur, alt := sc.a, sc.b
	last := len(n.layers) - 1
	for i, l := range n.layers {
		dst0, dst1 := cur[:l.out], cur[w:w+l.out]
		if i == last {
			dst0, dst1 = out0, out1
		}
		if in1 == nil {
			l.applyInto(in0, dst0, i < last)
		} else {
			l.applyInto2(in0, in1, dst0, dst1, i < last)
			in1 = dst1
		}
		in0 = dst0
		cur, alt = alt, cur
	}
}

// dense is one fully connected layer with Adam state.
type dense struct {
	in, out int
	w, b    []float64 // weights row-major [out][in], biases [out]
	gw, gb  []float64 // gradients summed over the current mini-batch
	mw, vw  []float64 // Adam moments for weights
	mb, vb  []float64 // Adam moments for biases
	t       float64   // Adam timestep

	// wt is w transposed, [in][out], the forward pass's operand: its
	// row i holds input i's weight to every output, so the outputs' sums
	// lie along lanes. It is derived from w and must be refreshed by
	// transpose after any write to w. wtOff[i] = i·out is the start of
	// row i.
	wt    []float64
	wtOff []int
}

func newDense(in, out int, rng *rand.Rand) *dense {
	d := &dense{
		in: in, out: out,
		w:     make([]float64, in*out),
		b:     make([]float64, out),
		gw:    make([]float64, in*out),
		gb:    make([]float64, out),
		mw:    make([]float64, in*out),
		vw:    make([]float64, in*out),
		mb:    make([]float64, out),
		vb:    make([]float64, out),
		wt:    make([]float64, in*out),
		wtOff: make([]int, in),
	}
	// He initialization for the ReLU layers; it also behaves well for
	// the sigmoid output at these widths.
	scale := math.Sqrt(2 / float64(in))
	for i := range d.w {
		d.w[i] = rng.NormFloat64() * scale
	}
	for i := range d.wtOff {
		d.wtOff[i] = i * out
	}
	d.transpose(0, out)
	return d
}

// transpose refreshes wt's columns [lo, hi) from rows [lo, hi) of w,
// four rows of w at a time, so each store fills four adjacent elements
// of a wt row.
func (d *dense) transpose(lo, hi int) {
	o := lo
	for ; o+4 <= hi; o += 4 {
		w0 := d.w[o*d.in:][:d.in]
		w1 := d.w[(o+1)*d.in:][:d.in]
		w2 := d.w[(o+2)*d.in:][:d.in]
		w3 := d.w[(o+3)*d.in:][:d.in]
		for i := range w0 {
			t := d.wt[i*d.out+o:][:4]
			t[0], t[1], t[2], t[3] = w0[i], w1[i], w2[i], w3[i]
		}
	}
	for ; o < hi; o++ {
		for i, x := range d.w[o*d.in:][:d.in] {
			d.wt[i*d.out+o] = x
		}
	}
}

// applyInto is the network's one dense forward kernel, for inference and
// training alike: it writes the layer's post-activations for one input
// row into caller-owned storage. Each output's sum starts from its bias
// and adds its inputs' products in ascending input order, with the
// outputs along mulAdd's lanes; out may hold stale values from a
// previous batch and is fully overwritten.
func (d *dense) applyInto(in, out []float64, relu bool) {
	out = out[:d.out]
	mulAdd(out, d.b, d.wt, d.wtOff, in[:d.in])
	d.activate(out, relu)
}

// applyInto2 is applyInto for two rows at once, through mulAdd2: each
// run of wt is loaded once for both rows' sums, and each sum is the one
// applyInto computes.
func (d *dense) applyInto2(in0, in1, out0, out1 []float64, relu bool) {
	out0, out1 = out0[:d.out], out1[:d.out]
	mulAdd2(out0, out1, d.b, d.wt, d.wtOff, in0[:d.in], in1[:d.in])
	d.activate(out0, relu)
	d.activate(out1, relu)
}

// activate applies ReLU, or the output layer's sigmoid, to sums in place.
func (d *dense) activate(out []float64, relu bool) {
	if relu {
		applyReLU(out)
		return
	}
	for o, s := range out {
		out[o] = sigmoid(s)
	}
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }
