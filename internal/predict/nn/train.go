package nn

import (
	"math"

	"heteromap/internal/predict"
)

// Adam's step size and moment constants.
const (
	learningRate = 2e-3
	adamBeta1    = 0.9
	adamBeta2    = 0.999
	adamEps      = 1e-8
)

// trainer is the workspace of one Train call. A mini-batch runs in four
// phases over it, on the caller's goroutine:
//
//  1. forward: every row through applyInto, keeping each layer's
//     activations;
//  2. backward: each row's deltas, from the output layer down;
//  3. gradients: each weight row summed over the batch's rows;
//  4. Adam: one step per parameter.
//
// Every sum keeps the operand order and addition order of training one
// sample at a time, so the trained bits equal the per-sample trainer's
// (TestTrainMatchesReference).
type trainer struct {
	n       *Network
	samples []predict.Sample
	batch   []int // indices into samples of the current mini-batch's rows

	// acts[0] holds the batch's input rows and acts[l+1] layer l's
	// activations; deltas[l] holds the loss gradient at layer l's
	// pre-activations. Each is row-major, one row per batch row, sized
	// for the largest batch.
	acts, deltas [][]float64
	live         liveList
}

// liveList is mulAdd's term buffers for backprop and gradRows: the
// src offsets and values of the non-zero deltas a sum adds.
type liveList struct {
	at []int
	g  []float64
}

// newTrainer sizes the workspace for mini-batches of n's BatchSize drawn
// from samples.
func newTrainer(n *Network, samples []predict.Sample) *trainer {
	rows := min(n.opts.BatchSize, len(samples))
	t := &trainer{
		n:       n,
		samples: samples,
		acts:    make([][]float64, len(n.layers)+1),
		deltas:  make([][]float64, len(n.layers)),
	}
	t.acts[0] = make([]float64, rows*n.layers[0].in)
	size := rows
	for i, l := range n.layers {
		t.acts[i+1] = make([]float64, rows*l.out)
		t.deltas[i] = make([]float64, rows*l.out)
		size = max(size, l.out)
	}
	t.live = liveList{
		at: make([]int, size),
		g:  make([]float64, size),
	}
	return t
}

// gradients runs phases 1–3 for the mini-batch of samples[batch[r]],
// leaving each layer's gw and gb holding the batch's summed gradients of
// half the squared error. It does not step the weights.
func (t *trainer) gradients(batch []int) {
	t.batch = batch
	for r := range batch {
		t.forward(r)
		t.backward(r)
	}
	for i, l := range t.n.layers {
		l.gradRows(t.acts[i], t.deltas[i], len(batch), &t.live)
	}
}

// adamStep runs phase 4: one Adam step per parameter on the gradients
// averaged over the current mini-batch.
func (t *trainer) adamStep() {
	lr, batch := learningRate, float64(len(t.batch))
	for _, l := range t.n.layers {
		l.t++
		c1 := 1 - math.Pow(adamBeta1, l.t)
		c2 := 1 - math.Pow(adamBeta2, l.t)
		adam(l.w, l.gw, l.mw, l.vw, lr, batch, c1, c2)
		adam(l.b, l.gb, l.mb, l.vb, lr, batch, c1, c2)
		l.transpose()
	}
}

// forward is phase 1 for batch row r: the row's input and every layer's
// activations, through the inference kernel.
func (t *trainer) forward(r int) {
	in := t.n.layers[0].in
	x := t.acts[0][r*in : (r+1)*in]
	copy(x, t.samples[t.batch[r]].Features[:])
	last := len(t.n.layers) - 1
	for i, l := range t.n.layers {
		out := t.acts[i+1][r*l.out : (r+1)*l.out]
		l.applyInto(x, out, i < last)
		x = out
	}
}

// backward is phase 2 for batch row r. The output delta of half the
// squared error through the sigmoid is (o-y)·o·(1-o); each hidden
// layer's delta is the next layer's propagated back through ReLU'.
func (t *trainer) backward(r int) {
	last := len(t.n.layers) - 1
	width := t.n.layers[last].out
	out := t.acts[last+1][r*width : (r+1)*width]
	delta := t.deltas[last][r*width : (r+1)*width]
	target := &t.samples[t.batch[r]].Target
	for j, o := range out {
		delta[j] = (o - target[j]) * o * (1 - o)
	}
	for i := last; i > 0; i-- {
		l := t.n.layers[i]
		prev := t.deltas[i-1][r*l.in : (r+1)*l.in]
		l.backprop(delta, t.acts[i][r*l.in:(r+1)*l.in], prev, &t.live)
		delta = prev
	}
}

// backprop writes the delta at the previous layer's pre-activations for
// one row, given this layer's delta and the previous layer's ReLU
// activations act: prev[i] = Σ_o delta[o]·w[o][i] where act[i] > 0, and
// +0 where the unit is dead. An activation is positive exactly when its
// pre-activation is (NaN included), so this is the ReLU' mask. A sum
// starts from +0 and adds the outputs with a non-zero delta (a zero
// delta is skipped, never multiplied) in ascending o, with the inputs
// along mulAdd's lanes; a dead unit's sum is computed and then masked.
func (d *dense) backprop(delta, act, prev []float64, live *liveList) {
	// Every delta is written and kept only when non-zero, so the scan
	// has no branch to mispredict on the dead units' zeros.
	at, gs, n := live.at[:len(delta)], live.g[:len(delta)], 0
	for o, g := range delta {
		at[n], gs[n] = o*d.in, g
		if g != 0 {
			n++
		}
	}
	mulAdd(prev, nil, d.w, at[:n], gs[:n])
	maskDead(prev, act)
}

// gradRows is phase 3 for one layer: gw[o][i] = Σ_r delta[r][o]·x[r][i]
// and gb[o] = Σ_r delta[r][o] over the batch's rows with a non-zero
// delta, in row order, each starting from +0 — the order of adding one
// sample's gradient at a time. The inputs lie along mulAdd's lanes, so
// each gw element is stored once per batch.
func (d *dense) gradRows(x, delta []float64, rows int, live *liveList) {
	for o := 0; o < d.out; o++ {
		at, gs, n := live.at[:rows], live.g[:rows], 0
		for r := range at { // branch-free, as in backprop
			g := delta[r*d.out+o]
			at[n], gs[n] = r*d.in, g
			if g != 0 {
				n++
			}
		}
		at, gs = at[:n], gs[:n]
		var gb float64
		for _, g := range gs {
			gb += g
		}
		d.gb[o] = gb
		mulAdd(d.gw[o*d.in:][:d.in], nil, x, at, gs)
	}
}
