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

// outBlock is the width of a training chunk's block of output units.
const outBlock = 16

// trainer is the workspace of one Train call. A mini-batch runs in two
// phases over it, each a list of chunks that the calling goroutine and
// its helpers claim one at a time (crew):
//
//  1. rows: chunk i takes batch rows 2i and 2i+1 forward through every
//     layer, two rows per weight load (applyInto2), keeping each layer's
//     activations, and then computes each row's deltas from the output
//     layer down. An odd last row goes alone;
//  2. outputs: a chunk is a block of up to outBlock output units of one
//     layer. It sums their weight rows over the batch (gradRows), takes
//     one Adam step on their weights and biases, and refreshes their
//     columns of wt.
//
// Each sum is computed whole by one goroutine and keeps the operand
// order and addition order of training one sample at a time, so the
// trained bits equal the per-sample trainer's at any worker count
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
	// lives holds each worker's term buffers.
	lives []liveList
	// blocks lists phase 2's chunks, the last layer's first: its chunks
	// are the largest, and the small first-layer chunks even out the
	// workers' finishing times.
	blocks []block
	// c1 and c2 are each layer's Adam bias corrections for the current
	// step, set before phase 2.
	c1, c2 []float64

	crew crew
	// rowsFn and outputsFn are the phases' chunk functions, bound once
	// so that a step allocates no method value.
	rowsFn, outputsFn func(chunk, worker int)
}

// block is output units [lo, hi) of layer layer.
type block struct{ layer, lo, hi int }

// liveList is mulAdd's term buffers for backprop and gradRows: the
// src offsets and values of the non-zero deltas a sum adds.
type liveList struct {
	at []int
	g  []float64
}

// newTrainer sizes the workspace for mini-batches of n's BatchSize drawn
// from samples, run on up to workers goroutines: no more than the most
// chunks a phase has.
func newTrainer(n *Network, samples []predict.Sample, workers int) *trainer {
	rows := min(n.opts.BatchSize, len(samples))
	t := &trainer{
		n:       n,
		samples: samples,
		acts:    make([][]float64, len(n.layers)+1),
		deltas:  make([][]float64, len(n.layers)),
		c1:      make([]float64, len(n.layers)),
		c2:      make([]float64, len(n.layers)),
	}
	t.acts[0] = make([]float64, rows*n.layers[0].in)
	size := rows
	for i, l := range n.layers {
		t.acts[i+1] = make([]float64, rows*l.out)
		t.deltas[i] = make([]float64, rows*l.out)
		size = max(size, l.out)
	}
	for i := len(n.layers) - 1; i >= 0; i-- {
		for lo := 0; lo < n.layers[i].out; lo += outBlock {
			t.blocks = append(t.blocks, block{i, lo, min(lo+outBlock, n.layers[i].out)})
		}
	}
	t.lives = make([]liveList, max(1, min(workers, max((rows+1)/2, len(t.blocks)))))
	for i := range t.lives {
		t.lives[i] = liveList{at: make([]int, size), g: make([]float64, size)}
	}
	t.rowsFn, t.outputsFn = t.rows, t.outputs
	return t
}

// step trains on one mini-batch of samples[batch[r]]: phase 1, the
// layers' Adam step counts and corrections, then phase 2.
func (t *trainer) step(batch []int) {
	t.batch = batch
	t.crew.run((len(batch)+1)/2, t.rowsFn)
	for i, l := range t.n.layers {
		l.t++
		t.c1[i] = 1 - math.Pow(adamBeta1, l.t)
		t.c2[i] = 1 - math.Pow(adamBeta2, l.t)
	}
	t.crew.run(len(t.blocks), t.outputsFn)
}

// rows is phase 1's chunk c: batch rows 2c and 2c+1, forward and
// backward.
func (t *trainer) rows(c, worker int) {
	r := 2 * c
	pair := r+1 < len(t.batch)
	t.forward(r, pair)
	t.backward(r, &t.lives[worker])
	if pair {
		t.backward(r+1, &t.lives[worker])
	}
}

// outputs is phase 2's chunk c: one block's gradients, Adam step and wt
// columns.
func (t *trainer) outputs(c, worker int) {
	b := t.blocks[c]
	l := t.n.layers[b.layer]
	l.gradRows(t.acts[b.layer], t.deltas[b.layer], len(t.batch), b.lo, b.hi, &t.lives[worker])
	lr, batch := learningRate, float64(len(t.batch))
	c1, c2 := t.c1[b.layer], t.c2[b.layer]
	lo, hi := b.lo*l.in, b.hi*l.in
	adam(l.w[lo:hi], l.gw[lo:hi], l.mw[lo:hi], l.vw[lo:hi], lr, batch, c1, c2)
	adam(l.b[b.lo:b.hi], l.gb[b.lo:b.hi], l.mb[b.lo:b.hi], l.vb[b.lo:b.hi], lr, batch, c1, c2)
	l.transpose(b.lo, b.hi)
}

// forward takes batch row r, and row r+1 with it when pair is set, from
// its sample's features through every layer, keeping each layer's
// activations. A pair goes through applyInto2, a lone row through
// applyInto: the kernels inference runs.
func (t *trainer) forward(r int, pair bool) {
	in := t.n.layers[0].in
	x0 := t.acts[0][r*in : (r+1)*in]
	copy(x0, t.samples[t.batch[r]].Features[:])
	var x1 []float64
	if pair {
		x1 = t.acts[0][(r+1)*in : (r+2)*in]
		copy(x1, t.samples[t.batch[r+1]].Features[:])
	}
	last := len(t.n.layers) - 1
	for i, l := range t.n.layers {
		out0 := t.acts[i+1][r*l.out : (r+1)*l.out]
		if pair {
			out1 := t.acts[i+1][(r+1)*l.out : (r+2)*l.out]
			l.applyInto2(x0, x1, out0, out1, i < last)
			x1 = out1
		} else {
			l.applyInto(x0, out0, i < last)
		}
		x0 = out0
	}
}

// backward writes batch row r's deltas. The output delta of half the
// squared error through the sigmoid is (o-y)·o·(1-o); each hidden
// layer's delta is the next layer's propagated back through ReLU'.
func (t *trainer) backward(r int, live *liveList) {
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
		l.backprop(delta, t.acts[i][r*l.in:(r+1)*l.in], prev, live)
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

// gradRows sums output units [lo, hi)'s gradients over the batch:
// gw[o][i] = Σ_r delta[r][o]·x[r][i] and gb[o] = Σ_r delta[r][o] over
// the rows with a non-zero delta, in row order, each starting from +0 —
// the order of adding one sample's gradient at a time. The inputs lie
// along mulAdd's lanes, so each gw element is stored once per batch.
func (d *dense) gradRows(x, delta []float64, rows, lo, hi int, live *liveList) {
	for o := lo; o < hi; o++ {
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
