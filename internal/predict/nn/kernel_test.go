package nn

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"heteromap/internal/config"
	"heteromap/internal/feature"
	"heteromap/internal/machine"
	"heteromap/internal/predict"
	"heteromap/internal/train"
)

// refApply is the one-output-at-a-time dense kernel applyInto replaced,
// kept here only as the reference: one accumulation chain per output,
// bias first, then the inputs in ascending order. It returns the
// post-activations and the pre-activations.
func refApply(d *dense, in []float64, relu bool) (out, pre []float64) {
	out = make([]float64, d.out)
	pre = make([]float64, d.out)
	for o := 0; o < d.out; o++ {
		sum := d.b[o]
		row := d.w[o*d.in : (o+1)*d.in]
		for i, x := range in {
			sum += row[i] * x
		}
		pre[o] = sum
		if relu {
			if sum > 0 {
				out[o] = sum
			}
		} else {
			out[o] = sigmoid(sum)
		}
	}
	return out, pre
}

// refApplyInto is refApply writing into out, applyInto's signature.
func refApplyInto(d *dense, in, out []float64, relu bool) {
	act, _ := refApply(d, in, relu)
	copy(out, act)
}

// refForward runs the network's inference pass through refApplyInto.
func refForward(n *Network, in []float64) []float64 {
	last := len(n.layers) - 1
	for i, l := range n.layers {
		out := make([]float64, l.out)
		refApplyInto(l, in, out, i < last)
		in = out
	}
	return in
}

// randomNet builds a network whose every weight and bias is drawn at
// random, so no trained structure (zeroed biases, small weights) can
// hide an accumulation-order difference.
func randomNet(hidden int, rng *rand.Rand) *Network {
	n := New(checkedLimits(), Options{Hidden: hidden, Seed: rng.Int63() + 1})
	for _, l := range n.layers {
		for i := range l.w {
			l.w[i] = rng.NormFloat64()
		}
		for i := range l.b {
			l.b[i] = rng.NormFloat64()
		}
		l.transpose(0, l.out)
	}
	n.ready = true
	return n
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// The blocked kernel must be the one-output kernel bit for bit: every
// layer on its own, forwardInto over the whole network, and every row
// of PredictBatchChecked. The widths cover the Table IV sweep and two
// that are not multiples of four, so the tail loop runs.
func TestDenseKernelMatchesReference(t *testing.T) {
	forEachKernelPath(t, testDenseKernelMatchesReference)
}

func testDenseKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, hidden := range []int{16, 32, 64, 128, 6, 13} {
		n := randomNet(hidden, rng)
		feats := make([]feature.Vector, 40)
		for r := range feats {
			for j := range feats[r] {
				feats[r][j] = 4*rng.Float64() - 2
			}
		}

		for li, l := range n.layers {
			in := make([]float64, l.in)
			got := make([]float64, l.out)
			want := make([]float64, l.out)
			for trial := 0; trial < 20; trial++ {
				for i := range in {
					in[i] = 4*rng.Float64() - 2
				}
				for _, relu := range []bool{true, false} {
					l.applyInto(in, got, relu)
					refApplyInto(l, in, want, relu)
					if !sameBits(got, want) {
						t.Fatalf("hidden=%d layer %d relu=%v: applyInto %v != reference %v",
							hidden, li, relu, got, want)
					}
				}
			}
		}

		refM := make([]config.M, len(feats))
		for r, f := range feats {
			want := refForward(n, f[:])
			got := make([]float64, len(want))
			n.forwardInto(f[:], got)
			if !sameBits(got, want) {
				t.Fatalf("hidden=%d row %d: forwardInto %v != reference %v", hidden, r, got, want)
			}
			var v [config.NumVariables]float64
			copy(v[:], want)
			refM[r] = config.FromNormalized(v, n.limits).Snapped(n.limits)
		}
		dst := make([]config.M, len(feats))
		if err := n.PredictBatchChecked(feats, dst); err != nil {
			t.Fatalf("hidden=%d: %v", hidden, err)
		}
		for r := range feats {
			if dst[r] != refM[r] {
				t.Fatalf("hidden=%d row %d: PredictBatchChecked %+v != reference %+v", hidden, r, dst[r], refM[r])
			}
		}
	}
}

// refTrain is the per-sample trainer Train replaced, kept here only as
// the reference: each mini-batch zeroes the gradients, adds every
// sample's gradient in turn (forward through refApply, backward through
// refBackward) and then takes one Adam step per layer.
func refTrain(n *Network, samples []predict.Sample) {
	rng := rand.New(rand.NewSource(n.opts.Seed + 7))
	idx := make([]int, len(samples))
	for i := range idx {
		idx[i] = i
	}
	for epoch := 0; epoch < n.opts.Epochs; epoch++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for start := 0; start < len(idx); start += n.opts.BatchSize {
			end := start + n.opts.BatchSize
			if end > len(idx) {
				end = len(idx)
			}
			for _, l := range n.layers {
				for i := range l.gw {
					l.gw[i] = 0
				}
				for i := range l.gb {
					l.gb[i] = 0
				}
			}
			for _, k := range idx[start:end] {
				s := &samples[k]
				refSampleGrad(n, s.Features[:], s.Target[:])
			}
			for _, l := range n.layers {
				refAdamStep(l, learningRate, float64(end-start))
			}
		}
	}
	n.ready = true
}

// refSampleGrad adds one sample's gradient of half its squared error to
// every layer's gw and gb.
func refSampleGrad(n *Network, in, target []float64) {
	acts := make([][]float64, len(n.layers)+1)
	pre := make([][]float64, len(n.layers))
	acts[0] = in
	last := len(n.layers) - 1
	for i, l := range n.layers {
		acts[i+1], pre[i] = refApply(l, acts[i], i < last)
	}
	out := acts[len(acts)-1]

	// Output delta: MSE with sigmoid output -> (o-y)*o*(1-o).
	delta := make([]float64, len(out))
	for j := range out {
		delta[j] = (out[j] - target[j]) * out[j] * (1 - out[j])
	}
	for i := last; i >= 0; i-- {
		delta = refBackward(n.layers[i], acts[i], pre[i], delta, i < last, i > 0)
	}
}

// refBackward accumulates one layer's gradients given its input
// activations, its pre-activations and the post-activation delta,
// returning the delta for the previous layer's output (nil when
// needPrev is false).
func refBackward(d *dense, in, pre, delta []float64, hidden, needPrev bool) []float64 {
	// delta already includes the activation derivative for the output
	// layer; hidden layers apply ReLU' here.
	local := delta
	if hidden {
		local = make([]float64, d.out)
		for o := range local {
			if pre[o] > 0 {
				local[o] = delta[o]
			}
		}
	}
	for o := 0; o < d.out; o++ {
		g := local[o]
		if g == 0 {
			continue
		}
		d.gb[o] += g
		row := d.gw[o*d.in : (o+1)*d.in]
		for i, x := range in {
			row[i] += g * x
		}
	}
	if !needPrev {
		return nil
	}
	prev := make([]float64, d.in)
	for o := 0; o < d.out; o++ {
		g := local[o]
		if g == 0 {
			continue
		}
		row := d.w[o*d.in : (o+1)*d.in]
		for i := range prev {
			prev[i] += g * row[i]
		}
	}
	return prev
}

func refAdamStep(d *dense, lr, batch float64) {
	d.t++
	c1 := 1 - math.Pow(adamBeta1, d.t)
	c2 := 1 - math.Pow(adamBeta2, d.t)
	for i := range d.w {
		g := d.gw[i] / batch
		d.mw[i] = adamBeta1*d.mw[i] + (1-adamBeta1)*g
		d.vw[i] = adamBeta2*d.vw[i] + (1-adamBeta2)*g*g
		d.w[i] -= lr * (d.mw[i] / c1) / (math.Sqrt(d.vw[i]/c2) + adamEps)
	}
	for i := range d.b {
		g := d.gb[i] / batch
		d.mb[i] = adamBeta1*d.mb[i] + (1-adamBeta1)*g
		d.vb[i] = adamBeta2*d.vb[i] + (1-adamBeta2)*g*g
		d.b[i] -= lr * (d.mb[i] / c1) / (math.Sqrt(d.vb[i]/c2) + adamEps)
	}
}

// sameParams reports the first training-state element in which a and b
// differ by bits: a weight, bias, gradient or Adam moment, or a layer's
// Adam step count.
func sameParams(a, b *Network) error {
	if len(a.layers) != len(b.layers) {
		return fmt.Errorf("%d layers != %d", len(a.layers), len(b.layers))
	}
	for li, x := range a.layers {
		y := b.layers[li]
		if math.Float64bits(x.t) != math.Float64bits(y.t) {
			return fmt.Errorf("layer %d: Adam step %v != %v", li, x.t, y.t)
		}
		for _, f := range []struct {
			name string
			x, y []float64
		}{
			{"w", x.w, y.w}, {"b", x.b, y.b}, {"gw", x.gw, y.gw}, {"gb", x.gb, y.gb},
			{"mw", x.mw, y.mw}, {"vw", x.vw, y.vw}, {"mb", x.mb, y.mb}, {"vb", x.vb, y.vb},
		} {
			if len(f.x) != len(f.y) {
				return fmt.Errorf("layer %d: len(%s) %d != %d", li, f.name, len(f.x), len(f.y))
			}
			for i := range f.x {
				if math.Float64bits(f.x[i]) != math.Float64bits(f.y[i]) {
					return fmt.Errorf("layer %d: %s[%d] %v != %v", li, f.name, i, f.x[i], f.y[i])
				}
			}
		}
	}
	return nil
}

// refSamples draws samples whose features are exactly zero a quarter of
// the time and otherwise lie in [-0.5, 1.5), with targets in [0, 1):
// negative, zero and positive inputs all reach the sums.
func refSamples(n int, seed int64) []predict.Sample {
	rng := rand.New(rand.NewSource(seed))
	out := make([]predict.Sample, n)
	for i := range out {
		for j := range out[i].Features {
			if rng.Intn(4) > 0 {
				out[i].Features[j] = 2*rng.Float64() - 0.5
			}
		}
		for j := range out[i].Target {
			out[i].Target[j] = rng.Float64()
		}
	}
	return out
}

// Train must be the per-sample trainer bit for bit: every weight, bias,
// gradient, Adam moment and Adam step count, at GOMAXPROCS 1, 2 and 4,
// and on three workers whatever the host's CPUs. The cases cover the
// Table IV extremes and a width that is not a multiple of four (tail
// loops), 300 samples (a short last batch of 12), fewer samples than one
// batch, one-row batches, 400 steps (past step 356, where Adam's m/c1
// becomes m), full batches of 24 (no power of two, so g/batch stays a
// division), an odd last batch (a row without a pair), and Deep.128 on
// the FastConfig database that serve -predictor deep trains on.
func TestTrainMatchesReference(t *testing.T) {
	pair := machine.PrimaryPair()
	cases := []struct {
		name    string
		opts    Options
		samples []predict.Sample
	}{
		{"hidden=16", Options{Hidden: 16, Epochs: 3, Seed: 5}, refSamples(300, 1)},
		{"hidden=128", Options{Hidden: 128, Epochs: 2, Seed: 6}, refSamples(300, 2)},
		{"hidden=13", Options{Hidden: 13, Epochs: 3, Seed: 7}, refSamples(300, 3)},
		{"samples=5", Options{Hidden: 16, Epochs: 4, Seed: 8}, refSamples(5, 4)},
		{"batch=1", Options{Hidden: 13, Epochs: 2, BatchSize: 1, Seed: 9}, refSamples(40, 5)},
		{"steps=400", Options{Hidden: 13, Epochs: 40, BatchSize: 8, Seed: 10}, refSamples(80, 6)},
		{"batch=24", Options{Hidden: 16, Epochs: 3, BatchSize: 24, Seed: 11}, refSamples(300, 7)},
		{"last=13", Options{Hidden: 13, Epochs: 3, BatchSize: 16, Seed: 12}, refSamples(301, 8)},
		{"fastconfig", Options{Hidden: 128, Epochs: 3}, train.BuildDatabase(pair, train.FastConfig()).Samples},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range cases {
		want := New(pair.Limits(), c.opts)
		refTrain(want, c.samples)
		forEachKernelPath(t, func(t *testing.T) {
			for _, procs := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(procs)
				got := New(pair.Limits(), c.opts)
				if err := got.Train(c.samples); err != nil {
					t.Fatal(err)
				}
				if err := sameParams(got, want); err != nil {
					t.Fatalf("%s at GOMAXPROCS %d: Train differs from the reference: %v", c.name, procs, err)
				}
			}
			got := New(pair.Limits(), c.opts)
			got.train(c.samples, 3)
			if err := sameParams(got, want); err != nil {
				t.Fatalf("%s on 3 workers: train differs from the reference: %v", c.name, err)
			}
		})
	}
}
