package nn

import (
	"math"
	"math/rand"
	"testing"

	"heteromap/internal/config"
	"heteromap/internal/feature"
)

// refApplyInto is the one-output-at-a-time dense kernel applyInto
// replaced, kept here only as the reference: one accumulation chain per
// output, bias first, then the inputs in ascending order.
func refApplyInto(d *dense, in, out []float64, relu bool) {
	for o := 0; o < d.out; o++ {
		sum := d.b[o]
		row := d.w[o*d.in : (o+1)*d.in]
		for i, x := range in {
			sum += row[i] * x
		}
		if relu {
			if sum > 0 {
				out[o] = sum
			} else {
				out[o] = 0
			}
		} else {
			out[o] = sigmoid(sum)
		}
	}
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
