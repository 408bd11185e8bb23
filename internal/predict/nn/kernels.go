package nn

import "math"

// The network's dense kernels. Every multiply-add it does — the forward
// pass of inference and training, backprop and the weight gradients —
// runs in one kernel, mulAdd, or in mulAdd2, its form for two rows that
// share their weights; Adam's step, ReLU and backprop's dead-unit mask
// are the other three. Each kernel computes independent sums and
// keeps each sum's start value, operand order and addition order, so
// sums may advance together, one per lane, without changing a bit. On
// amd64 CPUs with AVX, kernels_amd64.s runs four lanes per instruction
// over the bulk of a run and the Go kernels below finish its len%4 tail;
// elsewhere the Go kernels run all of it. The packed forms use no fused
// multiply-add, which rounds once where the Go kernels round twice.

// useAVX reports whether mulAdd, adam, applyReLU and maskDead hand the
// bulk of a run to the packed AVX kernels. init sets it once from CPUID
// on amd64 (kernels_amd64.go); it stays false elsewhere. Tests clear it
// to run the Go kernels alone.
var useAVX bool

// mulAddGo sets dst[k] = base[k] + Σ_j g[j]·src[off[j]+k] for every k,
// adding the terms in ascending j; with base empty each sum starts from
// +0. Each pass over dst adds four terms to every sum, one after
// another, so the sums advance together and each is loaded and stored
// once per four terms. A run shorter than four, such as the tail the
// packed kernel leaves, takes its sums one at a time instead.
func mulAddGo(dst, base, src []float64, off []int, g []float64) {
	g = g[:len(off)]
	if len(dst) < 4 {
		for k := range dst {
			var s float64
			if len(base) > 0 {
				s = base[k]
			}
			for j, o := range off {
				s += g[j] * src[o+k]
			}
			dst[k] = s
		}
		return
	}
	if len(base) > 0 {
		copy(dst, base[:len(dst)])
	} else {
		clear(dst)
	}
	j := 0
	for ; j+4 <= len(off); j += 4 {
		x0 := src[off[j]:][:len(dst)]
		x1 := src[off[j+1]:][:len(dst)]
		x2 := src[off[j+2]:][:len(dst)]
		x3 := src[off[j+3]:][:len(dst)]
		g0, g1, g2, g3 := g[j], g[j+1], g[j+2], g[j+3]
		for k, s := range dst {
			s += g0 * x0[k]
			s += g1 * x1[k]
			s += g2 * x2[k]
			s += g3 * x3[k]
			dst[k] = s
		}
	}
	for ; j < len(off); j++ {
		x, gj := src[off[j]:][:len(dst)], g[j]
		for k := range dst {
			dst[k] += gj * x[k]
		}
	}
}

// adamGo is one Adam step over a run of parameters p, with gradient sums
// g over a batch of the given size, moments m and v, and bias
// corrections c1 and c2: gi = g/batch, m = β1·m + (1−β1)·gi,
// v = β2·v + (1−β2)·gi·gi and p −= lr·(m/c1) / (√(v/c2) + ε). It takes
// the shortcuts adamForms allows, which change no bit.
func adamGo(p, g, m, v []float64, lr, batch, c1, c2 float64) {
	g, m, v = g[:len(p)], m[:len(p)], v[:len(p)]
	scale, forms := adamForms(batch, c1)
	mulBatch, divC1 := forms&adamMulBatch != 0, forms&adamNoC1 == 0
	for i := range p {
		var gi float64
		if mulBatch {
			gi = g[i] * scale
		} else {
			gi = g[i] / scale
		}
		m[i] = adamBeta1*m[i] + (1-adamBeta1)*gi
		v[i] = adamBeta2*v[i] + (1-adamBeta2)*gi*gi
		mc := m[i]
		if divC1 {
			mc /= c1
		}
		p[i] -= lr * mc / (math.Sqrt(v[i]/c2) + adamEps)
	}
}

// The shortcuts of an Adam step, as flags. Each drops a division whose
// quotient another operation gives bit for bit.
const (
	// adamMulBatch: gi = g·(1/batch). When batch is a power of two, its
	// reciprocal is exact, so the product and the quotient are the
	// same real number, rounded once.
	adamMulBatch = 1 << iota
	// adamNoC1: m/c1 = m, since c1 = 1 − β1^t has rounded to 1.0
	// (from t = 356 on).
	adamNoC1
)

// adamForms returns the divisor or multiplier of the gradient sums and
// the shortcuts an Adam step with this batch size and c1 may take.
func adamForms(batch, c1 float64) (scale float64, forms int) {
	scale = batch
	if frac, _ := math.Frexp(batch); frac == 0.5 {
		scale, forms = 1/batch, adamMulBatch
	}
	if c1 == 1 {
		forms |= adamNoC1
	}
	return scale, forms
}

// applyReLUGo sets each x[i] to x[i] > 0 ? x[i] : +0, so NaN and −0
// become +0.
func applyReLUGo(x []float64) {
	for i, v := range x {
		if !(v > 0) {
			x[i] = 0
		}
	}
}

// maskDeadGo sets x[i] to +0 wherever act[i] > 0 fails: the unit is
// dead, NaN included.
func maskDeadGo(x, act []float64) {
	act = act[:len(x)]
	for i, a := range act {
		if !(a > 0) {
			x[i] = 0
		}
	}
}
