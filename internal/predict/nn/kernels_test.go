package nn

import (
	"math"
	"math/rand"
	"testing"
)

// forEachKernelPath runs f as one subtest per kernel path this host
// has: "go", the Go kernels alone, and "avx", the packed AVX kernels,
// where init chose them. init's choice is restored afterwards.
func forEachKernelPath(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	chosen := useAVX
	defer func() { useAVX = chosen }()
	paths := []bool{false}
	if chosen {
		paths = append(paths, true)
	}
	for _, avx := range paths {
		useAVX = avx
		name := "go"
		if avx {
			name = "avx"
		}
		t.Run(name, f)
	}
}

// skipWithoutAVX skips a test of the packed kernels where init did not
// choose them.
func skipWithoutAVX(t *testing.T) {
	t.Helper()
	if !useAVX {
		t.Skip("no packed kernels on this CPU or architecture")
	}
}

// kernelValues draws n values, one in five of them a value a kernel
// must treat exactly as its Go twin does: a signed zero, a subnormal, an
// infinity or NaN. The rest span many magnitudes and both signs.
func kernelValues(rng *rand.Rand, n int) []float64 {
	specials := []float64{
		0, math.Copysign(0, -1),
		5e-324, -5e-324, 2.225073858507201e-308, -1.5e-310,
		math.Inf(1), math.Inf(-1), math.NaN(),
	}
	x := make([]float64, n)
	for i := range x {
		if rng.Intn(5) == 0 {
			x[i] = specials[rng.Intn(len(specials))]
		} else {
			x[i] = rng.NormFloat64() * math.Ldexp(1, rng.Intn(40)-20)
		}
	}
	return x
}

// diffAt returns the first index at which got and want differ by bits,
// or -1. A NaN matches any NaN: only NaN-ness is compared.
func diffAt(got, want []float64) int {
	for i := range want {
		if math.IsNaN(want[i]) && math.IsNaN(got[i]) {
			continue
		}
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i
		}
	}
	return -1
}

// Each dispatcher with the packed kernels on must equal its Go twin,
// for every length 0–40, so both the packed bulk and the Go tail run.

func TestMulAddAVXMatchesGo(t *testing.T) {
	skipWithoutAVX(t)
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= 40; n++ {
		for _, withBase := range []bool{false, true} {
			for trial := 0; trial < 10; trial++ {
				src := kernelValues(rng, n+40)
				terms := rng.Intn(10)
				off := make([]int, terms)
				for j := range off {
					off[j] = rng.Intn(len(src) - n + 1)
				}
				g := kernelValues(rng, terms)
				var base []float64
				if withBase {
					base = kernelValues(rng, n)
				}
				want := make([]float64, n)
				got := kernelValues(rng, n) // stale values must be overwritten
				mulAddGo(want, base, src, off, g)
				mulAdd(got, base, src, off, g)
				if i := diffAt(got, want); i >= 0 {
					t.Fatalf("n=%d base=%v terms=%d: dst[%d] = %v, Go kernel %v (g %v, off %v)",
						n, withBase, terms, i, got[i], want[i], g, off)
				}
			}
		}
	}
}

func TestAdamAVXMatchesGo(t *testing.T) {
	skipWithoutAVX(t)
	rng := rand.New(rand.NewSource(2))
	for n := 0; n <= 40; n++ {
		for trial := 0; trial < 10; trial++ {
			step := float64(1 + rng.Intn(2000))
			c1, c2 := 1-math.Pow(adamBeta1, step), 1-math.Pow(adamBeta2, step)
			lr, batch := 2e-3*rng.Float64(), float64(1+rng.Intn(32))
			g := kernelValues(rng, n)
			p, m := kernelValues(rng, n), kernelValues(rng, n)
			v := kernelValues(rng, n)
			for i := range v {
				v[i] = math.Abs(v[i])
			}
			want := [3][]float64{append([]float64(nil), p...), append([]float64(nil), m...), append([]float64(nil), v...)}
			adamGo(want[0], g, want[1], want[2], lr, batch, c1, c2)
			adam(p, g, m, v, lr, batch, c1, c2)
			for k, got := range [3][]float64{p, m, v} {
				if i := diffAt(got, want[k]); i >= 0 {
					t.Fatalf("n=%d step=%v: %s[%d] = %v, Go kernel %v (g %v)",
						n, step, []string{"p", "m", "v"}[k], i, got[i], want[k][i], g[i])
				}
			}
		}
	}
}

func TestApplyReLUAVXMatchesGo(t *testing.T) {
	skipWithoutAVX(t)
	rng := rand.New(rand.NewSource(3))
	for n := 0; n <= 40; n++ {
		for trial := 0; trial < 10; trial++ {
			got := kernelValues(rng, n)
			want := append([]float64(nil), got...)
			in := append([]float64(nil), got...)
			applyReLUGo(want)
			applyReLU(got)
			if i := diffAt(got, want); i >= 0 {
				t.Fatalf("n=%d: relu(%v) = %v, Go kernel %v", n, in[i], got[i], want[i])
			}
		}
	}
}

func TestMaskDeadAVXMatchesGo(t *testing.T) {
	skipWithoutAVX(t)
	rng := rand.New(rand.NewSource(4))
	for n := 0; n <= 40; n++ {
		for trial := 0; trial < 10; trial++ {
			act := kernelValues(rng, n)
			got := kernelValues(rng, n)
			want := append([]float64(nil), got...)
			maskDeadGo(want, act)
			maskDead(got, act)
			if i := diffAt(got, want); i >= 0 {
				t.Fatalf("n=%d: act %v: x = %v, Go kernel %v", n, act[i], got[i], want[i])
			}
		}
	}
}
