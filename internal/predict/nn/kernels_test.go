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

func TestMulAdd2AVXMatchesGo(t *testing.T) {
	skipWithoutAVX(t)
	rng := rand.New(rand.NewSource(5))
	for n := 0; n <= 40; n++ {
		for _, withBase := range []bool{false, true} {
			for trial := 0; trial < 10; trial++ {
				src := kernelValues(rng, n+40)
				terms := rng.Intn(10)
				off := make([]int, terms)
				for j := range off {
					off[j] = rng.Intn(len(src) - n + 1)
				}
				g0, g1 := kernelValues(rng, terms), kernelValues(rng, terms)
				var base []float64
				if withBase {
					base = kernelValues(rng, n)
				}
				want0, want1 := make([]float64, n), make([]float64, n)
				got0, got1 := kernelValues(rng, n), kernelValues(rng, n) // stale values must be overwritten
				mulAddGo(want0, base, src, off, g0)
				mulAddGo(want1, base, src, off, g1)
				mulAdd2(got0, got1, base, src, off, g0, g1)
				for row, d := range [2][2][]float64{{got0, want0}, {got1, want1}} {
					if i := diffAt(d[0], d[1]); i >= 0 {
						t.Fatalf("n=%d base=%v terms=%d: row %d dst[%d] = %v, lone Go kernel %v (g0 %v, g1 %v, off %v)",
							n, withBase, terms, row, i, d[0][i], d[1][i], g0, g1, off)
					}
				}
			}
		}
	}
}

// adamCase draws one Adam step's inputs. Half its batch sizes are powers
// of two, so gi takes the multiply form, and half its steps are past
// 356, where c1 has rounded to 1 and m/c1 is skipped.
func adamCase(rng *rand.Rand, n int) (p, g, m, v []float64, lr, batch, c1, c2 float64) {
	step := float64(1 + rng.Intn(355))
	if rng.Intn(2) == 0 {
		step = float64(356 + rng.Intn(2000))
	}
	batch = float64(1 + rng.Intn(48))
	if rng.Intn(2) == 0 {
		batch = float64(int(1) << rng.Intn(7))
	}
	c1, c2 = 1-math.Pow(adamBeta1, step), 1-math.Pow(adamBeta2, step)
	lr = 2e-3 * rng.Float64()
	g = kernelValues(rng, n)
	p, m = kernelValues(rng, n), kernelValues(rng, n)
	v = kernelValues(rng, n)
	for i := range v {
		v[i] = math.Abs(v[i])
	}
	return p, g, m, v, lr, batch, c1, c2
}

// checkAdam runs step on copies of p, m and v, and compares the results
// with want's.
func checkAdam(t *testing.T, name string, p, g, m, v []float64, lr, batch, c1, c2 float64, step, want func(p, g, m, v []float64, lr, batch, c1, c2 float64)) {
	t.Helper()
	cp := func(x []float64) []float64 { return append([]float64(nil), x...) }
	got := [3][]float64{cp(p), cp(m), cp(v)}
	exp := [3][]float64{cp(p), cp(m), cp(v)}
	step(got[0], g, got[1], got[2], lr, batch, c1, c2)
	want(exp[0], g, exp[1], exp[2], lr, batch, c1, c2)
	for k := range got {
		if i := diffAt(got[k], exp[k]); i >= 0 {
			t.Fatalf("n=%d batch=%v c1=%v: %s %s[%d] = %v, want %v (g %v)",
				len(p), batch, c1, name, []string{"p", "m", "v"}[k], i, got[k][i], exp[k][i], g[i])
		}
	}
}

func TestAdamAVXMatchesGo(t *testing.T) {
	skipWithoutAVX(t)
	rng := rand.New(rand.NewSource(2))
	forms := map[int]int{}
	for n := 0; n <= 40; n++ {
		for trial := 0; trial < 10; trial++ {
			p, g, m, v, lr, batch, c1, c2 := adamCase(rng, n)
			_, f := adamForms(batch, c1)
			forms[f]++
			checkAdam(t, "packed", p, g, m, v, lr, batch, c1, c2, adam, adamGo)
		}
	}
	if len(forms) != 4 {
		t.Fatalf("cases covered the shortcut combinations %v, want all four", forms)
	}
}

// refAdam is Adam's step with all four of its divisions, as the
// per-sample trainer took it.
func refAdam(p, g, m, v []float64, lr, batch, c1, c2 float64) {
	for i := range p {
		gi := g[i] / batch
		m[i] = adamBeta1*m[i] + (1-adamBeta1)*gi
		v[i] = adamBeta2*v[i] + (1-adamBeta2)*gi*gi
		p[i] -= lr * (m[i] / c1) / (math.Sqrt(v[i]/c2) + adamEps)
	}
}

// The Go kernel's shortcuts must change no bit: g·(1/batch) for a
// power-of-two batch and m in place of m/1 give the quotients, over ±0,
// subnormals, ±Inf and NaN.
func TestAdamShortcutsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for n := 0; n <= 40; n++ {
		for trial := 0; trial < 10; trial++ {
			p, g, m, v, lr, batch, c1, c2 := adamCase(rng, n)
			checkAdam(t, "Go kernel", p, g, m, v, lr, batch, c1, c2, adamGo, refAdam)
		}
	}
	if _, f := adamForms(32, 1-math.Pow(adamBeta1, 356)); f != adamMulBatch|adamNoC1 {
		t.Fatalf("batch 32 at step 356 takes forms %b, want both shortcuts", f)
	}
	if _, f := adamForms(12, 1-math.Pow(adamBeta1, 355)); f != 0 {
		t.Fatalf("batch 12 at step 355 takes forms %b, want none", f)
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
