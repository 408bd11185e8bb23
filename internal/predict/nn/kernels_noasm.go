//go:build !amd64

package nn

// Without packed kernels for this architecture, the Go kernels run
// every element.

func mulAdd(dst, base, src []float64, off []int, g []float64) {
	mulAddGo(dst, base, src, off, g)
}

func mulAdd2(dst0, dst1, base, src []float64, off []int, g0, g1 []float64) {
	mulAddGo(dst0, base, src, off, g0)
	mulAddGo(dst1[:len(dst0)], base, src, off, g1)
}

func adam(p, g, m, v []float64, lr, batch, c1, c2 float64) {
	adamGo(p, g, m, v, lr, batch, c1, c2)
}

func applyReLU(x []float64) { applyReLUGo(x) }

func maskDead(x, act []float64) { maskDeadGo(x, act) }
