package nn

func init() { useAVX = cpuHasAVX() }

// cpuHasAVX reports whether the CPU runs AVX instructions and the
// operating system saves their registers: CPUID leaf 1 sets OSXSAVE and
// AVX, and XCR0 enables both XMM and YMM state.
func cpuHasAVX() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 1 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	xcr0, _ := xgetbv()
	return xcr0&6 == 6
}

// packedLen is how many of n elements the packed kernels take: the
// largest multiple of 4, or none when useAVX is clear.
func packedLen(n int) int {
	if !useAVX {
		return 0
	}
	return n &^ 3
}

// mulAdd is mulAddGo, on packed AVX lanes for the first len(dst)&^3
// sums when useAVX is set.
func mulAdd(dst, base, src []float64, off []int, g []float64) {
	n := packedLen(len(dst))
	if n > 0 {
		g = g[:len(off)]
		if len(base) > 0 {
			base = base[:len(dst)]
		}
		for _, o := range off {
			_ = src[o : o+n : len(src)] // each term's run lies inside src
		}
		mulAddAVX(dst[:n], base, src, off, g)
		if len(base) > 0 {
			base = base[n:]
		}
	}
	mulAddGo(dst[n:], base, src[n:], off, g)
}

// mulAdd2 is mulAdd for two rows whose sums share base, src and off:
// dst0 takes the terms g0 and dst1 the terms g1. On packed AVX lanes,
// for the first len(dst0)&^3 sums when useAVX is set, each src run is
// loaded once for both rows; the Go kernels run it as two mulAddGo
// calls.
func mulAdd2(dst0, dst1, base, src []float64, off []int, g0, g1 []float64) {
	dst1 = dst1[:len(dst0)]
	n := packedLen(len(dst0))
	if n > 0 {
		g0, g1 = g0[:len(off)], g1[:len(off)]
		if len(base) > 0 {
			base = base[:len(dst0)]
		}
		for _, o := range off {
			_ = src[o : o+n : len(src)] // each term's run lies inside src
		}
		mulAdd2AVX(dst0[:n], dst1[:n], base, src, off, g0, g1)
		if len(base) > 0 {
			base = base[n:]
		}
	}
	mulAddGo(dst0[n:], base, src[n:], off, g0)
	mulAddGo(dst1[n:], base, src[n:], off, g1)
}

// adam is adamGo, on packed AVX lanes for the first len(p)&^3
// parameters when useAVX is set.
func adam(p, g, m, v []float64, lr, batch, c1, c2 float64) {
	n := packedLen(len(p))
	if n > 0 {
		g, m, v = g[:len(p)], m[:len(p)], v[:len(p)]
		scale, forms := adamForms(batch, c1)
		adamAVX(p[:n], g, m, v, lr, scale, c1, c2, adamBeta1, 1-adamBeta1, adamBeta2, 1-adamBeta2, adamEps, forms)
		g, m, v = g[n:], m[n:], v[n:]
	}
	adamGo(p[n:], g, m, v, lr, batch, c1, c2)
}

// applyReLU is applyReLUGo, on packed AVX lanes for the first
// len(x)&^3 elements when useAVX is set.
func applyReLU(x []float64) {
	n := packedLen(len(x))
	if n > 0 {
		applyReLUAVX(x[:n])
	}
	applyReLUGo(x[n:])
}

// maskDead is maskDeadGo, on packed AVX lanes for the first len(x)&^3
// elements when useAVX is set.
func maskDead(x, act []float64) {
	n := packedLen(len(x))
	if n > 0 {
		act = act[:len(x)]
		maskDeadAVX(x[:n], act)
		act = act[n:]
	}
	maskDeadGo(x[n:], act)
}

// The assembly kernels (kernels_amd64.s). Each takes runs whose length
// is a multiple of 4, and its caller has checked every bound.

//go:noescape
func mulAddAVX(dst, base, src []float64, off []int, g []float64)

//go:noescape
func mulAdd2AVX(dst0, dst1, base, src []float64, off []int, g0, g1 []float64)

// adamAVX receives Go's constant values of 1-adamBeta1 and 1-adamBeta2:
// the same differences taken in float64 round differently. scale and
// forms are adamForms' results.
//
//go:noescape
func adamAVX(p, g, m, v []float64, lr, scale, c1, c2, beta1, oneMinusBeta1, beta2, oneMinusBeta2, eps float64, forms int)

//go:noescape
func applyReLUAVX(x []float64)

//go:noescape
func maskDeadAVX(x, act []float64)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
