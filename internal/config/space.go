package config

import "math"

// This file enumerates discretized sweep spaces over the M vector. The
// offline search prices every one of these candidates when building the
// training database, and the "ideal" baseline exhaustively minimizes over
// them — the paper's "manually optimizes by running all possible
// configurations".

// DefaultMulticore returns a sensible multicore starting configuration:
// all cores, all hardware threads, static scheduling — what a user gets
// by running an OpenMP binary untuned.
func DefaultMulticore(l Limits) M {
	l = l.withDefaults()
	return M{
		Accelerator:     Multicore,
		Cores:           l.MaxCores,
		ThreadsPerCore:  l.MaxThreadsPerCore,
		BlocktimeMS:     200,
		PlaceCore:       0,
		PlaceThread:     0,
		PlaceOffset:     0,
		Affinity:        0,
		SIMDWidth:       1,
		Schedule:        ScheduleStatic,
		ChunkSize:       64,
		MaxActiveLevels: 1,
		SpinCount:       1024,
		GlobalThreads:   1,
		LocalThreads:    1,
	}.Clamp(l)
}

// DefaultGPU returns the untuned GPU configuration: maximum global and
// local threading.
func DefaultGPU(l Limits) M {
	l = l.withDefaults()
	return M{
		Accelerator:     GPU,
		Cores:           1,
		ThreadsPerCore:  1,
		BlocktimeMS:     1,
		SIMDWidth:       1,
		Schedule:        ScheduleStatic,
		ChunkSize:       64,
		MaxActiveLevels: 1,
		GlobalThreads:   l.MaxGlobalThreads,
		LocalThreads:    l.MaxLocalThreads,
	}.Clamp(l)
}

// levels returns about k geometrically spaced values in [1, maxV],
// always including 1 and maxV.
func levels(maxV, k int) []int {
	return appendLevels(nil, maxV, k)
}

// appendLevels is levels into a caller-provided buffer: the decode hot
// path (Snapped, on every NN inference) passes a stack array so grid
// snapping costs no heap allocations.
func appendLevels(dst []int, maxV, k int) []int {
	if maxV <= 1 {
		return append(dst, 1)
	}
	if k < 2 {
		k = 2
	}
	dst = append(dst, 1)
	step := math.Pow(float64(maxV), 1/float64(k-1))
	cur := 1.0
	for i := 1; i < k-1; i++ {
		cur *= step
		v := int(cur)
		if v > dst[len(dst)-1] {
			dst = append(dst, v)
		}
	}
	if dst[len(dst)-1] != maxV {
		dst = append(dst, maxV)
	}
	return dst
}

// EnumerateGPU returns the coarse GPU sweep grid: geometric levels of
// global threads crossed with work-group sizes. Soft knobs stay at
// defaults because they have no GPU semantics.
func EnumerateGPU(l Limits) []M {
	l = l.withDefaults()
	base := DefaultGPU(l)
	var out []M
	for _, gt := range levels(l.MaxGlobalThreads, 8) {
		for _, lt := range levels(l.MaxLocalThreads, 6) {
			m := base
			m.GlobalThreads = gt
			m.LocalThreads = lt
			out = append(out, m.Clamp(l))
		}
	}
	return out
}

// EnumerateMulticore returns the coarse multicore sweep grid: cores ×
// threads-per-core × SIMD × schedule × affinity/placement × blocktime.
// ~500 candidates for Xeon-Phi-like limits.
func EnumerateMulticore(l Limits) []M {
	l = l.withDefaults()
	base := DefaultMulticore(l)
	var out []M
	schedules := []Schedule{ScheduleStatic, ScheduleDynamic, ScheduleGuided}
	for _, c := range levels(l.MaxCores, 6) {
		for _, t := range levels(l.MaxThreadsPerCore, 3) {
			for _, s := range levels(l.MaxSIMD, 2) {
				for _, sch := range schedules {
					for _, place := range []float64{0, 0.5, 1} {
						for _, bt := range []int{1, 200} {
							m := base
							m.Cores = c
							m.ThreadsPerCore = t
							m.SIMDWidth = s
							m.Schedule = sch
							m.PlaceCore = place
							m.PlaceThread = place
							m.PlaceOffset = place
							m.Affinity = place
							m.BlocktimeMS = bt
							if sch == ScheduleDynamic {
								m.ChunkSize = 64
							} else {
								m.ChunkSize = 512
							}
							out = append(out, m.Clamp(l))
						}
					}
				}
			}
		}
	}
	return out
}

// Enumerate returns the union sweep over both accelerators — the search
// space of the inter+intra choice problem.
func Enumerate(l Limits) []M {
	gpu := EnumerateGPU(l)
	mc := EnumerateMulticore(l)
	out := make([]M, 0, len(gpu)+len(mc))
	out = append(out, gpu...)
	out = append(out, mc...)
	return out
}

// EnumerateFor returns the sweep restricted to one accelerator, used for
// the GPU-only / multicore-only baselines.
func EnumerateFor(a Accel, l Limits) []M {
	if a == GPU {
		return EnumerateGPU(l)
	}
	return EnumerateMulticore(l)
}

// Snapped quantizes the integer-valued knobs of m to the nearest level of
// the coarse sweep grids. Learners are trained on grid-optimal targets,
// so snapping is their natural decode step: it removes the
// regression-to-the-mean error on thread counts that would otherwise
// deploy configurations no tuner ever evaluated. It builds l's Grid on
// every call; a predictor that decodes often keeps one.
func (m M) Snapped(l Limits) M {
	g := NewGrid(l)
	return g.Snap(m)
}

// Grid is the coarse sweep grids' levels of each integer knob under one
// Limits, built once so that a decode snaps without recomputing them.
type Grid struct {
	limits Limits

	cores, threads, simd, global, local, blocktime, chunk gridLevels
}

// gridLevels is one knob's levels, in ascending order.
type gridLevels struct {
	v [8]int
	n int
}

func newGridLevels(v []int) gridLevels {
	var g gridLevels
	g.n = copy(g.v[:], v)
	return g
}

// NewGrid builds l's grid levels: the levels EnumerateGPU and
// EnumerateMulticore sweep, and the blocktime and chunk-size anchors.
func NewGrid(l Limits) Grid {
	l = l.withDefaults()
	var buf [8]int
	return Grid{
		limits:    l,
		cores:     newGridLevels(appendLevels(buf[:0], l.MaxCores, 6)),
		threads:   newGridLevels(appendLevels(buf[:0], l.MaxThreadsPerCore, 3)),
		simd:      newGridLevels(appendLevels(buf[:0], l.MaxSIMD, 2)),
		global:    newGridLevels(appendLevels(buf[:0], l.MaxGlobalThreads, 8)),
		local:     newGridLevels(appendLevels(buf[:0], l.MaxLocalThreads, 6)),
		blocktime: newGridLevels(append(buf[:0], 1, 200, l.MaxBlocktimeMS)),
		chunk:     newGridLevels(append(buf[:0], 1, 64, 512, l.MaxChunk)),
	}
}

// Snap is m.Snapped(l) for the Limits g was built from.
func (g *Grid) Snap(m M) M {
	m = m.Clamp(g.limits)
	m.Cores = snapTo(m.Cores, g.cores.v[:g.cores.n])
	m.ThreadsPerCore = snapTo(m.ThreadsPerCore, g.threads.v[:g.threads.n])
	m.SIMDWidth = snapTo(m.SIMDWidth, g.simd.v[:g.simd.n])
	m.GlobalThreads = snapTo(m.GlobalThreads, g.global.v[:g.global.n])
	m.LocalThreads = snapTo(m.LocalThreads, g.local.v[:g.local.n])
	m.BlocktimeMS = snapTo(m.BlocktimeMS, g.blocktime.v[:g.blocktime.n])
	m.ChunkSize = snapTo(m.ChunkSize, g.chunk.v[:g.chunk.n])
	return m
}

// snapTo returns the level geometrically closest to x.
func snapTo(x int, lv []int) int {
	best := lv[0]
	bestDist := geoDist(x, best)
	for _, v := range lv[1:] {
		if d := geoDist(x, v); d < bestDist {
			best, bestDist = v, d
		}
	}
	return best
}

func geoDist(a, b int) float64 {
	if a < 1 {
		a = 1
	}
	if b < 1 {
		b = 1
	}
	r := float64(a) / float64(b)
	if r < 1 {
		r = 1 / r
	}
	return r
}
