package machine

import (
	"strings"
	"testing"

	"heteromap/internal/config"
	"heteromap/internal/profile"
)

// testWork builds a medium-sized regular vertex-division profile.
func testWork() *profile.Work {
	return &profile.Work{
		Benchmark: "test", Graph: "g",
		Iterations: 10, Barriers: 20, Locality: 0.5, Skew: 0.5,
		Phases: []profile.Phase{{
			Kind: profile.VertexDivision, Name: "main",
			VertexOps: 1_000_000, EdgeOps: 20_000_000,
			IndexedAccesses: 40_000_000, IndirectAccesses: 1_000_000,
			ReadOnlyBytes: 100 << 20, ReadWriteBytes: 8 << 20, LocalBytes: 1 << 20,
			IntOps: 20_000_000, Atomics: 100_000,
			ChainLength: 10, ParallelItems: 1_000_000,
		}},
	}
}

func TestTableIIParameters(t *testing.T) {
	gtx750 := GTX750Ti()
	if gtx750.Cores != 640 || gtx750.CacheBytes != 2<<20 || gtx750.MemBWGBs != 86 ||
		gtx750.SPTflops != 1.3 || gtx750.DPTflops != 0.04 {
		t.Fatalf("GTX-750Ti deviates from Table II: %+v", gtx750)
	}
	phi := XeonPhi7120P()
	if phi.Cores != 61 || phi.ThreadsPerCore != 4 || phi.CacheBytes != 32<<20 ||
		phi.MemBWGBs != 352 || phi.SPTflops != 2.4 || phi.DPTflops != 1.2 || !phi.Coherent {
		t.Fatalf("Xeon Phi deviates from Table II: %+v", phi)
	}
	gtx970 := GTX970()
	if gtx970.Cores != 1664 || gtx970.SPTflops != 3.5 || gtx970.MemBytes != 4<<30 {
		t.Fatalf("GTX-970 deviates from Section VI-A: %+v", gtx970)
	}
	cpu := CPU40()
	if cpu.Cores != 40 || cpu.ThreadsPerCore != 2 || cpu.FreqGHz != 2.3 {
		t.Fatalf("CPU-40 deviates from Section VI-A: %+v", cpu)
	}
}

func TestPairs(t *testing.T) {
	if len(AllPairs()) != 4 {
		t.Fatal("Section VI-A analyzes four pairs")
	}
	p := PrimaryPair()
	if p.GPU.Name != "GTX-750Ti" || p.Multicore.Name != "Xeon-Phi-7120P" {
		t.Fatalf("primary pair %s", p.Name())
	}
	if p.Select(config.GPU) != p.GPU || p.Select(config.Multicore) != p.Multicore {
		t.Fatal("Select broken")
	}
	l := p.Limits()
	if l.MaxCores != 61 || l.MaxGlobalThreads != p.GPU.MaxGlobalThreads {
		t.Fatalf("limits %+v", l)
	}
}

func TestWithMemoryClamps(t *testing.T) {
	a := XeonPhi7120P()
	if got := a.WithMemory(1 << 40).MemBytes; got != a.MaxMemBytes {
		t.Fatalf("over-max memory %d", got)
	}
	if got := a.WithMemory(1).MemBytes; got != 256<<20 {
		t.Fatalf("under-min memory %d", got)
	}
	if a.MemBytes != 2<<30 {
		t.Fatal("WithMemory mutated the receiver")
	}
}

// chunkingMem is the GTX-750Ti's memory, the size the chunking rows
// below are written against.
const chunkingMem = int64(2) << 30

type chunkingRow struct {
	footprint int64
	want      int
}

// checkChunking asserts each row's chunk count and the multiplier
// 1 + ChunkPenalty*(chunks-1) that Evaluate charges for it.
func checkChunking(t *testing.T, rows []chunkingRow) {
	t.Helper()
	a := GTX750Ti().WithMemory(chunkingMem)
	for _, tc := range rows {
		chunks, factor := a.chunking(tc.footprint)
		if chunks != tc.want {
			t.Errorf("chunking(%d) = %d chunks, want %d", tc.footprint, chunks, tc.want)
		}
		if want := 1 + a.Cost.ChunkPenalty*float64(tc.want-1); factor != want {
			t.Errorf("chunking(%d) factor = %v, want %v", tc.footprint, factor, want)
		}
	}
}

// A footprint that fits, or is not positive, takes one chunk; past that
// the count is the footprint over the memory size, rounded up.
func TestChunking(t *testing.T) {
	const mem = chunkingMem
	checkChunking(t, []chunkingRow{
		{0, 1},
		{-10, 1},
		{mem / 2, 1},
		{mem, 1},
		{mem + 1, 2},
		{10 * mem, 10},
		{10*mem + 1, 11},
	})
}

// Exact multiples of the memory size must not round a chunk in or out:
// an off-by-one here inflates or hides the streaming penalty.
func TestChunkingExactBoundary(t *testing.T) {
	const mem = chunkingMem
	checkChunking(t, []chunkingRow{
		{mem, 1},         // exactly fits
		{mem + 1, 2},     // one byte over
		{2 * mem, 2},     // exact double
		{2*mem + 1, 3},   // just past double
		{10*mem - 1, 10}, // just under 10x
		{10 * mem, 10},   // exact 10x
	})
}

func TestEvaluateBasicSanity(t *testing.T) {
	job := Job{Work: testWork()}
	for _, a := range []*Accel{GTX750Ti(), GTX970(), XeonPhi7120P(), CPU40()} {
		var m config.M
		if a.Kind == KindGPU {
			m = config.DefaultGPU(a.selfLimits())
		} else {
			m = config.DefaultMulticore(a.selfLimits())
		}
		rep := a.Evaluate(job, m)
		if rep.Seconds <= 0 {
			t.Errorf("%s: non-positive time", a.Name)
		}
		if rep.EnergyJ <= 0 {
			t.Errorf("%s: non-positive energy", a.Name)
		}
		if rep.Utilization < 0 || rep.Utilization > 1 {
			t.Errorf("%s: utilization %v", a.Name, rep.Utilization)
		}
		if rep.Threads < 1 {
			t.Errorf("%s: threads %d", a.Name, rep.Threads)
		}
		if rep.Accel != a.Name {
			t.Errorf("report accel %q", rep.Accel)
		}
		bd := rep.Breakdown
		if bd.KnobFactor < 1 || bd.KnobFactor > 1.6 {
			t.Errorf("%s: knob factor %v outside [1,1.6]", a.Name, bd.KnobFactor)
		}
		if bd.Chunks != 1 || bd.ChunkFactor != 1 {
			t.Errorf("%s: unexpected chunking for fitting dataset", a.Name)
		}
	}
}

func TestMoreThreadsHelpThenSaturate(t *testing.T) {
	a := XeonPhi7120P()
	job := Job{Work: testWork()}
	base := config.DefaultMulticore(a.selfLimits())
	base.Cores = 1
	base.ThreadsPerCore = 1
	t1 := a.Evaluate(job, base).Seconds
	base.Cores = 16
	t16 := a.Evaluate(job, base).Seconds
	base.Cores = 61
	base.ThreadsPerCore = 4
	tMax := a.Evaluate(job, base).Seconds
	if !(t1 > t16 && t16 > tMax) {
		t.Fatalf("thread scaling broken: 1->%v 16->%v max->%v", t1, t16, tMax)
	}
	if t1/tMax < 4 {
		t.Fatalf("parallel speedup only %.1fx", t1/tMax)
	}
}

func TestGPUThreadSweetSpot(t *testing.T) {
	// Cache-pressure and contention terms must produce a U-shape (Fig 1):
	// the best GPU thread count on a cache-sensitive workload is neither
	// minimal nor maximal.
	a := GTX750Ti()
	w := testWork()
	w.Phases[0].ReadWriteBytes = 64 << 20
	w.Phases[0].Atomics = 10_000_000
	job := Job{Work: w}
	m := config.DefaultGPU(a.selfLimits())
	times := map[int]float64{}
	for _, g := range []int{64, 2048, 8192} {
		m.GlobalThreads = g
		times[g] = a.Evaluate(job, m).Seconds
	}
	if !(times[2048] < times[64]) {
		t.Fatalf("mid threads not better than few: %v", times)
	}
	if !(times[2048] <= times[8192]) {
		t.Fatalf("max threads should not beat the sweet spot: %v", times)
	}
}

func TestGPUWinsRegularParallelWork(t *testing.T) {
	// A large, regular, low-sharing integer workload is the GPU's home
	// game (the paper's SSSP-BF/BFS class) — with a working set too big
	// for any cache.
	w := testWork()
	w.Locality = 0.1
	w.Phases[0].ReadWriteBytes = 600 << 20
	job := Job{Work: w}
	gpu, phi := GTX750Ti(), XeonPhi7120P()
	mg := config.DefaultGPU(gpu.selfLimits())
	mg.GlobalThreads = 2048 // the knee of the GPU's thread curve
	tg := gpu.Evaluate(job, mg).Seconds
	tm := phi.Evaluate(job, config.DefaultMulticore(phi.selfLimits())).Seconds
	if tg >= tm {
		t.Fatalf("GPU (%v) should beat Phi (%v) on regular parallel work", tg, tm)
	}
}

func TestMulticoreWinsChainHeavyWork(t *testing.T) {
	// Deep dependency chains with barriers every step (the paper's road
	// network delta-stepping) favour the multicore.
	w := testWork()
	w.Phases[0].ChainLength = 50_000
	w.Phases[0].EdgeOps = 1_000_000
	w.Phases[0].IndexedAccesses = 2_000_000
	w.Phases[0].ParallelItems = 2_000
	w.Barriers = 50_000
	w.DiameterBound = true
	job := Job{Work: w}
	gpu, phi := GTX750Ti(), XeonPhi7120P()
	tg := gpu.Evaluate(job, config.DefaultGPU(gpu.selfLimits())).Seconds
	tm := phi.Evaluate(job, config.DefaultMulticore(phi.selfLimits())).Seconds
	if tm >= tg {
		t.Fatalf("Phi (%v) should beat GPU (%v) on chain-heavy work", tm, tg)
	}
}

func TestMulticoreWinsCacheResidentShared(t *testing.T) {
	// Read-write shared state that fits the Phi's 32 MB but not the
	// GPU's 2 MB (the paper's PageRank/Comm class on mid-size graphs).
	w := testWork()
	w.Phases[0].ReadWriteBytes = 24 << 20
	w.Phases[0].IndirectAccesses = 30_000_000
	w.Phases[0].FPOps = 30_000_000
	w.Phases[0].IntOps = 0
	job := Job{Work: w}
	gpu, phi := GTX750Ti(), XeonPhi7120P()
	tg := gpu.Evaluate(job, config.DefaultGPU(gpu.selfLimits())).Seconds
	tm := phi.Evaluate(job, config.DefaultMulticore(phi.selfLimits())).Seconds
	if tm >= tg {
		t.Fatalf("Phi (%v) should beat GPU (%v) on cache-resident FP work", tm, tg)
	}
}

func TestAtomicsHurtGPUMore(t *testing.T) {
	w := testWork()
	base := Job{Work: w}
	heavy := *w
	heavyPhases := append([]profile.Phase(nil), w.Phases...)
	heavyPhases[0].Atomics = 40_000_000
	heavy.Phases = heavyPhases
	heavyJob := Job{Work: &heavy}

	gpu, phi := GTX750Ti(), XeonPhi7120P()
	mg := config.DefaultGPU(gpu.selfLimits())
	mm := config.DefaultMulticore(phi.selfLimits())
	gpuDelta := gpu.Evaluate(heavyJob, mg).Seconds - gpu.Evaluate(base, mg).Seconds
	phiDelta := phi.Evaluate(heavyJob, mm).Seconds - phi.Evaluate(base, mm).Seconds
	if gpuDelta <= phiDelta {
		t.Fatalf("added atomic time GPU %.4fs vs Phi %.4fs: GPU should pay more",
			gpuDelta, phiDelta)
	}
}

func TestChunkingKicksIn(t *testing.T) {
	a := GTX750Ti() // 2 GB
	job := Job{Work: testWork(), FootprintBytes: 7 << 30}
	rep := a.Evaluate(job, config.DefaultGPU(a.selfLimits()))
	if rep.Breakdown.Chunks != 4 {
		t.Fatalf("chunks=%d want 4", rep.Breakdown.Chunks)
	}
	if rep.Breakdown.ChunkFactor <= 1 {
		t.Fatal("chunk factor must exceed 1")
	}
	fits := a.Evaluate(Job{Work: testWork(), FootprintBytes: 1 << 30}, config.DefaultGPU(a.selfLimits()))
	if fits.Seconds >= rep.Seconds {
		t.Fatal("chunked run should be slower")
	}
}

func TestMoreMemoryNeverSlower(t *testing.T) {
	phi := XeonPhi7120P()
	job := Job{Work: testWork(), FootprintBytes: 12 << 30}
	m := config.DefaultMulticore(phi.selfLimits())
	prev := -1.0
	for _, gb := range []int64{1, 2, 4, 8, 16} {
		sec := phi.WithMemory(gb<<30).Evaluate(job, m).Seconds
		if prev > 0 && sec > prev*1.0001 {
			t.Fatalf("more memory got slower at %dGB: %v > %v", gb, sec, prev)
		}
		prev = sec
	}
}

func TestPowerWithinRatings(t *testing.T) {
	for _, a := range []*Accel{GTX750Ti(), GTX970(), XeonPhi7120P(), CPU40()} {
		var m config.M
		if a.Kind == KindGPU {
			m = config.DefaultGPU(a.selfLimits())
		} else {
			m = config.DefaultMulticore(a.selfLimits())
		}
		rep := a.Evaluate(Job{Work: testWork()}, m)
		watts := rep.EnergyJ / rep.Seconds
		if watts < a.IdleWatts || watts > a.TDPWatts {
			t.Errorf("%s draws %.0fW outside [%.0f, %.0f]", a.Name, watts, a.IdleWatts, a.TDPWatts)
		}
	}
}

func TestPhiBurnsMoreEnergyThanGPU(t *testing.T) {
	// "The Xeon Phi has a larger power rating compared to the two GPUs,
	// and hence it dissipates more energy" for comparable work.
	job := Job{Work: testWork()}
	gpu, phi := GTX750Ti(), XeonPhi7120P()
	eg := gpu.Evaluate(job, config.DefaultGPU(gpu.selfLimits())).EnergyJ
	em := phi.Evaluate(job, config.DefaultMulticore(phi.selfLimits())).EnergyJ
	if em <= eg {
		t.Fatalf("Phi energy %v should exceed GPU energy %v on this workload", em, eg)
	}
}

func TestGTX970BeatsGTX750(t *testing.T) {
	job := Job{Work: testWork()}
	weak, strong := GTX750Ti(), GTX970()
	tw := weak.Evaluate(job, config.DefaultGPU(weak.selfLimits())).Seconds
	ts := strong.Evaluate(job, config.DefaultGPU(strong.selfLimits())).Seconds
	if ts >= tw {
		t.Fatalf("GTX-970 (%v) should beat GTX-750Ti (%v)", ts, tw)
	}
}

func TestKnobIdealsBounded(t *testing.T) {
	w := testWork()
	ideals := IdealsFor(w, 20)
	vals := []float64{ideals.Contention, ideals.Placement, ideals.Affinity,
		ideals.RWShare, ideals.LocalFrac}
	for i, v := range vals {
		if v < 0 || v > 1 {
			t.Fatalf("ideal %d = %v out of range", i, v)
		}
	}
}

func TestIdealKnobsBeatMisSetKnobs(t *testing.T) {
	phi := XeonPhi7120P()
	w := testWork()
	w.Skew = 2 // wants loose placement + dynamic scheduling
	job := Job{Work: w}
	good := config.DefaultMulticore(phi.selfLimits())
	good.Schedule = config.ScheduleDynamic
	good.PlaceCore, good.PlaceThread, good.PlaceOffset = 0.6, 0.6, 0.6
	bad := good
	bad.Schedule = config.ScheduleStatic
	bad.PlaceCore, bad.PlaceThread, bad.PlaceOffset = 0, 0, 0
	bad.Nested = true
	bad.DynamicAdjust = true
	tg := phi.Evaluate(job, good).Seconds
	tb := phi.Evaluate(job, bad).Seconds
	if tb <= tg {
		t.Fatalf("mis-set knobs (%v) should lose to aligned knobs (%v)", tb, tg)
	}
}

func TestEmptyWorkFloored(t *testing.T) {
	a := GTX750Ti()
	w := &profile.Work{Benchmark: "empty", Graph: "g",
		Phases: []profile.Phase{{Kind: profile.VertexDivision, Name: "noop"}}}
	rep := a.Evaluate(Job{Work: w}, config.DefaultGPU(a.selfLimits()))
	if rep.Seconds < minSeconds {
		t.Fatalf("time %v below floor", rep.Seconds)
	}
}

func TestStrings(t *testing.T) {
	if s := GTX750Ti().String(); !strings.Contains(s, "GTX-750Ti") {
		t.Fatal("accel string")
	}
	if KindGPU.String() != "gpu" || KindMulticore.String() != "multicore" {
		t.Fatal("kind strings")
	}
	if PrimaryPair().Name() == "" {
		t.Fatal("pair name")
	}
}

func TestHWThreadsAndFreq(t *testing.T) {
	phi := XeonPhi7120P()
	if phi.HWThreads() != 244 {
		t.Fatalf("phi threads %d want 244 (Table II)", phi.HWThreads())
	}
	if phi.FreqHz() != phi.FreqGHz*1e9 {
		t.Fatal("freq conversion")
	}
}
