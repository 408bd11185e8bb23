package machine

import (
	"math"

	"heteromap/internal/config"
	"heteromap/internal/profile"
)

// Job is one benchmark-input execution request: the measured (and, for
// Table I analogs, paper-scale-scaled) work profile plus the dataset's
// paper-scale memory footprint, which drives chunked streaming when it
// exceeds the accelerator's memory.
type Job struct {
	Work *profile.Work
	// FootprintBytes is the dataset's in-memory size; 0 means "fits".
	FootprintBytes int64
}

// Breakdown itemizes where simulated time went (seconds).
type Breakdown struct {
	Chain    float64 // dependency-chain serialization
	Compute  float64 // scalar inner-loop work
	FP       float64 // floating-point work
	Memory   float64 // exposed (non-overlapped) memory time
	Atomics  float64 // contended atomic updates
	Barriers float64 // global barriers
	PushPop  float64 // queue/stack disciplines

	// KnobFactor is the multiplicative penalty from mis-set soft knobs
	// (1.0 = every knob at its profile-ideal value).
	KnobFactor float64
	// Chunks is how many memory-sized chunks the dataset was streamed in.
	Chunks int
	// ChunkFactor is the streaming slowdown multiplier.
	ChunkFactor float64
}

// Report is the simulated outcome of a Job under one M configuration.
type Report struct {
	Accel       string
	Seconds     float64
	EnergyJ     float64
	Utilization float64 // busy fraction of the selected cores, [0,1]
	Threads     int     // deployed thread count
	Breakdown   Breakdown
}

// minSeconds floors simulated time so ratios stay finite for degenerate
// (empty) profiles.
const minSeconds = 1e-9

// The model is split in two. The phase loop (loop) prices every phase
// of the work from the loop knobs alone; finish turns its sums into a
// Report. Evaluate is finish(loop(m)) for one candidate, and a Sweep
// runs the same two functions over a candidate list, so the two can
// never drift apart.

// loopKnobs are the knobs of M that the phase loop, deployedThreads and
// perThreadStateBytes read. Every other knob enters only through
// finish's soft-knob factor, so candidates with equal loop knobs share
// one loop's sums.
type loopKnobs struct {
	accel          config.Accel
	cores          int
	threadsPerCore int
	simd           int
	schedule       config.Schedule
	chunk          int
	global         int
	local          int
}

// loopKnobsOf returns m's loop knobs.
func loopKnobsOf(m *config.M) loopKnobs {
	return loopKnobs{
		accel:          m.Accelerator,
		cores:          m.Cores,
		threadsPerCore: m.ThreadsPerCore,
		simd:           m.SIMDWidth,
		schedule:       m.Schedule,
		chunk:          m.ChunkSize,
		global:         m.GlobalThreads,
		local:          m.LocalThreads,
	}
}

// loopSums is the busy and exposed time the phase loop leaves for
// finish's utilization. The loop writes the rest of its output, the
// Breakdown's time terms and the deployed thread count, into the Report
// that finish completes.
type loopSums struct {
	busy, exposed float64
}

// jobTerms are finish's inputs that depend on the job but on no knob:
// the soft-knob ideals and density, and the streaming chunks on one
// accelerator. A Sweep computes them once per job.
type jobTerms struct {
	ideals      KnobIdeals
	avgWork     float64
	skew        float64
	chunks      int
	chunkFactor float64
}

// newJobTerms derives the knob-independent terms of w; chunks are
// per accelerator and left for the caller.
func newJobTerms(w *profile.Work) jobTerms {
	avgWork := phaseAvgWork(w)
	return jobTerms{ideals: IdealsFor(w, avgWork), avgWork: avgWork, skew: w.Skew}
}

// Evaluate simulates executing job on the accelerator under configuration
// m. The M vector is clamped to the accelerator's deployable ranges
// first, mirroring the paper's ceiling rule.
func (a *Accel) Evaluate(job Job, m config.M) Report {
	m = m.Clamp(a.selfLimits())
	k := loopKnobsOf(&m)
	var rep Report
	s := a.loop(job.Work, &k, &rep)
	t := newJobTerms(job.Work)
	t.chunks, t.chunkFactor = a.chunking(job.FootprintBytes)
	a.finish(&m, s, &t, &rep)
	return rep
}

// loop prices every phase of w under the loop knobs k. It sets rep's
// Threads and the time terms of its Breakdown, and no other field of
// rep, so a report finished for one candidate still holds the loop's
// output for the next candidate with equal loop knobs.
func (a *Accel) loop(w *profile.Work, k *loopKnobs, rep *Report) loopSums {
	threads := a.deployedThreads(k)
	freq := a.FreqHz()
	cost := &a.Cost
	li := a.loadImbalance(k, w.Skew)
	// Overlap compute and memory: accelerators with enough live
	// concurrency hide memory latency under compute.
	overlap := cost.MemOverlap * math.Min(1, float64(threads)/cost.BWSaturationThreads)

	var s loopSums
	rep.Threads = threads
	bd := &rep.Breakdown
	*bd = Breakdown{}
	for i := range w.Phases {
		p := &w.Phases[i]
		par := effectiveParallelism(threads, p.ParallelItems)
		computePar := a.computeParallelism(k, threads, p.ParallelItems)

		// --- dependency chain: inherently serial steps ---
		tChain := float64(p.ChainLength) * cost.ChainHopCycles / freq
		bd.Chain += tChain

		// --- scalar compute ---
		scalarOps := float64(p.VertexOps+p.EdgeOps+p.IntOps) +
			0.25*float64(p.IndexedAccesses)
		cycles := scalarOps * cost.OpCycles / cost.IPC
		// SIMD vectorizes regular inner loops on multicores — but only
		// when the inner loops are long enough to fill the lanes (the
		// paper: "PR-CA does not perform well on a Xeon Phi, because it
		// cannot take advantage of the SIMD capabilities due to the lack
		// of density") and the data is regular enough to stream.
		innerLen := 0.0
		if p.VertexOps > 0 {
			innerLen = float64(p.EdgeOps) / float64(p.VertexOps)
		}
		simdFill := math.Min(1, innerLen/16)
		if a.Kind == KindMulticore && k.simd > 1 {
			simdEff := 1 + float64(k.simd-1)*w.Locality*0.5*simdFill
			cycles /= simdEff
		}
		// Warp divergence on irregular phases.
		if a.Kind == KindGPU && (p.Kind == profile.PushPop || p.Kind == profile.Reduction) {
			cycles *= cost.DivergencePenalty
		}
		// Dynamic scheduling pays a dispatch cost per chunk.
		dispatch := scheduleDispatchCycles(k, p.ParallelItems)
		tCompute := (cycles*li + dispatch) / (freq * computePar)
		// Indirect address resolution.
		tCompute += float64(p.IndirectAccesses) * cost.IndirectCycles / (freq * computePar)
		bd.Compute += tCompute

		// --- floating point ---
		tFP := 0.0
		if p.FPOps > 0 {
			tFP = float64(p.FPOps) / a.fpThroughput(k, threads, simdFill)
		}
		bd.FP += tFP

		// --- memory hierarchy ---
		tMem := a.memoryTime(p, w.Locality, threads, k, simdFill)

		// --- queue disciplines ---
		tPP := 0.0
		if p.PushPops > 0 {
			// Ordered queues serialize, but wide buckets/frontiers
			// (delta-stepping on dense low-diameter graphs) admit
			// parallel appends.
			qCap := 32 + float64(p.ParallelItems)/16
			qPar := math.Min(par, qCap)
			tPP = float64(p.PushPops) * cost.PushPopCycles / (freq * qPar)
		}
		bd.PushPop += tPP

		// --- atomics ---
		tAt := 0.0
		if p.Atomics > 0 {
			contention := atomicContention(p)
			serial := cost.AtomicSerialize * contention * math.Log2(1+par)
			tAt = float64(p.Atomics) * cost.AtomicCycles / freq * (1/par + serial)
		}
		bd.Atomics += tAt

		core := tCompute + tFP + tPP
		memExposed := 0.0
		if tMem > core {
			memExposed = tMem - core*overlap
		} else {
			memExposed = tMem * (1 - overlap)
		}
		bd.Memory += memExposed

		s.busy += core + tChain*0.25 + tAt*0.5
		s.exposed += memExposed + tChain*0.75 + tAt*0.5
	}

	// Global barriers over the whole run: flat kernel-relaunch cost on
	// GPUs, tree-combining cost growing with thread count on multicores.
	barScale := 1.0
	if a.Kind == KindMulticore {
		barScale = math.Log2(1 + float64(threads))
	}
	tBar := float64(w.Barriers) * cost.BarrierCycles * barScale / freq
	bd.Barriers = tBar
	s.exposed += tBar
	return s
}

// finish completes rep from the phase loop's output: the soft-knob
// factor, streaming chunks, the time floor, utilization and power.
func (a *Accel) finish(m *config.M, s loopSums, t *jobTerms, rep *Report) {
	bd := &rep.Breakdown
	total := bd.Chain + bd.Compute + bd.FP + bd.Memory + bd.Atomics + bd.Barriers + bd.PushPop

	// Soft-knob penalties (placement, blocktime, scheduling kind, ...).
	bd.KnobFactor = a.knobFactor(m, t)
	total *= bd.KnobFactor

	// Streaming chunks when the dataset exceeds accelerator memory.
	bd.Chunks, bd.ChunkFactor = t.chunks, t.chunkFactor
	total *= bd.ChunkFactor

	if total < minSeconds {
		total = minSeconds
	}

	util := 0.0
	if s.busy+s.exposed > 0 {
		util = s.busy / (s.busy + s.exposed)
	}
	// GPUs earn utilization credit for latency they actually hide.
	if a.Kind == KindGPU {
		hide := math.Min(1, float64(rep.Threads)/a.Cost.BWSaturationThreads) * 0.5
		util = util + (1-util)*hide
	}
	util = clamp01(util)

	power := a.power(m, rep.Threads, util)
	rep.Accel = a.Name
	rep.Seconds = total
	rep.EnergyJ = power * total
	rep.Utilization = util
}

// selfLimits builds single-accelerator deployment limits, used to clamp M
// before evaluation.
func (a *Accel) selfLimits() config.Limits {
	l := config.Limits{
		MaxCores:          a.Cores,
		MaxThreadsPerCore: a.ThreadsPerCore,
		MaxSIMD:           a.MaxSIMD,
		MaxGlobalThreads:  a.MaxGlobalThreads,
		MaxLocalThreads:   a.MaxLocalThreads,
	}
	if a.Kind == KindGPU {
		l.MaxCores = 1
		l.MaxThreadsPerCore = 1
		l.MaxSIMD = 1
	} else {
		l.MaxGlobalThreads = 1
		l.MaxLocalThreads = 1
	}
	return l
}

// deployedThreads maps the M vector to the live thread count.
func (a *Accel) deployedThreads(k *loopKnobs) int {
	if a.Kind == KindGPU {
		t := k.global
		if hw := a.HWThreads(); t > hw {
			t = hw // extra work items queue behind live contexts
		}
		if t < 1 {
			t = 1
		}
		return t
	}
	return k.cores * k.threadsPerCore
}

// computeParallelism is the parallelism that raw ALU throughput scales
// with: GPUs only have Cores ALUs (extra contexts hide latency, they do
// not add issue width); multicore hyperthreads share pipelines with
// diminishing returns.
func (a *Accel) computeParallelism(k *loopKnobs, threads int, items int64) float64 {
	if a.Kind == KindGPU {
		p := math.Min(float64(threads), float64(a.Cores))
		return math.Max(1, math.Min(p, float64(maxI64(items, 1))))
	}
	cores := float64(k.cores)
	ht := 1 + 0.3*float64(k.threadsPerCore-1)
	p := cores * ht
	return math.Max(1, math.Min(p, float64(maxI64(items, 1))))
}

func effectiveParallelism(threads int, items int64) float64 {
	p := math.Min(float64(threads), float64(maxI64(items, 1)))
	return math.Max(1, p)
}

// loadImbalance models the skew-induced straggler effect, mitigated by
// dynamic work distribution (the paper's "dynamic scheduling on
// read-write shared data ... mitigates contention and data movement").
func (a *Accel) loadImbalance(k *loopKnobs, skew float64) float64 {
	coef := 0.5
	if a.Kind == KindGPU {
		coef = 0.35 // per-warp scheduling is static
	} else {
		switch k.schedule {
		case config.ScheduleDynamic:
			coef = 0.10
		case config.ScheduleGuided:
			coef = 0.18
		case config.ScheduleAuto:
			coef = 0.25
		default:
			coef = 0.50
		}
	}
	return 1 + skew*coef
}

// scheduleDispatchCycles charges dynamic/guided scheduling's per-chunk
// dispatch overhead.
func scheduleDispatchCycles(k *loopKnobs, items int64) float64 {
	if k.accel == config.GPU {
		return 0
	}
	chunk := float64(k.chunk)
	if chunk < 1 {
		chunk = 1
	}
	n := float64(maxI64(items, 1))
	switch k.schedule {
	case config.ScheduleDynamic:
		return n / chunk * 40
	case config.ScheduleGuided:
		return n / chunk * 20
	case config.ScheduleAuto:
		return n / chunk * 10
	default:
		return 0
	}
}

// fpThroughput returns sustained FLOP/s for the deployed configuration.
// Graph-analytic FP mixes single and double precision (the paper: "the
// double precision capability of the Xeon Phi is higher, [but] not all
// benchmark combinations require it"); the blend exposes the Phi's DP
// advantage without letting it dominate. Multicore vector units only
// reach peak when inner loops are long enough to fill the lanes
// (simdFill), which is why PR on the sparse road network falls back to
// the GPU in the paper.
func (a *Accel) fpThroughput(k *loopKnobs, threads int, simdFill float64) float64 {
	peak := (0.7*a.SPTflops + 0.3*a.DPTflops) * 1e12
	if peak <= 0 {
		peak = 1e9
	}
	if a.Kind == KindGPU {
		occ := math.Min(1, float64(threads)/float64(a.Cores*4))
		return math.Max(peak*occ*0.7, 1e7)
	}
	coresFrac := float64(k.cores) / float64(a.Cores)
	simdFrac := float64(k.simd) / float64(maxI(a.MaxSIMD, 1))
	vecEff := 0.15 + 0.85*simdFrac*simdFill
	return math.Max(peak*coresFrac*vecEff, 1e7)
}

// memoryTime models the cache hierarchy: a bandwidth-bound term (line
// traffic over achievable bandwidth) raced against a latency-bound term
// (unhidden miss stalls over the outstanding-miss capacity of the thread
// contexts). The latency term is what makes a 244-thread Xeon Phi stall
// on irregular graph accesses that 10k GPU contexts hide — the paper's
// "cores spend most of their time waiting for low-locality memory
// accesses; GPUs can hide such latencies via thread switching". The
// oversubscription pressure term produces the U-shaped thread-count
// curves of Fig 1.
func (a *Accel) memoryTime(p *profile.Phase, locality float64, threads int, k *loopKnobs, simdFill float64) float64 {
	cost := &a.Cost
	// The reusable resident state is the read-write + local data (rank,
	// distance, label arrays); the read-only graph structure streams
	// through without needing residency. A 32 MB coherent Phi cache
	// holds the vertex state of mid-sized graphs — exactly the regime
	// where the paper's multicore wins — while 2 MB of GPU cache never
	// does, and half-gigabyte state (Twitter/Friendster scale) evicts
	// everywhere, handing the advantage back to GPU thread counts.
	resident := float64(p.ReadWriteBytes + p.LocalBytes)
	cacheFit := 1.0
	if resident > 0 {
		cacheFit = math.Min(1, float64(a.CacheBytes)/resident)
	}
	reuse := cacheFit * cost.CacheReuse
	missIdx := (1 - locality*0.85) * (1 - reuse)
	missInd := 1 - reuse
	if missIdx < 0.01 {
		missIdx = 0.01
	}
	if missInd < 0.05 {
		missInd = 0.05
	}

	// Sequential (loop-indexed) misses amortize a 64 B line over ~16
	// 4 B elements; indirect misses waste the whole line.
	const lineBytes = 64
	seqLineMisses := float64(p.IndexedAccesses) * missIdx / 16
	randMisses := float64(p.IndirectAccesses) * missInd
	bytes := (seqLineMisses + randMisses) * lineBytes

	// Bandwidth-bound term: achievable bandwidth rises from the scalar-
	// gather floor toward peak with locality (and SIMD gather width on
	// multicores), and needs enough threads in flight.
	ceiling := cost.StreamCeiling
	if ceiling <= 0 {
		ceiling = 1
	}
	streamEff := cost.BWEffBase + (ceiling-cost.BWEffBase)*locality
	if a.Kind == KindMulticore && k.simd > 1 {
		// Vector gathers widen the request stream, but far less than
		// their lane count (each lane still misses independently).
		simdFrac := float64(k.simd) / float64(maxI(a.MaxSIMD, 1))
		streamEff = math.Min(ceiling, streamEff*(1+0.25*simdFrac*simdFill))
	}
	occupancy := math.Min(1, float64(threads)/cost.BWSaturationThreads)
	if occupancy < 0.05 {
		occupancy = 0.05
	}
	tBW := bytes / (a.MemBWGBs * 1e9 * streamEff * occupancy)

	// Latency-bound term: misses the prefetchers cannot cover stall the
	// thread contexts; total outstanding misses = threads x MLP.
	latMisses := randMisses + seqLineMisses*(1-cost.PrefetchEff)
	outstanding := float64(threads) * cost.MLP
	if outstanding < 1 {
		outstanding = 1
	}
	tLat := latMisses * cost.MissLatencyCycles / (a.FreqHz() * outstanding)

	// Remote-hit term: accesses that *hit* the aggregate cache but in a
	// remote slice still stall on the interconnect (the Phi's ring).
	// Loads pipeline, so remote hits enjoy extra memory-level
	// parallelism relative to true misses.
	if cost.RemoteHitCycles > 0 {
		rwShare := 0.0
		if total := float64(p.ReadOnlyBytes+p.ReadWriteBytes+p.LocalBytes) + 1; total > 1 {
			rwShare = float64(p.ReadWriteBytes) / total
		}
		residentHits := float64(p.Accesses()) * rwShare * reuse
		tLat += residentHits * cost.RemoteHitCycles / (a.FreqHz() * outstanding * 4)
	}

	tMem := math.Max(tBW, tLat)

	// Thread-oversubscription pressure: each live context keeps private
	// state resident; once the aggregate exceeds the cache, misses
	// climb. The effect saturates — real machines degrade tens of
	// percent at maximum threading (Fig 1), they do not fall off a
	// cliff.
	perThread := a.perThreadStateBytes(k)
	demand := float64(threads) * perThread
	if over := demand/float64(a.CacheBytes) - 1; over > 0 {
		pressure := 1 + cost.PressureCoef*over
		if pressure > 1.6 {
			pressure = 1.6
		}
		tMem *= pressure
	}
	return tMem
}

// perThreadStateBytes is the resident cache state per live thread context.
// Larger GPU work-groups (M20) pack more threads per core, raising
// per-core cache pressure — "spawning more threads raises stress on the
// GPU's already small cache system".
func (a *Accel) perThreadStateBytes(k *loopKnobs) float64 {
	if a.Kind == KindGPU {
		groupFrac := float64(k.local) / float64(maxI(a.MaxLocalThreads, 1))
		return 512 + 1536*groupFrac
	}
	return 16 << 10
}

// atomicContention estimates how concentrated the atomics are: many
// atomics landing on few shared cache lines within one temporal step
// serialize hard; atomics spread over the data and over the phase's
// dependency steps stay cheap.
func atomicContention(p *profile.Phase) float64 {
	lines := float64(p.ReadWriteBytes)/64 + 1
	steps := float64(p.ChainLength)
	if steps < 1 {
		steps = 1
	}
	perStep := float64(p.Atomics) / steps
	return clamp01(perStep / lines / 8)
}

// power returns the draw in watts for a deployment at the given
// utilization.
func (a *Accel) power(m *config.M, threads int, util float64) float64 {
	var coresFrac float64
	if a.Kind == KindGPU {
		coresFrac = math.Min(1, float64(threads)/float64(a.HWThreads()))
		// GPUs power all SMs once any work is resident.
		coresFrac = 0.4 + 0.6*coresFrac
	} else {
		coresFrac = float64(m.Cores) / float64(a.Cores)
	}
	dynamic := (a.TDPWatts - a.IdleWatts) * coresFrac * (0.45 + 0.55*util)
	return a.IdleWatts + dynamic
}

// chunking returns the chunk count and streaming multiplier for a dataset
// footprint against this accelerator's memory (Stinger-style streaming,
// Section II).
func (a *Accel) chunking(footprint int64) (int, float64) {
	if footprint <= 0 || footprint <= a.MemBytes {
		return 1, 1
	}
	chunks := int((footprint + a.MemBytes - 1) / a.MemBytes)
	return chunks, 1 + a.Cost.ChunkPenalty*float64(chunks-1)
}

// phaseAvgWork is the mean inner-loop work per outer item, the density
// proxy the paper ties GPU local threading to.
func phaseAvgWork(w *profile.Work) float64 {
	var v, e int64
	for i := range w.Phases {
		v += w.Phases[i].VertexOps
		e += w.Phases[i].EdgeOps
	}
	if v == 0 {
		return 0
	}
	return float64(e) / float64(v)
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
