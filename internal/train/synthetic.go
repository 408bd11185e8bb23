// Package train builds HeteroMap's offline training database (Section V):
// it synthesizes benchmark-input combinations over the (B, I) space — the
// paper's generated micro-benchmarks (Fig 9) running uniform-random and
// Kronecker graph sweeps (Table III) — finds the best-performing M vector
// for each combination with an exhaustive sweep of the coarse M grid
// (Sweep), and trains the learners on the resulting (B, I) -> M samples.
package train

import (
	"math/rand"

	"heteromap/internal/feature"
	"heteromap/internal/profile"
	"heteromap/internal/stats"
)

// SyntheticCombo is one generated benchmark-input combination: its
// characterization, the materialized work profile the simulator executes,
// and the dataset footprint for the streaming model.
type SyntheticCombo struct {
	Features  feature.Vector
	Work      *profile.Work
	Footprint int64
}

// RandomB draws a valid benchmark characterization. Half the samples are
// fully random phase mixes (one to three phases, as in the Fig 9
// examples, with the paper's structural couplings: push-pop implies some
// contention, data-movement shares bounded to a budget); the other half
// are perturbations of the real benchmark archetypes — the paper's
// generated micro-benchmarks follow the same generic V-E loop
// formulation as the real workloads, so the synthetic space covers their
// neighbourhood densely.
func RandomB(rng *rand.Rand) feature.BVector {
	if rng.Intn(2) == 0 {
		return perturbedArchetype(rng)
	}
	return randomMixB(rng)
}

// archetypeNames lists the real benchmarks whose neighbourhoods the
// synthetic sweep densifies.
var archetypeNames = []string{
	"SSSP-BF", "SSSP-Delta", "BFS", "DFS", "PageRank", "PageRank-DP",
	"Tri.Cnt", "Comm", "Conn.Comp",
}

func perturbedArchetype(rng *rand.Rand) feature.BVector {
	b, err := feature.Catalog(archetypeNames[rng.Intn(len(archetypeNames))])
	if err != nil {
		// The catalog covers every archetype name; fall back defensively.
		return randomMixB(rng)
	}
	// Jitter the non-phase variables by one discretization step.
	for i := feature.BFloatingPoint; i < feature.NumB; i++ {
		b[i] = stats.Clamp(b[i]+float64(rng.Intn(3)-1)/10, 0, 1)
	}
	// Occasionally shift one phase share to a neighbour kind.
	if rng.Intn(2) == 0 {
		from := rng.Intn(5)
		to := rng.Intn(5)
		if b[from] >= 0.1 && from != to {
			b[from] -= 0.1
			b[to] += 0.1
		}
	}
	// Preserve the structural coupling: push-pop ordering always carries
	// contention pressure.
	if b[feature.BPushPop] > 0 && b[feature.BContention] < 0.2 {
		b[feature.BContention] = 0.2
	}
	return b
}

func randomMixB(rng *rand.Rand) feature.BVector {
	var b feature.BVector

	// Phase mix: pick 1-3 of the five kinds and split the program.
	kinds := rng.Perm(5)
	nPhases := 1 + rng.Intn(3)
	remaining := 10 // tenths
	for i := 0; i < nPhases; i++ {
		share := remaining
		if i < nPhases-1 {
			if remaining > 1 {
				share = 1 + rng.Intn(remaining-1)
			}
		}
		b[kinds[i]] += float64(share) / 10
		remaining -= share
		if remaining <= 0 {
			break
		}
	}
	if remaining > 0 {
		b[kinds[0]] += float64(remaining) / 10
	}

	tenth := func(max int) float64 { return float64(rng.Intn(max+1)) / 10 }

	b[feature.BFloatingPoint] = tenth(10)
	// Addressing split: loop-indexed plus indirect bounded to ~1.
	idx := rng.Intn(9)
	b[feature.BDataAddressing] = float64(idx) / 10
	b[feature.BIndirect] = tenth(9 - idx)
	// Data-movement classes sum to about 1.
	ro := rng.Intn(8)
	rw := rng.Intn(10 - ro)
	b[feature.BReadOnly] = float64(ro) / 10
	b[feature.BReadWrite] = float64(rw) / 10
	b[feature.BLocal] = float64(10-ro-rw) / 10 * float64(rng.Intn(2))
	b[feature.BContention] = tenth(8)
	// Push-pop phases always carry some contention/ordering pressure.
	if b[feature.BPushPop] > 0 && b[feature.BContention] < 0.2 {
		b[feature.BContention] = 0.2
	}
	b[feature.BBarriers] = tenth(6)
	return b
}

// realIVectors are the Fig 4 characterizations of the Table I datasets;
// the synthetic input sweep densifies their neighbourhood alongside the
// uniform Table III coverage.
var realIVectors = []feature.IVector{
	{0.1, 0.1, 0.0, 0.8}, // CA
	{0.2, 0.4, 0.7, 0.0}, // FB
	{0.3, 0.4, 0.6, 0.1}, // LJ
	{0.7, 0.8, 1.0, 0.0}, // Twtr
	{0.8, 0.8, 0.5, 0.2}, // Frnd
	{0.0, 0.0, 0.4, 0.0}, // CO
	{0.1, 0.3, 0.2, 0.0}, // CAGE
	{0.5, 0.6, 0.1, 1.0}, // Rgg
	{0.9, 0.8, 0.8, 0.0}, // Kron
}

// RandomI draws an input characterization from the Table III synthetic
// sweep ranges (16-65M vertices, 16-2B edges, degrees 1-32K), extended
// across the full diameter axis so the trained models also cover
// road-network-like inputs; half the samples perturb a real dataset's
// characterization.
func RandomI(rng *rand.Rand) feature.IVector {
	tenth := func(lo, hi int) float64 { return float64(lo+rng.Intn(hi-lo+1)) / 10 }
	var iv feature.IVector
	if rng.Intn(2) == 0 {
		iv = realIVectors[rng.Intn(len(realIVectors))]
		for i := range iv {
			iv[i] = stats.Clamp(iv[i]+float64(rng.Intn(3)-1)/10, 0, 1)
		}
	} else {
		iv = feature.IVector{
			tenth(0, 10), // I1 vertex count
			tenth(0, 10), // I2 edge count
			tenth(0, 10), // I3 max degree
			tenth(0, 10), // I4 diameter
		}
	}
	// Keep edge count loosely consistent with vertex count (at least one
	// edge per vertex, at most max-degree-bounded).
	if iv[1] < iv[0]-0.3 {
		iv[1] = iv[0] - 0.3
	}
	if iv[1] > iv[0]+0.4 {
		iv[1] = iv[0] + 0.4
	}
	iv[1] = stats.Discretize(iv[1], 0.1)
	return iv
}

// Synthesize materializes a work profile for a (B, I) characterization —
// the executable form of the paper's generated micro-benchmarks. The
// profile's magnitudes come from inverting the I normalization; its phase
// structure, arithmetic mix, data-movement classes and synchronization
// come from the B values, mirroring how Fig 9's pseudo-benchmarks map to
// B settings.
func Synthesize(b feature.BVector, iv feature.IVector, rng *rand.Rand) SyntheticCombo {
	v, e, maxDeg, dia := feature.InvertI(iv)

	// Convergence iterations follow the dependency structure; cap to
	// keep magnitudes within the real benchmarks' envelope.
	iters := int64(1 + dia/4)
	if iters > 256 {
		iters = 256
	}

	w := &profile.Work{
		Benchmark:  "synthetic",
		Graph:      "synthetic",
		Iterations: iters,
		Barriers:   int64(b[feature.BBarriers]*10) * iters,
		// Locality is a structural property the characterization only
		// partially captures: high-diameter graphs (roads, meshes) are
		// spatially regular, hub-heavy graphs are not; the residual is
		// genuine unmodeled variance that caps learner accuracy, exactly
		// as real graphs do.
		Locality: stats.Clamp(0.1+0.7*iv[3]+(0.15+0.55*(1-iv[3]))*rng.Float64()-0.2*iv[2], 0, 1),
		Skew:     stats.Clamp(iv[2]*1.5*rng.Float64()+iv[2]*0.5, 0, 3),
	}
	_ = maxDeg

	totalData := float64(e*4 + v*16)
	phaseKinds := []profile.PhaseKind{
		profile.VertexDivision, profile.Pareto, profile.ParetoDynamic,
		profile.PushPop, profile.Reduction,
	}
	for i, kind := range phaseKinds {
		share := b[i]
		if share <= 0 {
			continue
		}
		edgeOps := int64(float64(e) * share * float64(iters))
		vertexOps := int64(float64(v) * share * float64(iters))
		accesses := edgeOps * 2
		p := profile.Phase{
			Kind:             kind,
			Name:             kind.String(),
			VertexOps:        vertexOps,
			EdgeOps:          edgeOps,
			IntOps:           int64(float64(edgeOps) * (1 - b[feature.BFloatingPoint])),
			FPOps:            int64(float64(edgeOps) * b[feature.BFloatingPoint]),
			IndexedAccesses:  int64(float64(accesses) * b[feature.BDataAddressing]),
			IndirectAccesses: int64(float64(accesses) * b[feature.BIndirect]),
			ReadOnlyBytes:    int64(totalData * b[feature.BReadOnly] * share),
			ReadWriteBytes:   int64(totalData * b[feature.BReadWrite] * share),
			LocalBytes:       int64(totalData * b[feature.BLocal] * share),
			Atomics:          int64(float64(edgeOps) * b[feature.BContention] / 20),
		}
		switch kind {
		case profile.ParetoDynamic:
			p.ChainLength = dia * iters
			p.ParallelItems = v / maxI64(dia, 1)
		case profile.PushPop:
			p.ChainLength = dia * iters
			p.ParallelItems = maxI64(v/maxI64(dia, 1)/4, 1)
			p.PushPops = vertexOps * 2
		case profile.Reduction:
			p.ChainLength = iters
			p.ParallelItems = v
			p.Atomics += vertexOps / 16
		default:
			p.ChainLength = iters
			p.ParallelItems = v
		}
		w.Phases = append(w.Phases, p)
	}
	if len(w.Phases) == 0 {
		// Degenerate phase mix: fall back to pure vertex division.
		w.Phases = append(w.Phases, profile.Phase{
			Kind: profile.VertexDivision, Name: "vertex-division",
			VertexOps: v, EdgeOps: e, IndexedAccesses: e * 2,
			ReadOnlyBytes: int64(totalData / 2), ReadWriteBytes: int64(totalData / 2),
			ChainLength: 1, ParallelItems: v,
		})
	}

	footprint := v*8 + e*8
	return SyntheticCombo{
		Features:  feature.Combine(b, iv),
		Work:      w,
		Footprint: footprint,
	}
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
