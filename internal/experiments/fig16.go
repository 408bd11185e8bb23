package experiments

import (
	"fmt"

	"heteromap/internal/core"
	"heteromap/internal/machine"
	"heteromap/internal/stats"
)

// Fig16Point is one memory-size combination of a sweep: geomean
// completion times (across all benchmark-input combinations) normalized
// to the sweep's maximum, for each accelerator alone and for the
// best-of-pair selection HeteroMap can reach.
type Fig16Point struct {
	GPUMemGB, MCMemGB int64
	GPUOnly           float64
	MCOnly            float64
	BestOfPair        float64
}

// Fig16Sweep is the grid for one accelerator pairing.
type Fig16Sweep struct {
	Pair   string
	Points []Fig16Point
	// MCGainPct is how much the multicore improves from its smallest to
	// largest memory (the paper: the Phi "performs better when exposed
	// to its full main memory", 15-30% vs the GPUs).
	MCGainPct float64
}

// Fig16Result reproduces Fig 16: memory-size sensitivity for the
// GPU-Xeon-Phi and GPU-CPU40 systems.
type Fig16Result struct {
	Sweeps []Fig16Sweep
}

const gb = int64(1) << 30

// Fig16 sweeps attached memory sizes. The machine model's streaming chunk
// count (Accel.chunking) reacts to the memory size, so graphs larger than
// memory benefit directly from bigger memories.
func Fig16(c *Context) (Fig16Result, error) {
	ws, err := c.Workloads()
	if err != nil {
		return Fig16Result{}, err
	}

	type sweepSpec struct {
		pair   machine.Pair
		gpuMem []int64
		mcMem  []int64
	}
	specs := []sweepSpec{
		{pair: machine.PrimaryPair(), gpuMem: []int64{1, 2}, mcMem: []int64{1, 2, 4, 8, 16}},
		{pair: machine.CPU40Pair(), gpuMem: []int64{1, 2}, mcMem: []int64{2, 8, 16, 64}},
	}

	var res Fig16Result
	for _, spec := range specs {
		sweep := Fig16Sweep{Pair: spec.pair.Name()}
		var raw []Fig16Point
		maxVal := 0.0
		for _, gm := range spec.gpuMem {
			for _, mm := range spec.mcMem {
				pair := machine.Pair{
					GPU:       spec.pair.GPU.WithMemory(gm * gb),
					Multicore: spec.pair.Multicore.WithMemory(mm * gb),
				}
				var g, m, best []float64
				for _, w := range ws {
					bl := core.ComputeBaselines(pair, w, core.Performance)
					g = append(g, bl.GPUOnly.Seconds)
					m = append(m, bl.MulticoreOnly.Seconds)
					best = append(best, bl.Ideal.Seconds)
				}
				p := Fig16Point{
					GPUMemGB: gm, MCMemGB: mm,
					GPUOnly:    stats.MustGeomean(g),
					MCOnly:     stats.MustGeomean(m),
					BestOfPair: stats.MustGeomean(best),
				}
				for _, v := range []float64{p.GPUOnly, p.MCOnly} {
					if v > maxVal {
						maxVal = v
					}
				}
				raw = append(raw, p)
			}
		}
		if maxVal <= 0 {
			maxVal = 1
		}
		for _, p := range raw {
			p.GPUOnly /= maxVal
			p.MCOnly /= maxVal
			p.BestOfPair /= maxVal
			sweep.Points = append(sweep.Points, p)
		}
		// Multicore improvement from smallest to largest memory at the
		// largest GPU memory setting.
		var first, last float64
		for _, p := range sweep.Points {
			if p.GPUMemGB == spec.gpuMem[len(spec.gpuMem)-1] {
				if first == 0 {
					first = p.MCOnly
				}
				last = p.MCOnly
			}
		}
		if last > 0 {
			sweep.MCGainPct = (first/last - 1) * 100
		}
		res.Sweeps = append(res.Sweeps, sweep)
	}
	return res, nil
}

// String renders both sweeps.
func (r Fig16Result) String() string {
	out := ""
	for _, sweep := range r.Sweeps {
		t := newTable(
			fmt.Sprintf("Fig 16: memory-size sensitivity (%s), normalized to sweep max", sweep.Pair),
			"GPU mem", "MC mem", "GPU-only", "MC-only", "best-of-pair")
		for _, p := range sweep.Points {
			t.add(fmt.Sprintf("%dGB", p.GPUMemGB), fmt.Sprintf("%dGB", p.MCMemGB),
				f3(p.GPUOnly), f3(p.MCOnly), f3(p.BestOfPair))
		}
		t.addf("multicore gain from full memory: %.1f%%", sweep.MCGainPct)
		out += t.String() + "\n"
	}
	return out
}
