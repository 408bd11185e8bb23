package machine_test

import (
	"math"
	"math/rand"
	"testing"

	"heteromap/internal/config"
	"heteromap/internal/conformance"
	"heteromap/internal/machine"
	"heteromap/internal/train"
)

// sweepJobs are the jobs the sweep prices in practice: the FastConfig
// database's samples (seeded as BuildDatabase seeds them), the oracle's
// grid points and the Table I analogs.
func sweepJobs(t *testing.T) []machine.Job {
	cfg := train.FastConfig()
	var jobs []machine.Job
	for i := 0; i < cfg.Samples; i++ {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(i)*7919))
		combo := train.Synthesize(train.RandomB(rng), train.RandomI(rng), rng)
		jobs = append(jobs, machine.Job{Work: combo.Work, FootprintBytes: combo.Footprint})
	}
	oracle := conformance.ShortOracleConfig()
	for _, p := range conformance.GridPoints(oracle.Seed, oracle.GridPoints) {
		jobs = append(jobs, p.Job)
	}
	tableI, err := conformance.TableIPoints(oracle.Seed+1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range tableI {
		jobs = append(jobs, p.Job)
	}
	return jobs
}

// outOfRange returns copies of grid candidates with knobs beyond the
// pair's limits, which Clamp repairs: each lands right after its base
// candidate, so some clamp back onto the base's loop knobs.
func outOfRange(cands []config.M) []config.M {
	var out []config.M
	for i := 0; i < len(cands); i += 37 {
		base := cands[i]
		out = append(out, base)
		m := base
		m.Cores, m.ThreadsPerCore, m.SIMDWidth = m.Cores*100, 0, -4
		m.GlobalThreads, m.LocalThreads = m.GlobalThreads*100, 1<<20
		m.ChunkSize, m.BlocktimeMS, m.SpinCount = 0, 1e6, -1
		m.PlaceCore, m.Affinity = math.NaN(), 7
		out = append(out, m)
		m = base
		m.Schedule = config.Schedule(9)
		m.MaxActiveLevels = 99
		out = append(out, m)
	}
	wrongSide := cands[0]
	wrongSide.Accelerator = config.Accel(2) // Select treats it as the multicore
	return append(out, wrongSide)
}

// TestSweepMatchesEvaluate checks that a Sweep prices every candidate
// with the exact bits Evaluate gives, on every pair, for the grid in
// order, reversed and shuffled (so that runs of equal loop knobs break)
// and for out-of-range candidates.
func TestSweepMatchesEvaluate(t *testing.T) {
	jobs := sweepJobs(t)
	rng := rand.New(rand.NewSource(1))
	for _, pair := range machine.AllPairs() {
		cands := config.Enumerate(pair.Limits())
		cands = append(cands, outOfRange(cands)...)
		n := len(cands)

		type ordering struct {
			name  string
			index []int // the sweep's i-th candidate is cands[index[i]]
			sweep *machine.Sweep
		}
		identity, reversed := make([]int, n), make([]int, n)
		for i := range identity {
			identity[i], reversed[i] = i, n-1-i
		}
		orders := []ordering{{"in order", identity, nil}, {"reversed", reversed, nil}, {"shuffled", rng.Perm(n), nil}}
		for k := range orders {
			list := make([]config.M, n)
			for i, j := range orders[k].index {
				list[i] = cands[j]
			}
			orders[k].sweep = machine.NewSweep(pair, list)
		}

		want := make([]machine.Cost, n)
		got := make([]machine.Cost, n)
		chunked := 0
		for ji, job := range jobs {
			if job.FootprintBytes > pair.GPU.MemBytes {
				chunked++
			}
			for i, m := range cands {
				rep := pair.Select(m.Accelerator).Evaluate(job, m)
				want[i] = machine.Cost{Seconds: rep.Seconds, EnergyJ: rep.EnergyJ}
			}
			for _, o := range orders {
				o.sweep.Price(job, got)
				for i, j := range o.index {
					if math.Float64bits(got[i].Seconds) != math.Float64bits(want[j].Seconds) ||
						math.Float64bits(got[i].EnergyJ) != math.Float64bits(want[j].EnergyJ) {
						t.Fatalf("%s, %s, job %d, candidate %v: sweep %+v, Evaluate %+v",
							pair.Name(), o.name, ji, cands[j], got[i], want[j])
					}
				}
			}
		}
		if chunked == 0 {
			t.Fatalf("%s: no job streams in chunks, so finish's chunking went unchecked", pair.Name())
		}
	}
}
