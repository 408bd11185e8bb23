// Package tune implements the offline auto-tuning machinery the paper
// delegates to OpenTuner: given an evaluation function over machine
// configurations, it finds low-cost configurations by exhaustive sweep
// (the "ideal" baseline that "manually optimizes by running all possible
// configurations"), random search, hill climbing, or an OpenTuner-style
// ensemble that mixes the techniques. An exhaustive sweep over the
// machine model's cost runs faster through train.Sweep, which returns
// the same Result.
package tune

import (
	"math/rand"

	"heteromap/internal/config"
)

// EvalFunc scores one configuration; lower is better.
type EvalFunc func(m config.M) float64

// Result is the outcome of a tuning run.
type Result struct {
	Best  config.M
	Score float64
	Evals int
}

// ExhaustiveSerial evaluates every candidate in order and returns the
// best. Ties resolve to the earliest candidate, keeping sweeps
// deterministic.
func ExhaustiveSerial(cands []config.M, eval EvalFunc) Result {
	if len(cands) == 0 {
		return Result{}
	}
	best := 0
	bestScore := eval(cands[0])
	for i := 1; i < len(cands); i++ {
		if s := eval(cands[i]); s < bestScore {
			best, bestScore = i, s
		}
	}
	return Result{Best: cands[best], Score: bestScore, Evals: len(cands)}
}

// Random samples n random configurations within the limits (half GPU,
// half multicore) and returns the best.
func Random(limits config.Limits, n int, seed int64, eval EvalFunc) Result {
	rng := rand.New(rand.NewSource(seed))
	cands := make([]config.M, 0, n)
	for i := 0; i < n; i++ {
		cands = append(cands, randomM(limits, rng))
	}
	r := ExhaustiveSerial(cands, eval)
	r.Evals = n
	return r
}

// randomM draws a uniformly random normalized vector and decodes it.
func randomM(limits config.Limits, rng *rand.Rand) config.M {
	var v [config.NumVariables]float64
	for i := range v {
		v[i] = rng.Float64()
	}
	return config.FromNormalized(v, limits)
}

// HillClimb starts from a configuration and greedily perturbs one
// normalized dimension at a time (±step) until no single move improves,
// or the evaluation budget is exhausted.
func HillClimb(limits config.Limits, start config.M, budget int, eval EvalFunc) Result {
	cur := start.Clamp(limits)
	curScore := eval(cur)
	evals := 1
	step := 0.125
	for evals < budget {
		improved := false
		v := cur.Normalize(limits)
		for dim := 0; dim < config.NumVariables && evals < budget; dim++ {
			for _, dir := range []float64{+step, -step} {
				if evals >= budget {
					break
				}
				cand := v
				cand[dim] += dir
				if cand[dim] < 0 || cand[dim] > 1 {
					continue
				}
				m := config.FromNormalized(cand, limits)
				s := eval(m)
				evals++
				if s < curScore {
					cur, curScore, v = m, s, cand
					improved = true
				}
			}
		}
		if !improved {
			if step <= 0.03 {
				break
			}
			step /= 2
		}
	}
	return Result{Best: cur, Score: curScore, Evals: evals}
}

// Ensemble is the OpenTuner-style search used to build the offline
// training database: seed with the coarse grids, add random exploration,
// then refine the incumbent with hill climbing.
func Ensemble(limits config.Limits, seed int64, eval EvalFunc) Result {
	grid := ExhaustiveSerial(config.Enumerate(limits), eval)
	rnd := Random(limits, 64, seed, eval)
	best := grid
	if rnd.Score < best.Score {
		best = rnd
	}
	refined := HillClimb(limits, best.Best, 256, eval)
	refined.Evals += grid.Evals + rnd.Evals
	if refined.Score > best.Score {
		refined.Best, refined.Score = best.Best, best.Score
	}
	return refined
}
