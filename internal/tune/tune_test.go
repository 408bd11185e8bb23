package tune

import (
	"math"
	"sync/atomic"
	"testing"

	"heteromap/internal/config"
	"heteromap/internal/machine"
)

func limits() config.Limits {
	return config.Limits{
		MaxCores: 61, MaxThreadsPerCore: 4, MaxSIMD: 16,
		MaxGlobalThreads: 8192, MaxLocalThreads: 256,
	}
}

// quadratic scores configurations by distance of their normalized vector
// from a fixed optimum; it is smooth, deterministic and has one minimum.
func quadratic(l config.Limits) EvalFunc {
	var target [config.NumVariables]float64
	for i := range target {
		target[i] = 0.5
	}
	return func(m config.M) float64 {
		v := m.Normalize(l)
		sum := 0.0
		for i := range v {
			d := v[i] - target[i]
			sum += d * d
		}
		return sum
	}
}

// seededEval is a deterministic cost function that depends on every M
// variable, so index mix-ups cannot cancel out.
func seededEval(m config.M, limits config.Limits) float64 {
	v := m.Normalize(limits)
	s := 0.0
	for i, x := range v {
		s += x * float64(i+1) * 0.731
	}
	return s
}

func TestExhaustiveFindsGridMinimum(t *testing.T) {
	l := limits()
	eval := quadratic(l)
	cands := config.Enumerate(l)
	res := ExhaustiveSerial(cands, eval)
	if res.Evals != len(cands) {
		t.Fatalf("evals=%d want %d", res.Evals, len(cands))
	}
	for _, c := range cands {
		if eval(c) < res.Score {
			t.Fatalf("exhaustive missed a better candidate")
		}
	}
}

// Ties resolve to the earliest candidate: the property that keeps
// sweeps deterministic.
func TestExhaustiveDeterministicTieBreak(t *testing.T) {
	cands := config.Enumerate(limits())
	constant := func(config.M) float64 { return 1 }
	res := ExhaustiveSerial(cands, constant)
	if res.Best != cands[0] {
		t.Fatal("ties must resolve to the earliest candidate")
	}
}

// On the primary pair's grid, an all-equal cost picks candidate 0 and a
// minimum shared by several candidates picks the first of them.
func TestExhaustiveTieBreaksEarliest(t *testing.T) {
	cands := config.Enumerate(machine.PrimaryPair().Limits())[:64]
	constEval := func(config.M) float64 { return 1 }
	if s := ExhaustiveSerial(cands, constEval); s.Best != cands[0] {
		t.Fatalf("constant cost broke to %+v, want candidate 0", s.Best)
	}
	minima := map[config.M]bool{cands[7]: true, cands[20]: true, cands[63]: true}
	if len(minima) != 3 {
		t.Fatal("grid prefix has duplicate candidates")
	}
	laterTie := func(m config.M) float64 {
		if minima[m] {
			return 0
		}
		return 1
	}
	if s := ExhaustiveSerial(cands, laterTie); s.Best != cands[7] || s.Score != 0 {
		t.Fatalf("shared minimum broke to %+v (score %v), want candidate 7", s.Best, s.Score)
	}
}

func TestExhaustiveEmpty(t *testing.T) {
	res := ExhaustiveSerial(nil, func(config.M) float64 { return 0 })
	if res.Evals != 0 {
		t.Fatal("empty candidate list")
	}
}

func TestRandomRespectsBudgetAndSeed(t *testing.T) {
	l := limits()
	eval := quadratic(l)
	a := Random(l, 50, 7, eval)
	b := Random(l, 50, 7, eval)
	if a.Score != b.Score {
		t.Fatal("same seed, different result")
	}
	if a.Evals != 50 {
		t.Fatalf("evals=%d", a.Evals)
	}
}

func TestHillClimbImproves(t *testing.T) {
	l := limits()
	eval := quadratic(l)
	start := config.DefaultMulticore(l) // far from the 0.5-vector optimum
	startScore := eval(start)
	res := HillClimb(l, start, 400, eval)
	if res.Score >= startScore {
		t.Fatalf("hill climb did not improve: %v -> %v", startScore, res.Score)
	}
	if res.Evals > 400 {
		t.Fatalf("budget exceeded: %d", res.Evals)
	}
}

func TestHillClimbRespectsBudget(t *testing.T) {
	l := limits()
	var calls atomic.Int64
	eval := func(m config.M) float64 {
		calls.Add(1)
		return quadratic(l)(m)
	}
	HillClimb(l, config.DefaultGPU(l), 25, eval)
	if calls.Load() > 25 {
		t.Fatalf("eval calls %d exceed budget 25", calls.Load())
	}
}

func TestEnsembleAtLeastAsGoodAsGrid(t *testing.T) {
	l := limits()
	eval := quadratic(l)
	grid := ExhaustiveSerial(config.Enumerate(l), eval)
	ens := Ensemble(l, 3, eval)
	if ens.Score > grid.Score+1e-12 {
		t.Fatalf("ensemble (%v) worse than plain grid (%v)", ens.Score, grid.Score)
	}
}

func TestEnsembleDeterministic(t *testing.T) {
	l := limits()
	eval := quadratic(l)
	a := Ensemble(l, 11, eval)
	b := Ensemble(l, 11, eval)
	if math.Abs(a.Score-b.Score) > 1e-15 {
		t.Fatal("ensemble not deterministic for a fixed seed")
	}
}

// Random and Ensemble stay deterministic for a fixed seed — a property
// the training database build depends on.
func TestSearchDeterministicPerSeed(t *testing.T) {
	l := limits()
	eval := func(m config.M) float64 { return seededEval(m, l) }
	if a, b := Random(l, 50, 9, eval), Random(l, 50, 9, eval); a != b {
		t.Fatalf("Random diverged for one seed: %+v vs %+v", a, b)
	}
	if a, b := Ensemble(l, 9, eval), Ensemble(l, 9, eval); a != b {
		t.Fatalf("Ensemble diverged for one seed: %+v vs %+v", a, b)
	}
}
