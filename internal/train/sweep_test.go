package train

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"heteromap/internal/config"
	"heteromap/internal/machine"
)

// ExhaustiveSerial evaluates every candidate in order and returns the
// best. Ties resolve to the earliest candidate, keeping sweeps
// deterministic. It is the reference Sweep.Best is held to.
func ExhaustiveSerial(cands []config.M, eval func(config.M) float64) Result {
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

func testLimits() config.Limits {
	return config.Limits{
		MaxCores: 61, MaxThreadsPerCore: 4, MaxSIMD: 16,
		MaxGlobalThreads: 8192, MaxLocalThreads: 256,
	}
}

// quadratic scores configurations by distance of their normalized vector
// from a fixed optimum; it is smooth, deterministic and has one minimum.
func quadratic(l config.Limits) func(config.M) float64 {
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

func TestExhaustiveFindsGridMinimum(t *testing.T) {
	l := testLimits()
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
	cands := config.Enumerate(testLimits())
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

// TestSweepBestMatchesExhaustiveSerial checks that Sweep.Best returns
// what ExhaustiveSerial over Metric returns, under both objectives, and
// that the earliest of equal costs wins: the grid is doubled with twins
// that differ only in MaxActiveLevels, a knob the cost model never
// reads, so every twin ties its original.
func TestSweepBestMatchesExhaustiveSerial(t *testing.T) {
	for _, pair := range []machine.Pair{machine.PrimaryPair(), machine.CPU40Pair()} {
		var cands []config.M
		for _, m := range config.Enumerate(pair.Limits()) {
			twin := m
			twin.MaxActiveLevels = 2
			cands = append(cands, twin, m)
		}
		for _, obj := range []Objective{Performance, Energy} {
			sweep := NewSweep(pair, obj, cands)
			costs := make([]machine.Cost, sweep.Len())
			for i := 0; i < 32; i++ {
				rng := rand.New(rand.NewSource(int64(i)))
				combo := Synthesize(RandomB(rng), RandomI(rng), rng)
				job := machine.Job{Work: combo.Work, FootprintBytes: combo.Footprint}
				want := ExhaustiveSerial(cands, func(m config.M) float64 {
					return Metric(pair, obj, job, m)
				})
				if got := sweep.Best(job, costs); got != want {
					t.Fatalf("%s, %s, job %d: Best %+v, ExhaustiveSerial %+v", pair.Name(), obj, i, got, want)
				}
				if want.Best.MaxActiveLevels != 2 {
					t.Fatalf("%s, %s, job %d: a later twin won a tie", pair.Name(), obj, i)
				}
			}
		}
	}
	if got := NewSweep(machine.PrimaryPair(), Performance, nil).Best(machine.Job{}, nil); got != (Result{}) {
		t.Fatalf("empty sweep: %+v", got)
	}
}

// TestSweepEachVisitsEveryIndexOnce checks the fan-out BuildDatabase and
// the oracle share: every index in [0, n) is passed exactly once, on at
// most min(GOMAXPROCS, n) goroutines, each with its own Len()-long costs
// slice. GOMAXPROCS is 4 here, so n runs from none through one and fewer
// indices than goroutines to more.
func TestSweepEachVisitsEveryIndexOnce(t *testing.T) {
	const procs = 4
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	sweep := NewSweep(machine.PrimaryPair(), Performance, config.Enumerate(machine.PrimaryPair().Limits()))
	for _, n := range []int{0, 1, procs - 1, 3*procs + 5} {
		visits := make([]atomic.Int32, n)
		var slices sync.Map
		var calls atomic.Int32
		sweep.Each(n, func(i int, costs []machine.Cost) {
			calls.Add(1)
			visits[i].Add(1)
			if len(costs) != sweep.Len() {
				t.Errorf("n=%d: costs has %d entries, want %d", n, len(costs), sweep.Len())
				return
			}
			slices.Store(&costs[0], true)
		})
		if int(calls.Load()) != n {
			t.Fatalf("n=%d: %d calls", n, calls.Load())
		}
		for i := range visits {
			if v := visits[i].Load(); v != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, v)
			}
		}
		distinct := 0
		slices.Range(func(any, any) bool { distinct++; return true })
		if distinct > min(procs, n) {
			t.Fatalf("n=%d: %d costs slices, want at most min(GOMAXPROCS=%d, n)", n, distinct, procs)
		}
	}
}
