package train

import (
	"math/rand"
	"testing"

	"heteromap/internal/config"
	"heteromap/internal/machine"
	"heteromap/internal/tune"
)

// TestSweepBestMatchesExhaustiveSerial checks that Sweep.Best returns
// what tune.ExhaustiveSerial over Metric returns, under both objectives,
// and that the earliest of equal costs wins: the grid is doubled with
// twins that differ only in MaxActiveLevels, a knob the cost model never
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
				want := tune.ExhaustiveSerial(cands, func(m config.M) float64 {
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
	if got := NewSweep(machine.PrimaryPair(), Performance, nil).Best(machine.Job{}, nil); got != (tune.Result{}) {
		t.Fatalf("empty sweep: %+v", got)
	}
}
