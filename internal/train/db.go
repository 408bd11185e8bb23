package train

import (
	"math/rand"
	"runtime"
	"sync"

	"heteromap/internal/config"
	"heteromap/internal/machine"
	"heteromap/internal/predict"
	"heteromap/internal/tune"
)

// Objective selects what the offline search (and thus the trained
// learners) optimize — the paper trains HeteroMap "also ... for the
// energy objective".
type Objective int

const (
	// Performance minimizes completion time.
	Performance Objective = iota
	// Energy minimizes energy.
	Energy
)

// String implements fmt.Stringer.
func (o Objective) String() string {
	if o == Energy {
		return "energy"
	}
	return "performance"
}

// Config sizes the offline training run.
type Config struct {
	// Samples is the number of synthetic benchmark-input combinations.
	Samples int
	// Seed fixes combination sampling.
	Seed int64
	// Objective selects time or energy minimization.
	Objective Objective
	// Workers bounds parallel tuning (default GOMAXPROCS).
	Workers int
}

// FastConfig returns a configuration sized for unit tests.
func FastConfig() Config { return Config{Samples: 300, Seed: 42} }

// DefaultConfig returns the configuration used by the experiment harness:
// large enough for the Table IV learner ordering to be stable, small
// enough to rebuild in seconds. (The paper generates millions of samples
// over hours of accelerator time; the simulator makes sampling cheap but
// the learners converge long before that.)
func DefaultConfig() Config { return Config{Samples: 3000, Seed: 42} }

// DB is the offline profiler database of Section V: (B, I) tuples mapped
// to their best-performing M vectors on one accelerator pair.
type DB struct {
	Pair      machine.Pair
	Limits    config.Limits
	Objective Objective
	Samples   []predict.Sample
}

// Metric evaluates one M configuration for a job on the pair under an
// objective.
func Metric(pair machine.Pair, objective Objective, job machine.Job, m config.M) float64 {
	rep := pair.Select(m.Accelerator).Evaluate(job, m)
	if objective == Energy {
		return rep.EnergyJ
	}
	return rep.Seconds
}

// Sweep is the exhaustive search over a fixed candidate list under one
// objective: machine.Sweep prices every candidate, and the cheapest
// wins. Its result is tune.ExhaustiveSerial's over Metric, bit for bit,
// with the earliest of equal costs winning. A Sweep is safe for
// concurrent use.
type Sweep struct {
	cands     []config.M
	objective Objective
	prices    *machine.Sweep
}

// NewSweep prepares cands for pricing on pair under objective.
func NewSweep(pair machine.Pair, objective Objective, cands []config.M) *Sweep {
	return &Sweep{cands: cands, objective: objective, prices: machine.NewSweep(pair, cands)}
}

// Len returns the number of candidates.
func (s *Sweep) Len() int { return len(s.cands) }

// Best prices job under every candidate and returns the cheapest under
// the objective. costs receives each candidate's price; a worker passes
// the same Len()-long slice for every job, and nil allocates one.
func (s *Sweep) Best(job machine.Job, costs []machine.Cost) tune.Result {
	if len(s.cands) == 0 {
		return tune.Result{}
	}
	if len(costs) < len(s.cands) {
		costs = make([]machine.Cost, len(s.cands))
	}
	s.prices.Price(job, costs)
	best, bestCost := 0, s.cost(costs[0])
	for i := 1; i < len(s.cands); i++ {
		if c := s.cost(costs[i]); c < bestCost {
			best, bestCost = i, c
		}
	}
	return tune.Result{Best: s.cands[best], Score: bestCost, Evals: len(s.cands)}
}

func (s *Sweep) cost(c machine.Cost) float64 {
	if s.objective == Energy {
		return c.EnergyJ
	}
	return c.Seconds
}

// BuildDatabase generates cfg.Samples synthetic combinations, finds each
// one's best M over the coarse sweep grid (grid search matches what the
// learners can usefully absorb; tune.Ensemble refines further when the
// caller needs the ideal reference), and returns the training database.
//
// The result is a pure function of (pair, cfg): each sample's RNG is
// seeded from its index, so cfg.Workers changes only how fast the
// database builds, never its contents. Tests pin this contract.
func BuildDatabase(pair machine.Pair, cfg Config) *DB {
	if cfg.Samples <= 0 {
		cfg.Samples = DefaultConfig().Samples
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	limits := pair.Limits()
	sweep := NewSweep(pair, cfg.Objective, config.Enumerate(limits))

	db := &DB{Pair: pair, Limits: limits, Objective: cfg.Objective}
	db.Samples = make([]predict.Sample, cfg.Samples)

	var wg sync.WaitGroup
	var next int
	var mu sync.Mutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			costs := make([]machine.Cost, sweep.Len())
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= cfg.Samples {
					return
				}
				rng := rand.New(rand.NewSource(cfg.Seed + int64(i)*7919))
				combo := Synthesize(RandomB(rng), RandomI(rng), rng)
				job := machine.Job{Work: combo.Work, FootprintBytes: combo.Footprint}
				best := sweep.Best(job, costs)
				db.Samples[i] = predict.Sample{
					Features: combo.Features,
					Target:   best.Best.Normalize(limits),
				}
			}
		}()
	}
	wg.Wait()
	return db
}

// Split partitions the database into train and holdout sets (holdoutFrac
// of the samples, at least one when possible).
func (db *DB) Split(holdoutFrac float64, seed int64) (train, holdout []predict.Sample) {
	n := len(db.Samples)
	if n == 0 {
		return nil, nil
	}
	idx := rand.New(rand.NewSource(seed)).Perm(n)
	h := int(float64(n) * holdoutFrac)
	if h < 1 && n > 1 {
		h = 1
	}
	holdout = make([]predict.Sample, 0, h)
	train = make([]predict.Sample, 0, n-h)
	for i, j := range idx {
		if i < h {
			holdout = append(holdout, db.Samples[j])
		} else {
			train = append(train, db.Samples[j])
		}
	}
	return train, holdout
}
