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
	candidates := config.Enumerate(limits)

	db := &DB{Pair: pair, Limits: limits, Objective: cfg.Objective}
	db.Samples = make([]predict.Sample, cfg.Samples)

	var wg sync.WaitGroup
	var next int
	var mu sync.Mutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
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
				best := tune.ExhaustiveSerial(candidates, func(m config.M) float64 {
					return Metric(pair, cfg.Objective, job, m)
				})
				db.Samples[i] = predict.Sample{
					Features: combo.Features,
					Target:   best.Best.Normalize(limits),
				}
			}
		}(w)
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
