// Package experiments regenerates every table and figure of the paper's
// evaluation (Section VII): Table I-IV and Figures 1, 4-5, 7, 11-16. Each
// experiment is a function returning a typed result with a String()
// rendering; cmd/hmexp exposes them on the command line and the
// repository-root benchmarks wrap them as testing.B targets.
package experiments

import (
	"sync"

	"heteromap/internal/algo"
	"heteromap/internal/config"
	"heteromap/internal/core"
	"heteromap/internal/gen"
	"heteromap/internal/machine"
	"heteromap/internal/predict"
	"heteromap/internal/predict/adaptive"
	"heteromap/internal/predict/dtree"
	"heteromap/internal/predict/nn"
	"heteromap/internal/predict/regress"
	"heteromap/internal/train"
)

// Context caches the expensive shared state of the experiment suite:
// characterized workloads, baselines, training databases and trained
// learners. A Context is safe for concurrent use by independent
// experiments once constructed.
type Context struct {
	// Size selects the generated-analog scale.
	Size gen.Size
	// TrainCfg sizes the offline training runs.
	TrainCfg train.Config
	// NNEpochs overrides neural network training epochs (0 = default).
	NNEpochs int

	mu        sync.Mutex
	datasets  []*gen.Dataset
	workloads []*core.Workload
	baselines map[baselineKey]core.Baselines
	dbs       map[dbKey]*train.DB
	learners  map[learnerKey]predict.Predictor
}

type baselineKey struct {
	pair      string
	workload  string
	objective train.Objective
}

type dbKey struct {
	pair      string
	objective train.Objective
}

type learnerKey struct {
	pair      string
	objective train.Objective
	name      string
}

// NewContext returns a full-scale experiment context (Medium analogs,
// default training size).
func NewContext() *Context {
	return &Context{
		Size:      gen.Medium,
		TrainCfg:  train.DefaultConfig(),
		baselines: map[baselineKey]core.Baselines{},
		dbs:       map[dbKey]*train.DB{},
		learners:  map[learnerKey]predict.Predictor{},
	}
}

// NewFastContext returns a context sized for unit tests and quick runs:
// Small analogs and a reduced training set.
func NewFastContext() *Context {
	c := NewContext()
	c.Size = gen.Small
	c.TrainCfg = train.FastConfig()
	c.NNEpochs = 25
	return c
}

// Datasets returns the Table I catalog at the context's scale.
func (c *Context) Datasets() []*gen.Dataset {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.datasets == nil {
		c.datasets = gen.TableICached(c.Size)
	}
	return c.datasets
}

// Workloads returns all 81 characterized benchmark-input combinations.
func (c *Context) Workloads() ([]*core.Workload, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.workloads == nil {
		if c.datasets == nil {
			c.datasets = gen.TableICached(c.Size)
		}
		ws, err := core.CharacterizeAll(algo.All(), c.datasets)
		if err != nil {
			return nil, err
		}
		c.workloads = ws
	}
	return c.workloads, nil
}

// Baselines returns (and caches) the exhaustively tuned single-accelerator
// and ideal references for one workload on one pair.
func (c *Context) Baselines(pair machine.Pair, w *core.Workload, obj train.Objective) core.Baselines {
	key := baselineKey{pair: pair.Name(), workload: w.Name(), objective: obj}
	c.mu.Lock()
	if b, ok := c.baselines[key]; ok {
		c.mu.Unlock()
		return b
	}
	c.mu.Unlock()
	b := core.ComputeBaselines(pair, w, obj)
	c.mu.Lock()
	c.baselines[key] = b
	c.mu.Unlock()
	return b
}

// DB returns (and caches) the offline training database for a pair and
// objective.
func (c *Context) DB(pair machine.Pair, obj train.Objective) *train.DB {
	key := dbKey{pair: pair.Name(), objective: obj}
	c.mu.Lock()
	if db, ok := c.dbs[key]; ok {
		c.mu.Unlock()
		return db
	}
	c.mu.Unlock()
	cfg := c.TrainCfg
	cfg.Objective = obj
	db := train.BuildDatabase(pair, cfg)
	c.mu.Lock()
	c.dbs[key] = db
	c.mu.Unlock()
	return db
}

// Learner names used across Table IV and the scheduler figures.
const (
	LearnerDecisionTree = "Decision Tree"
	LearnerLinear       = "Linear Regression"
	LearnerMulti        = "Multi Regression"
	LearnerAdaptive     = "Adaptive Library"
	LearnerDeep16       = "Deep.16"
	LearnerDeep32       = "Deep.32"
	LearnerDeep64       = "Deep.64"
	LearnerDeep128      = "Deep.128"
	// LearnerDeep128L is the larger-database Deep.128 row at the bottom
	// of Table IV.
	LearnerDeep128L = "Deep.128 (large)"
)

// TableIVLearners lists the Table IV rows in paper order.
func TableIVLearners() []string {
	return []string{
		LearnerDecisionTree, LearnerLinear, LearnerMulti, LearnerAdaptive,
		LearnerDeep16, LearnerDeep32, LearnerDeep64, LearnerDeep128,
		LearnerDeep128L,
	}
}

// NewLearner returns the untrained predictor behind a Table IV name,
// whose Name() is that name. epochs and seed reach the deep models'
// nn.Options, where 0 keeps nn's default. The large Deep.128 row is the
// Deep.128 network; Context.Learner trains it on a larger database.
func NewLearner(name string, limits config.Limits, epochs int, seed int64) (predict.Predictor, error) {
	var hidden int
	switch name {
	case LearnerDecisionTree:
		return dtree.New(limits), nil
	case LearnerLinear:
		return regress.NewLinear(limits), nil
	case LearnerMulti:
		return regress.NewMulti(limits), nil
	case LearnerAdaptive:
		return adaptive.New(limits), nil
	case LearnerDeep16:
		hidden = 16
	case LearnerDeep32:
		hidden = 32
	case LearnerDeep64:
		hidden = 64
	case LearnerDeep128, LearnerDeep128L:
		hidden = 128
	default:
		return nil, errUnknownLearner(name)
	}
	return nn.New(limits, nn.Options{Hidden: hidden, Epochs: epochs, Seed: seed}), nil
}

// Learner returns (and caches) a trained predictor by Table IV name for a
// pair and objective. The decision tree needs no training; everything
// else trains on the cached database.
func (c *Context) Learner(pair machine.Pair, obj train.Objective, name string) (predict.Predictor, error) {
	key := learnerKey{pair: pair.Name(), objective: obj, name: name}
	c.mu.Lock()
	if p, ok := c.learners[key]; ok {
		c.mu.Unlock()
		return p, nil
	}
	c.mu.Unlock()

	p, err := NewLearner(name, pair.Limits(), c.NNEpochs, 0)
	if err != nil {
		return nil, err
	}
	if trainable, ok := p.(predict.Trainable); ok {
		samples := c.DB(pair, obj).Samples
		if name == LearnerDeep128L {
			// The paper's final Table IV row trains the best model on a
			// larger database; reuse the base database plus an extra
			// energy-agnostic batch.
			extraCfg := c.TrainCfg
			extraCfg.Objective = obj
			extraCfg.Seed = c.TrainCfg.Seed + 9973
			extra := train.BuildDatabase(pair, extraCfg)
			samples = append(append([]predict.Sample{}, samples...), extra.Samples...)
		}
		if err := trainable.Train(samples); err != nil {
			return nil, err
		}
	}
	c.mu.Lock()
	c.learners[key] = p
	c.mu.Unlock()
	return p, nil
}

// System builds a core runtime for a trained learner.
func (c *Context) System(pair machine.Pair, obj train.Objective, learner string) (*core.System, error) {
	p, err := c.Learner(pair, obj, learner)
	if err != nil {
		return nil, err
	}
	return core.NewSystem(pair, p, obj), nil
}

type errUnknownLearner string

func (e errUnknownLearner) Error() string {
	return "experiments: unknown learner " + string(e)
}

// workloadsFor filters workloads by benchmark name.
func workloadsFor(ws []*core.Workload, bench string) []*core.Workload {
	var out []*core.Workload
	for _, w := range ws {
		if w.Benchmark.Name == bench {
			out = append(out, w)
		}
	}
	return out
}
