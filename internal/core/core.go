// Package core is the HeteroMap runtime (the paper's primary
// contribution): it characterizes a graph benchmark-input combination
// into (B, I) variables, asks a predictor for the machine-choice vector
// M, deploys the combination on the chosen accelerator of the
// multi-accelerator system, and reports completion time (with the
// predictor's own overhead added, as in Section V-A), energy and core
// utilization. It also provides the paper's baselines: GPU-only,
// multicore-only and the exhaustively tuned ideal.
package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"heteromap/internal/algo"
	"heteromap/internal/config"
	"heteromap/internal/fault"
	"heteromap/internal/feature"
	"heteromap/internal/gen"
	"heteromap/internal/graph"
	"heteromap/internal/machine"
	"heteromap/internal/obs"
	"heteromap/internal/predict"
	"heteromap/internal/profile"
	"heteromap/internal/train"
)

// Workload is one characterized benchmark-input combination, ready to be
// deployed under any M configuration. Characterize builds it once; every
// scheduler and baseline then reuses it.
type Workload struct {
	Benchmark algo.Benchmark
	Dataset   *gen.Dataset

	// Features is the (B, I) characterization the predictors consume
	// (static B catalog + declared I metadata, the paper's
	// programmer-specified path).
	Features feature.Vector

	// Work is the instrumented profile measured by actually running the
	// benchmark on the generated analog, scaled to declared paper-scale
	// magnitudes.
	Work *profile.Work

	// DerivedB is the automation path: B variables extracted from the
	// measured profile rather than the static catalog.
	DerivedB feature.BVector

	// Result is the benchmark's computed answer (checksums for tests).
	Result algo.Result

	// Job is the machine-model input (profile + dataset footprint).
	Job machine.Job
}

// Name renders the paper's combination label, e.g. "SSSP-BF-CA".
func (w *Workload) Name() string {
	return w.Benchmark.Name + "-" + w.Dataset.Short
}

// Characterize runs the benchmark on the dataset's generated analog,
// measures its work profile, scales the profile to the declared
// paper-scale magnitudes and packages the characterization.
func Characterize(b algo.Benchmark, ds *gen.Dataset) (*Workload, error) {
	bvec, err := feature.Catalog(b.Name)
	if err != nil {
		return nil, err
	}
	res, work := b.Run(ds.Graph)
	if err := work.Validate(); err != nil {
		return nil, fmt.Errorf("core: characterize %s on %s: %w", b.Name, ds.Short, err)
	}

	chainScale := 1.0
	if measured := graph.EstimateDiameter(ds.Graph, 1, 2); measured > 0 {
		chainScale = float64(ds.Declared.Diameter) / float64(measured)
		if chainScale < 1 {
			chainScale = 1
		}
	}
	scaled := work.Scaled(ds.VertexScale(), ds.EdgeScale(), chainScale)

	return &Workload{
		Benchmark: b,
		Dataset:   ds,
		Features:  feature.Combine(bvec, feature.IFromDataset(ds)),
		Work:      scaled,
		DerivedB:  feature.DeriveB(work),
		Result:    res,
		Job:       machine.Job{Work: scaled, FootprintBytes: ds.Declared.FootprintBytes()},
	}, nil
}

// Objective re-exports the training objective for runtime selection.
type Objective = train.Objective

// Objective values.
const (
	Performance = train.Performance
	Energy      = train.Energy
)

// System is a configured HeteroMap deployment: an accelerator pair plus a
// predictor, optionally backed by fallback predictors forming a graceful
// degradation chain.
type System struct {
	Pair      machine.Pair
	Predictor predict.Predictor
	Objective Objective

	// Fallbacks are consulted in order when the primary predictor
	// panics or emits a non-finite/invalid M (e.g. a trained NN backed
	// by the analytical decision tree); the chain always terminates in
	// a fixed deployable default, so Run never trusts an M vector
	// unconditionally.
	Fallbacks []predict.Predictor

	// overheadOnce caches the measured predictor inference overhead.
	overheadOnce sync.Once
	overhead     time.Duration

	// tracer, when installed via WithTracer, records a trace per Run —
	// the CLI's equivalent of the serve path's per-request tracing.
	tracer *obs.Tracer
}

// NewSystem assembles a runtime.
func NewSystem(pair machine.Pair, p predict.Predictor, obj Objective) *System {
	return &System{Pair: pair, Predictor: p, Objective: obj}
}

// WithFallbacks installs the degradation chain behind the primary
// predictor and returns the system for chaining.
func (s *System) WithFallbacks(ps ...predict.Predictor) *System {
	s.Fallbacks = ps
	return s
}

// WithTracer installs an observability tracer (nil disables tracing)
// and returns the system for chaining.
func (s *System) WithTracer(t *obs.Tracer) *System {
	s.tracer = t
	return s
}

// Tracer returns the installed tracer (nil when tracing is off).
func (s *System) Tracer() *obs.Tracer { return s.tracer }

// Chain materializes the system's predictor fallback chain (primary,
// then fallbacks, then the built-in FixedChoice default).
func (s *System) Chain() *fault.Chain {
	preds := make([]predict.Predictor, 0, 1+len(s.Fallbacks))
	preds = append(preds, s.Predictor)
	preds = append(preds, s.Fallbacks...)
	return fault.NewChain(s.Pair.Limits(), preds...)
}

// RunReport is the outcome of one scheduled execution.
type RunReport struct {
	Workload *Workload
	Chosen   config.M
	Machine  machine.Report
	// PredictOverhead is the measured wall-clock inference cost of the
	// predictor, which the paper adds to completion time.
	PredictOverhead time.Duration
	// TotalSeconds is simulated completion time plus predictor overhead
	// — including, for resilient runs, every failed attempt, backoff
	// wait and migration.
	TotalSeconds float64

	// PredictorUsed names the chain link that produced Chosen; it only
	// differs from the primary predictor's name when the chain degraded.
	PredictorUsed string
	// FallbackEvents records each predictor failure that forced the
	// chain to degrade, in order.
	FallbackEvents []string

	// Attempts counts execution attempts (1 for fault-free runs);
	// Retries counts the attempts beyond the first on each side.
	Attempts int
	Retries  int
	// FailedOver reports the job migrated to the other accelerator.
	FailedOver bool
	// Completed is false only when every attempt on both sides failed.
	Completed bool
	// BackoffSeconds and MigrationSeconds itemize resilience overhead
	// already included in TotalSeconds.
	BackoffSeconds   float64
	MigrationSeconds float64
	// FaultEvents narrates injected faults and recovery decisions.
	FaultEvents []string

	// TraceID identifies this run's trace in the system tracer's ring
	// buffer; empty when tracing is off.
	TraceID string
}

// Degraded reports whether the predictor fallback chain was exercised.
func (r RunReport) Degraded() bool { return len(r.FallbackEvents) > 0 }

// Metric returns the report's value under an objective.
func (r RunReport) Metric(obj Objective) float64 {
	if obj == Energy {
		return r.Machine.EnergyJ
	}
	return r.TotalSeconds
}

// Run characterizes nothing — it deploys an already characterized
// workload: predict M through the fallback chain, simulate on the chosen
// accelerator, add overhead. It is RunResilient without faults, whose
// one attempt charges exactly the machine report's seconds. The
// prediction is validated (never trusted unconditionally): a panicking
// predictor or a non-finite M degrades to the next chain link instead of
// crashing or poisoning the machine model.
func (s *System) Run(w *Workload) RunReport {
	return s.RunResilient(w, nil, fault.Policy{}, nil)
}

// RunResilient deploys a workload under fault injection: the prediction
// flows through the fallback chain, and execution retries transient
// failures with capped exponential backoff, failing over to the other
// accelerator when retries are exhausted or its circuit breaker is open.
// All retry, backoff and migration time is charged into TotalSeconds so
// degraded runs stay honestly comparable with the paper baselines. A nil
// injector injects nothing; a nil brs tracks health for this run only
// (pass a shared *fault.Breakers to persist health across a batch).
func (s *System) RunResilient(w *Workload, inj *fault.Injector, pol fault.Policy, brs *fault.Breakers) RunReport {
	ctx, tr := s.tracer.StartTrace(context.Background(), "core.run")
	tr.SetAttr("workload", w.Name())

	start := time.Now()
	pctx, psp := obs.StartSpan(ctx, "predict")
	sel := s.Chain().SelectCtx(pctx, w.Features)
	psp.SetAttr("used", sel.Used)
	psp.End()
	elapsed := time.Since(start)
	if sel.Degraded() {
		tr.Keep(obs.FlagFallback)
	}

	ov := s.PredictorOverhead()
	if elapsed > ov {
		ov = elapsed
	}
	_, esp := obs.StartSpan(ctx, "execute")
	res := fault.Execute(s.Pair, s.Pair.Limits(), sel.M, w.Job, w.Name(), inj, pol, brs)
	esp.SetAttr("accelerator", res.FinalM.Accelerator.String())
	if !res.Completed {
		tr.Keep(obs.FlagError)
		esp.EndErr(fmt.Errorf("every attempt failed on both accelerators"))
	} else {
		esp.End()
	}
	tr.Finish()
	return RunReport{
		Workload:         w,
		Chosen:           res.FinalM,
		Machine:          res.Report,
		PredictOverhead:  ov,
		TotalSeconds:     res.TotalSeconds() + ov.Seconds(),
		PredictorUsed:    sel.Used,
		FallbackEvents:   sel.Fallbacks,
		Attempts:         res.Attempts,
		Retries:          res.Retries,
		FailedOver:       res.FailedOver,
		Completed:        res.Completed,
		BackoffSeconds:   res.BackoffSeconds,
		MigrationSeconds: res.MigrationSeconds,
		FaultEvents:      res.Events,
		TraceID:          tr.ID(),
	}
}

// PredictorOverhead measures (once) the predictor's steady-state
// inference latency on a representative feature vector.
func (s *System) PredictorOverhead() time.Duration {
	s.overheadOnce.Do(func() {
		s.overhead = MeasureOverhead(s.Predictor)
	})
	return s.overhead
}

// MeasureOverhead times Predict calls in several short blocks and
// returns the per-call mean of the fastest block. A preemption or a GC
// pause that lands in a block makes only that block slow, where one
// long mean would absorb it: a sub-microsecond predictor's single stall
// could otherwise read slower than a network's forward pass.
func MeasureOverhead(p predict.Predictor) time.Duration {
	f := feature.Combine(feature.MustCatalog(algo.NameSSSPBF),
		feature.IVector{0.5, 0.5, 0.5, 0.5})
	const blocks, reps = 5, 40
	// Warm up.
	for i := 0; i < 10; i++ {
		p.Predict(f)
	}
	var best time.Duration
	for b := 0; b < blocks; b++ {
		start := time.Now()
		for i := 0; i < reps; i++ {
			p.Predict(f)
		}
		if d := time.Since(start); b == 0 || d < best {
			best = d
		}
	}
	return best / reps
}

// FixedChoice is a degenerate predictor that always returns one M vector;
// the single-accelerator baselines use it.
type FixedChoice struct {
	Label string
	M     config.M
}

// Name implements predict.Predictor.
func (f FixedChoice) Name() string { return f.Label }

// Predict implements predict.Predictor.
func (f FixedChoice) Predict(feature.Vector) config.M { return f.M }

// Baselines computes the paper's reference points for one workload:
//
//   - GPUOnly: the best configuration restricted to the GPU (the paper
//     manually tunes single-accelerator baselines with OpenTuner).
//   - MulticoreOnly: likewise restricted to the multicore.
//   - Ideal: the best configuration across both accelerators with no
//     predictor overhead.
type Baselines struct {
	GPUOnly       machine.Report
	GPUOnlyM      config.M
	MulticoreOnly machine.Report
	MulticoreM    config.M
	Ideal         machine.Report
	IdealM        config.M
}

// ComputeBaselines exhaustively tunes the workload on each accelerator.
func ComputeBaselines(pair machine.Pair, w *Workload, obj Objective) Baselines {
	limits := pair.Limits()
	gpu := train.NewSweep(pair, obj, config.EnumerateFor(config.GPU, limits)).Best(w.Job, nil)
	mc := train.NewSweep(pair, obj, config.EnumerateFor(config.Multicore, limits)).Best(w.Job, nil)

	gpuRep := pair.GPU.Evaluate(w.Job, gpu.Best)
	mcRep := pair.Multicore.Evaluate(w.Job, mc.Best)
	b := Baselines{
		GPUOnly: gpuRep, GPUOnlyM: gpu.Best,
		MulticoreOnly: mcRep, MulticoreM: mc.Best,
	}
	if gpu.Score <= mc.Score {
		b.Ideal, b.IdealM = gpuRep, gpu.Best
	} else {
		b.Ideal, b.IdealM = mcRep, mc.Best
	}
	return b
}

// CharacterizeAll builds workloads for every (benchmark, dataset)
// combination, skipping benchmarks whose requirements a dataset cannot
// meet (none of the Table I analogs skip in practice).
func CharacterizeAll(benchmarks []algo.Benchmark, datasets []*gen.Dataset) ([]*Workload, error) {
	var out []*Workload
	for _, b := range benchmarks {
		for _, d := range datasets {
			w, err := Characterize(b, d)
			if err != nil {
				return nil, err
			}
			out = append(out, w)
		}
	}
	return out, nil
}
