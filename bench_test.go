package heteromap

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (go test -bench=. -benchmem). Each BenchmarkTable*/Fig*
// target wraps the corresponding experiment driver; the reported custom
// metrics surface the headline numbers (speedups, gaps, reductions) so a
// bench run doubles as a reproduction run. Benchmark*Kernel and
// Benchmark*Inference targets are conventional micro-benchmarks;
// BenchmarkAblation* quantify the design choices called out in DESIGN.md.

import (
	"math/rand"
	"sync"
	"testing"

	"heteromap/internal/algo"
	"heteromap/internal/config"
	"heteromap/internal/core"
	"heteromap/internal/experiments"
	"heteromap/internal/feature"
	"heteromap/internal/gen"
	"heteromap/internal/machine"
	"heteromap/internal/phased"
	"heteromap/internal/predict/dtree"
	"heteromap/internal/predict/nn"
	"heteromap/internal/sched"
	"heteromap/internal/stats"
	"heteromap/internal/train"
)

var (
	benchCtxOnce sync.Once
	benchCtx     *experiments.Context
)

// benchContext shares one fast experiment context across all benches so
// workload characterization and learner training are not re-measured in
// every target.
func benchContext(b *testing.B) *experiments.Context {
	b.Helper()
	benchCtxOnce.Do(func() { benchCtx = experiments.NewFastContext() })
	return benchCtx
}

// --- Tables ---

func BenchmarkTable1Inputs(b *testing.B) {
	ctx := benchContext(b)
	for i := 0; i < b.N; i++ {
		res := experiments.Table1(ctx)
		if len(res.Rows) != 9 {
			b.Fatal("table I rows")
		}
	}
}

func BenchmarkTable2Accelerators(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(experiments.Table2().Accels) != 4 {
			b.Fatal("table II rows")
		}
	}
}

func BenchmarkTable3TrainingData(b *testing.B) {
	ctx := benchContext(b)
	for i := 0; i < b.N; i++ {
		if len(experiments.Table3(ctx).Rows) != 2 {
			b.Fatal("table III rows")
		}
	}
}

func BenchmarkTable4Learners(b *testing.B) {
	ctx := benchContext(b)
	var last experiments.Table4Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table4(ctx)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Row(experiments.LearnerDecisionTree).SpeedupPct, "tree-speedup-%")
	b.ReportMetric(last.Row(experiments.LearnerDeep128L).SpeedupPct, "deep128L-speedup-%")
}

// --- Figures ---

func BenchmarkFig1ThreadSweep(b *testing.B) {
	ctx := benchContext(b)
	var last experiments.Fig1Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig1(ctx)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Graphs[0].Factor, "CA-winner-x")
	b.ReportMetric(last.Graphs[1].Factor, "CAGE-winner-x")
}

func BenchmarkFig5Classification(b *testing.B) {
	ctx := benchContext(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 9 {
			b.Fatal("fig 5 rows")
		}
	}
}

func BenchmarkFig7DecisionTree(b *testing.B) {
	ctx := benchContext(b)
	var last experiments.Fig7Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig7(ctx)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Rows[0].GapPct, "ssspbf-gap-%")
	b.ReportMetric(last.Rows[1].GapPct, "delta-gap-%")
}

func BenchmarkFig11Scheduler(b *testing.B) {
	ctx := benchContext(b)
	var last experiments.SchedulerResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig11(ctx)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.GainOverGPUPct, "vs-gpu-%")
	b.ReportMetric(last.GainOverMCx, "vs-mc-x")
	b.ReportMetric(last.VsIdealPct, "vs-ideal-%")
}

func BenchmarkFig12Energy(b *testing.B) {
	ctx := benchContext(b)
	var last experiments.Fig12Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig12(ctx)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.ReductionX, "energy-reduction-x")
}

func BenchmarkFig13Utilization(b *testing.B) {
	ctx := benchContext(b)
	var last experiments.Fig13Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig13(ctx)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.ImprovementPct, "util-gain-%")
}

func BenchmarkFig14Scheduler970(b *testing.B) {
	ctx := benchContext(b)
	var last experiments.SchedulerResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig14(ctx)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.GainOverMCx, "vs-mc-x")
}

func BenchmarkFig15CPU40(b *testing.B) {
	ctx := benchContext(b)
	var last experiments.Fig15Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig15(ctx)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Pairs[0].GainOverGPUPct, "vs-gtx750-%")
	b.ReportMetric(last.Pairs[1].GainOverGPUPct, "vs-gtx970-%")
}

func BenchmarkFig16MemorySweep(b *testing.B) {
	ctx := benchContext(b)
	var last experiments.Fig16Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig16(ctx)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Sweeps[0].MCGainPct, "phi-mem-gain-%")
}

// --- Kernel micro-benchmarks ---

func benchGraph(b *testing.B) *gen.Dataset {
	b.Helper()
	return gen.ByShort(gen.TableICached(gen.Small), "FB")
}

func BenchmarkKernelSSSPBellmanFord(b *testing.B) {
	g := benchGraph(b).Graph
	src := algo.SourceVertex(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		algo.SSSPBellmanFord(g, src)
	}
}

func BenchmarkKernelSSSPDelta(b *testing.B) {
	g := benchGraph(b).Graph
	src := algo.SourceVertex(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		algo.SSSPDelta(g, src, 0)
	}
}

func BenchmarkKernelBFS(b *testing.B) {
	g := benchGraph(b).Graph
	src := algo.SourceVertex(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		algo.BFS(g, src)
	}
}

func BenchmarkKernelDFS(b *testing.B) {
	g := benchGraph(b).Graph
	src := algo.SourceVertex(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		algo.DFS(g, src)
	}
}

func BenchmarkKernelPageRank(b *testing.B) {
	g := benchGraph(b).Graph
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		algo.PageRank(g, 0)
	}
}

func BenchmarkKernelTriangleCount(b *testing.B) {
	g := benchGraph(b).Graph
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		algo.TriangleCount(g)
	}
}

func BenchmarkKernelConnectedComponents(b *testing.B) {
	g := benchGraph(b).Graph
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		algo.ConnectedComponents(g)
	}
}

func BenchmarkCostModelEvaluate(b *testing.B) {
	pair := machine.PrimaryPair()
	bench, _ := algo.ByName(algo.NameBFS)
	w, err := core.Characterize(bench, benchGraph(b))
	if err != nil {
		b.Fatal(err)
	}
	m := config.DefaultGPU(pair.Limits())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pair.GPU.Evaluate(w.Job, m)
	}
}

func BenchmarkInferenceDecisionTree(b *testing.B) {
	pair := machine.PrimaryPair()
	tree := dtree.New(pair.Limits())
	bench, _ := algo.ByName(algo.NameBFS)
	w, err := core.Characterize(bench, benchGraph(b))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Predict(w.Features)
	}
}

func BenchmarkInferenceDeep128(b *testing.B) {
	pair := machine.PrimaryPair()
	net := nn.New(pair.Limits(), nn.Options{Hidden: 128, Epochs: 1})
	db := train.BuildDatabase(pair, train.Config{Samples: 32, Seed: 1})
	if err := net.Train(db.Samples); err != nil {
		b.Fatal(err)
	}
	bench, _ := algo.ByName(algo.NameBFS)
	w, err := core.Characterize(bench, benchGraph(b))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Predict(w.Features)
	}
}

func BenchmarkOfflineDatabaseBuild(b *testing.B) {
	pair := machine.PrimaryPair()
	for i := 0; i < b.N; i++ {
		train.BuildDatabase(pair, train.Config{Samples: 100, Seed: int64(i + 1)})
	}
}

// --- Ablations (design choices called out in DESIGN.md §5) ---

// BenchmarkAblationClosedForm compares the profile-driven cost model
// against a closed-form variant that synthesizes the work profile from
// the (B, I) characterization alone (no instrumentation). The reported
// divergence justifies running the real algorithms.
func BenchmarkAblationClosedForm(b *testing.B) {
	ctx := benchContext(b)
	ws, err := ctx.Workloads()
	if err != nil {
		b.Fatal(err)
	}
	pair := machine.PrimaryPair()
	m := config.DefaultMulticore(pair.Limits())
	var divergence float64
	for i := 0; i < b.N; i++ {
		var ratios []float64
		for _, w := range ws {
			measured := pair.Multicore.Evaluate(w.Job, m).Seconds
			combo := train.Synthesize(w.Features.B(), w.Features.I(),
				rand.New(rand.NewSource(1)))
			closed := pair.Multicore.Evaluate(machine.Job{
				Work: combo.Work, FootprintBytes: combo.Footprint,
			}, m).Seconds
			r := closed / measured
			if r < 1 {
				r = 1 / r
			}
			ratios = append(ratios, r)
		}
		divergence = stats.MustGeomean(ratios)
	}
	b.ReportMetric(divergence, "closed-vs-profile-x")
}

// BenchmarkAblationTreeThreshold sweeps the decision threshold the paper
// fixes at 0.5 ("other thresholds may also work by fine tuning ...
// left as future work").
func BenchmarkAblationTreeThreshold(b *testing.B) {
	ctx := benchContext(b)
	ws, err := ctx.Workloads()
	if err != nil {
		b.Fatal(err)
	}
	pair := machine.PrimaryPair()
	var bestThreshold float64
	for i := 0; i < b.N; i++ {
		bestGeo := -1.0
		for _, th := range []float64{0.3, 0.4, 0.5, 0.6, 0.7} {
			tree := dtree.NewWithThreshold(pair.Limits(), th)
			var times []float64
			for _, w := range ws {
				m := tree.Predict(w.Features)
				times = append(times, pair.Select(m.Accelerator).Evaluate(w.Job, m).Seconds)
			}
			geo := stats.MustGeomean(times)
			if bestGeo < 0 || geo < bestGeo {
				bestGeo, bestThreshold = geo, th
			}
		}
	}
	b.ReportMetric(bestThreshold, "best-threshold")
}

// BenchmarkAblationTrainingSize measures how holdout choice accuracy
// scales with the synthetic database size.
func BenchmarkAblationTrainingSize(b *testing.B) {
	pair := machine.PrimaryPair()
	limits := pair.Limits()
	var accLargest float64
	for i := 0; i < b.N; i++ {
		for _, size := range []int{100, 400, 1200} {
			db := train.BuildDatabase(pair, train.Config{Samples: size, Seed: 21})
			trainSet, holdout := db.Split(0.2, 1)
			net := nn.New(limits, nn.Options{Hidden: 32, Epochs: 30, Seed: 5})
			if err := net.Train(trainSet); err != nil {
				b.Fatal(err)
			}
			var sum float64
			for _, s := range holdout {
				target := config.FromNormalized(s.Target, limits)
				sum += config.ChoiceAccuracy(net.Predict(s.Features), target, limits)
			}
			accLargest = sum / float64(len(holdout)) * 100
		}
	}
	b.ReportMetric(accLargest, "acc-at-1200-%")
}

// BenchmarkAblationDiscretization sweeps the characterization step (the
// paper uses 0.1 and notes finer increments are possible): it counts how
// many of the 81 inter-accelerator decisions change with finer I
// discretization.
func BenchmarkAblationDiscretization(b *testing.B) {
	ctx := benchContext(b)
	ws, err := ctx.Workloads()
	if err != nil {
		b.Fatal(err)
	}
	pair := machine.PrimaryPair()
	tree := dtree.New(pair.Limits())
	var changed float64
	for i := 0; i < b.N; i++ {
		changed = 0
		for _, w := range ws {
			d := w.Dataset.Declared
			coarse := w.Features
			fine := w.Features
			fi := feature.IFromCountsStep(d.V, d.E, d.MaxDeg, d.Diameter, 0.02)
			copy(fine[feature.NumB:], fi[:])
			if tree.SelectAccelerator(coarse) != tree.SelectAccelerator(fine) {
				changed++
			}
		}
	}
	b.ReportMetric(changed, "decisions-changed")
}

// BenchmarkExtensionPhased quantifies the temporal extension the paper
// leaves out (internal/phased): each phase placed on its best
// accelerator with per-iteration PCIe migration costs, against the
// whole-program single-accelerator choice.
func BenchmarkExtensionPhased(b *testing.B) {
	ctx := benchContext(b)
	ws, err := ctx.Workloads()
	if err != nil {
		b.Fatal(err)
	}
	pair := machine.PrimaryPair()
	limits := pair.Limits()
	gpuM := config.DefaultGPU(limits)
	gpuM.GlobalThreads = 2048
	mcM := config.DefaultMulticore(limits)
	var splits, gain float64
	for i := 0; i < b.N; i++ {
		splits = 0
		var gains []float64
		for _, w := range ws {
			s := phased.Plan(pair, w.Job, gpuM, mcM)
			if s.Split() {
				splits++
			}
			gains = append(gains, 1+s.GainPct()/100)
		}
		gain = (stats.MustGeomean(gains) - 1) * 100
	}
	b.ReportMetric(splits, "split-combos")
	b.ReportMetric(gain, "phased-gain-%")
}

// BenchmarkExtensionBatch measures batch operation of the heterogeneous
// system (internal/sched): the makespan of the full 81-job queue under
// HeteroMap assignment vs the better single accelerator.
func BenchmarkExtensionBatch(b *testing.B) {
	ctx := benchContext(b)
	ws, err := ctx.Workloads()
	if err != nil {
		b.Fatal(err)
	}
	pair := machine.PrimaryPair()
	tree := dtree.New(pair.Limits())
	var speedup float64
	for i := 0; i < b.N; i++ {
		plans := sched.Compare(pair, tree, ws)
		single := plans[2].Makespan
		if plans[3].Makespan < single {
			single = plans[3].Makespan
		}
		speedup = single / plans[0].Makespan
	}
	b.ReportMetric(speedup, "batch-speedup-x")
}

// BenchmarkExtensionThresholdFit exercises the tuned-threshold tree
// (Section IV's future work) against the synthetic database.
func BenchmarkExtensionThresholdFit(b *testing.B) {
	ctx := benchContext(b)
	pair := machine.PrimaryPair()
	db := ctx.DB(pair, 0)
	var th float64
	for i := 0; i < b.N; i++ {
		tree := dtree.FitThreshold(pair.Limits(), db.Samples)
		th = tree.ThresholdValue()
	}
	b.ReportMetric(th, "fitted-threshold")
}

// BenchmarkIdealSweep measures the exhaustive "ideal" baseline cost —
// what HeteroMap's millisecond predictions replace at run time.
func BenchmarkIdealSweep(b *testing.B) {
	ctx := benchContext(b)
	ws, err := ctx.Workloads()
	if err != nil {
		b.Fatal(err)
	}
	pair := machine.PrimaryPair()
	sweep := train.NewSweep(pair, train.Performance, config.Enumerate(pair.Limits()))
	costs := make([]machine.Cost, sweep.Len())
	w := ws[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep.Best(w.Job, costs)
	}
}
