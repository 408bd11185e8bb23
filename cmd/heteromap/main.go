// Command heteromap is the interactive front end of the reproduction:
//
//	heteromap characterize -bench BFS -input FB
//	    print the (B, I) characterization and measured work profile
//	heteromap predict -bench BFS -input FB [-predictor tree|deep]
//	    print the predicted machine choices
//	heteromap run -bench BFS -input FB [-predictor tree|deep] [-energy]
//	    schedule the combination and report time/energy/utilization
//	    against the GPU-only, multicore-only and ideal baselines
//	heteromap sweep -bench BFS -input FB
//	    print the per-accelerator tuning sweep (Fig 1 style)
//	heteromap phased -bench SSSP-Delta -input CA
//	    plan phase-level temporal scheduling (the paper's future work)
//	heteromap run -bench SSSP-BF -edgelist my_graph.txt
//	    schedule a user-supplied edge-list graph
//	heteromap run -bench BFS -input FB -chaos -chaos-rate 0.3
//	    schedule under injected accelerator faults: transient failures
//	    are retried with capped exponential backoff and failed over to
//	    the other accelerator, all charged into the completion time
//	heteromap batch -input FB [-chaos]
//	    schedule every benchmark on one dataset and compare the batch
//	    strategies (HeteroMap, LPT-balanced, single-accelerator; plus
//	    the failure-aware plan under -chaos)
//	heteromap explain -bench BFS -input FB
//	    show where the simulated time of the predicted deployment goes
//	heteromap serve -addr 127.0.0.1:8080 [-predictor tree|deep|db]
//	    run the prediction service: POST /v1/predict and
//	    /v1/predict/batch, model registry with canary-validated
//	    hot-swap reload (/v1/reload, gated by -canary-set/-reload-slo),
//	    prediction cache, inline miss inference with per-version circuit
//	    breakers, Prometheus /metrics; -chaos-serve arms the serve-path
//	    fault injector behind /v1/chaos; -debug-addr exposes the debug
//	    surface (/debug/pprof, /debug/traces) on a second address and
//	    -trace-sample tunes how many unflagged traces the ring retains
//	heteromap serve -online -shadow-dir /tmp/shadows -uncertainty-floor 0.3
//	    close the predict -> execute -> learn loop: every served
//	    prediction is realized against the machine models and its cost
//	    gap feeds per-cell drift detection (heteromap_drift_* metrics,
//	    /v1/online snapshot); on drift the manager retrains a shadow
//	    model on the feedback window and promotes it only through the
//	    canary-validated reload path; low-confidence predictions
//	    reroute to a bounded exhaustive probe (-uncertainty-floor)
//	heteromap serve -cluster -addr 127.0.0.1:8101
//	    run as a cluster node: SIGINT/SIGTERM announces a drain on
//	    /healthz (routers deregister the node) and keeps serving for
//	    -drain-grace before exiting — a planned shutdown with zero 5xx
//	heteromap serve -peers 127.0.0.1:8101,127.0.0.1:8102,127.0.0.1:8103
//	    run the cluster *router* on -addr: consistent-hash routing over
//	    the peers' shard keyspace with -replicas per shard, peer-aware
//	    failover via per-peer circuit breakers, version-gated hedging
//	    after -hedge-after, health probes every -probe-interval;
//	    /v1/cluster shows membership, -chaos-serve arms the
//	    forwarding-layer fault injector behind /v1/chaos
//	heteromap run -bench BFS -input FB -trace
//	    record the run's trace and print its id and span timeline
//	heteromap list
//	    list benchmarks and datasets
//
// Exit codes: 0 on success, 1 on runtime/validation failure, 2 on usage
// errors (unknown command, bad flags).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"heteromap"
	"heteromap/internal/cluster"
	"heteromap/internal/config"
	"heteromap/internal/core"
	"heteromap/internal/fault"
	"heteromap/internal/obs"
	"heteromap/internal/online"
	"heteromap/internal/sched"
	"heteromap/internal/serve"
	"heteromap/internal/train"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		usage(stderr)
		return 2
	}
	cmd := args[0]
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	fs.SetOutput(stderr)
	bench := fs.String("bench", "BFS", "benchmark name (see `heteromap list`)")
	input := fs.String("input", "FB", "dataset short name (see `heteromap list`)")
	predictor := fs.String("predictor", "tree", "predictor: tree, deep, or db")
	dbPath := fs.String("db", "", "profiler database file for -predictor db (written by hmtrain -out)")
	energy := fs.Bool("energy", false, "optimize energy instead of performance")
	large := fs.Bool("large", false, "use the larger generated analogs")
	edgeList := fs.String("edgelist", "", "characterize a user edge-list file instead of a catalog dataset")
	directed := fs.Bool("directed", false, "treat the -edgelist file as directed (default: mirror edges)")
	chaos := fs.Bool("chaos", false, "inject accelerator faults and schedule resiliently")
	chaosRate := fs.Float64("chaos-rate", 0.1, "fault rate for -chaos: transient failure probability, plus scaled slowdown and memory loss")
	chaosSeed := fs.Int64("chaos-seed", 42, "deterministic seed for -chaos fault injection")
	addr := fs.String("addr", "127.0.0.1:8080", "serve: listen address")
	cacheSize := fs.Int("cache-size", 4096, "serve: prediction cache capacity")
	queueSize := fs.Int("queue", 1024, "serve: miss passes answered concurrently, one per request's misses under one model; more are shed with 503")
	canarySet := fs.String("canary-set", "", "serve: golden-set JSON file gating /v1/reload (empty: record one from the default model at startup)")
	reloadSLO := fs.Duration("reload-slo", 10*time.Millisecond, "serve: per-prediction canary latency budget for /v1/reload (0 disables)")
	chaosServe := fs.Bool("chaos-serve", false, "serve: enable the serve-path chaos injector and /v1/chaos endpoint")
	clusterMode := fs.Bool("cluster", false, "serve: run as a cluster node — SIGINT/SIGTERM drains gracefully (healthz announces, routers deregister) before exit")
	peers := fs.String("peers", "", "serve: comma-separated node addresses; non-empty runs the cluster *router* on -addr instead of a node")
	replicas := fs.Int("replicas", 2, "serve router: replica-group size per shard (primary included)")
	probeInterval := fs.Duration("probe-interval", 250*time.Millisecond, "serve router: peer health-probe cadence")
	hedgeAfter := fs.Duration("hedge-after", 25*time.Millisecond, "serve router: how long the primary may take before hedging against the replica")
	drainGrace := fs.Duration("drain-grace", 2*time.Second, "serve -cluster: how long to keep serving after the drain announcement before shutting down")
	debugAddr := fs.String("debug-addr", "", "serve: extra listen address for the debug surface (/debug/pprof, /debug/traces)")
	sloAvailability := fs.Float64("slo-availability", 0, "serve: availability objective, e.g. 0.999 — enables the SLO burn-rate engine, /v1/slo and the heteromap_slo_* gauges (0: disabled unless -slo-p99 is set)")
	sloP99 := fs.Duration("slo-p99", 0, "serve: p99 latency objective, e.g. 50ms — at most 1% of requests may exceed it (0: engine default 250ms once enabled)")
	sloFastWindow := fs.Duration("slo-fast-window", 0, "serve: fast burn-rate window for SLO alerting (0: default 5m)")
	sloSlowWindow := fs.Duration("slo-slow-window", 0, "serve: slow burn-rate window for SLO alerting (0: default 1h)")
	traceSample := fs.Float64("trace-sample", 0, "serve: retention rate for unflagged traces in /debug/traces (0: server default 0.1, 1: keep all; flagged traces are always kept)")
	trace := fs.Bool("trace", false, "run: record a per-run trace and print its id and span timeline")
	durableDir := fs.String("durable-dir", "", "serve: root directory for crash-safe state — cache snapshots under <dir>/serve, the feedback WAL and window snapshots under <dir>/online; a restart replays and comes back warm (empty: volatile)")
	snapshotInterval := fs.Duration("snapshot-interval", 30*time.Second, "serve -durable-dir: prediction-cache snapshot cadence")
	windowFlush := fs.Duration("window-flush", 0, "serve -online: auto-flush the feedback window to -window-path this often (0: never)")
	windowPath := fs.String("window-path", "", "serve -online: feedback-window flush destination, a valid hmtrain database (empty with -window-flush: <durable-dir>/online/window.db)")
	onlineMode := fs.Bool("online", false, "serve: close the predict->execute->learn loop — feedback collection, drift detection, uncertainty routing and canary-gated shadow retraining (/v1/online)")
	driftWindow := fs.Int("drift-window", 0, "serve -online: consecutive over-threshold observations before the drift signal arms (0: default 16)")
	driftThreshold := fs.Float64("drift-threshold", 0, "serve -online: EWMA cost-gap level that counts as drifting (0: default 0.25)")
	uncertaintyFloor := fs.Float64("uncertainty-floor", 0, "serve -online: confidence below which a prediction reroutes to the bounded exhaustive probe (0 disables routing)")
	shadowDir := fs.String("shadow-dir", "", "serve -online: directory for shadow retrain databases (empty: retraining disabled, drift is detect-only)")
	probeCap := fs.Int("probe-cap", 0, "serve -online: candidate-grid bound for an uncertainty probe (0: default 32)")
	retrainMin := fs.Int("retrain-min", 0, "serve -online: minimum feedback-window size before a shadow retrain (0: default 256)")

	switch cmd {
	case "list", "characterize", "predict", "run", "sweep", "phased", "explain", "batch", "serve":
	default:
		usage(stderr)
		return 2
	}
	if err := fs.Parse(args[1:]); err != nil {
		return 2
	}

	if cmd == "list" {
		fmt.Fprintln(stdout, "benchmarks:")
		for _, b := range heteromap.Benchmarks() {
			fmt.Fprintf(stdout, "  %-12s weights=%v undirected=%v\n", b.Name, b.NeedsWeights, b.NeedsUndirected)
		}
		fmt.Fprintln(stdout, "datasets:")
		for _, d := range heteromap.Datasets(*large) {
			fmt.Fprintf(stdout, "  %-5s %s\n", d.Short, d)
		}
		return 0
	}

	opts := systemOptions{
		predictor: *predictor, dbPath: *dbPath, energy: *energy,
		large: *large, bench: *bench, input: *input,
		edgeList: *edgeList, directed: *directed,
	}

	if cmd == "serve" {
		var err error
		if *peers != "" {
			err = runRouter(routerOptions{
				addr: *addr, peers: *peers, replicas: *replicas,
				probeInterval: *probeInterval, hedgeAfter: *hedgeAfter,
				chaosServe: *chaosServe, chaosSeed: *chaosSeed,
				sloAvailability: *sloAvailability, sloP99: *sloP99,
				sloFastWindow: *sloFastWindow, sloSlowWindow: *sloSlowWindow,
				traceSample: *traceSample,
			}, stdout)
		} else {
			err = runServe(opts, serveOptions{
				addr: *addr, cacheSize: *cacheSize, queueSize: *queueSize,
				canarySet: *canarySet, reloadSLO: *reloadSLO,
				chaosServe: *chaosServe, chaosSeed: *chaosSeed,
				debugAddr:       *debugAddr,
				traceSample:     *traceSample,
				sloAvailability: *sloAvailability, sloP99: *sloP99,
				sloFastWindow: *sloFastWindow, sloSlowWindow: *sloSlowWindow,
				cluster: *clusterMode, drainGrace: *drainGrace,
				online: *onlineMode, driftWindow: *driftWindow,
				driftThreshold: *driftThreshold, uncertaintyFloor: *uncertaintyFloor,
				shadowDir: *shadowDir, probeCap: *probeCap, retrainMin: *retrainMin,
				durableDir: *durableDir, snapshotInterval: *snapshotInterval,
				windowFlush: *windowFlush, windowPath: *windowPath,
			}, stdout, stderr)
		}
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}

	if cmd == "batch" {
		if err := runBatch(opts, *chaos, *chaosRate, *chaosSeed, stdout); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}

	sys, workload, err := buildSystem(opts)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	var tracer *heteromap.Tracer
	if *trace && cmd == "run" {
		// SampleRate 1 retains every trace: a CLI run produces exactly
		// one, and the user explicitly asked to see it.
		tracer = heteromap.NewTracer(heteromap.TracerOptions{SampleRate: 1})
		sys.WithTracer(tracer)
	}

	switch cmd {
	case "characterize":
		fmt.Fprintf(stdout, "features: %s\n", workload.Features)
		fmt.Fprintf(stdout, "derived B (from instrumentation): %s\n", workload.DerivedB)
		fmt.Fprintln(stdout, workload.Work)
		fmt.Fprintf(stdout, "result checksum=%.6g iterations=%d visited=%d\n",
			workload.Result.Checksum, workload.Result.Iterations, workload.Result.Visited)

	case "predict":
		m := sys.Predictor().Predict(workload.Features)
		fmt.Fprintf(stdout, "predicted M: %s\n\n", m)
		for _, line := range m.Describe(sys.Pair().Limits()) {
			fmt.Fprintln(stdout, line)
		}

	case "run":
		var rep heteromap.RunReport
		if *chaos {
			inj := heteromap.NewChaosInjector(*chaosSeed, *chaosRate)
			rep = sys.RunResilient(workload, inj, heteromap.DefaultFaultPolicy())
		} else {
			rep = sys.Run(workload)
		}
		bl := sys.Baselines(workload)
		fmt.Fprintf(stdout, "combination     : %s\n", workload.Name())
		fmt.Fprintf(stdout, "chosen          : %s (%s)\n", rep.Chosen.Accelerator, rep.Chosen)
		fmt.Fprintf(stdout, "predictor used  : %s\n", rep.PredictorUsed)
		fmt.Fprintf(stdout, "completion time : %.6gs (+%.3gms predictor overhead)\n",
			rep.TotalSeconds-rep.PredictOverhead.Seconds(),
			float64(rep.PredictOverhead.Microseconds())/1000)
		fmt.Fprintf(stdout, "energy          : %.6g J\n", rep.Machine.EnergyJ)
		fmt.Fprintf(stdout, "utilization     : %.1f%%\n", rep.Machine.Utilization*100)
		if *chaos {
			fmt.Fprintf(stdout, "chaos           : rate %.2g seed %d\n", *chaosRate, *chaosSeed)
			fmt.Fprintf(stdout, "attempts        : %d (%d retries, failover=%v, completed=%v)\n",
				rep.Attempts, rep.Retries, rep.FailedOver, rep.Completed)
			fmt.Fprintf(stdout, "fault overhead  : %.4gs backoff, %.4gs migration\n",
				rep.BackoffSeconds, rep.MigrationSeconds)
			for _, e := range rep.FaultEvents {
				fmt.Fprintf(stdout, "  fault: %s\n", e)
			}
		}
		for _, e := range rep.FallbackEvents {
			fmt.Fprintf(stdout, "  predictor fallback: %s\n", e)
		}
		if tracer != nil {
			fmt.Fprintf(stdout, "trace           : %s\n", rep.TraceID)
			printTrace(stdout, tracer, rep.TraceID)
		}
		fmt.Fprintf(stdout, "GPU-only        : %.6gs (%s)\n", bl.GPUOnly.Seconds, bl.GPUOnlyM)
		fmt.Fprintf(stdout, "multicore-only  : %.6gs (%s)\n", bl.MulticoreOnly.Seconds, bl.MulticoreM)
		fmt.Fprintf(stdout, "ideal           : %.6gs (%s)\n", bl.Ideal.Seconds, bl.IdealM)

	case "phased":
		plan := sys.PlanPhased(workload)
		fmt.Fprintf(stdout, "combination : %s\n", workload.Name())
		fmt.Fprintf(stdout, "phased plan : %s\n", plan)
		if plan.Split() {
			fmt.Fprintf(stdout, "transfers   : %d per iteration, %.4gs total\n",
				plan.Transfers, plan.TransferSeconds)
		} else {
			fmt.Fprintln(stdout, "(the planner collapsed to a single accelerator: migration does not pay)")
		}

	case "explain":
		m := sys.Predictor().Predict(workload.Features)
		rep := sys.Pair().Select(m.Accelerator).Evaluate(workload.Job, m)
		bd := rep.Breakdown
		fmt.Fprintf(stdout, "combination : %s\n", workload.Name())
		fmt.Fprintf(stdout, "deployed    : %s\n", m)
		fmt.Fprintf(stdout, "total       : %.6gs on %s (threads=%d, util %.1f%%)\n",
			rep.Seconds, rep.Accel, rep.Threads, rep.Utilization*100)
		fmt.Fprintln(stdout, "time breakdown:")
		for _, term := range []struct {
			name string
			sec  float64
		}{
			{"dependency chains", bd.Chain},
			{"scalar compute", bd.Compute},
			{"floating point", bd.FP},
			{"memory (exposed)", bd.Memory},
			{"atomics", bd.Atomics},
			{"barriers", bd.Barriers},
			{"push/pop queues", bd.PushPop},
		} {
			fmt.Fprintf(stdout, "  %-18s %10.4gs\n", term.name, term.sec)
		}
		fmt.Fprintf(stdout, "  %-18s %10.3fx\n", "soft-knob factor", bd.KnobFactor)
		fmt.Fprintf(stdout, "  %-18s %10d (x%.2f streaming)\n", "memory chunks", bd.Chunks, bd.ChunkFactor)

	case "sweep":
		pair := sys.Pair()
		limits := pair.Limits()
		for _, accel := range []config.Accel{config.GPU, config.Multicore} {
			cands := config.EnumerateFor(accel, limits)
			best := train.NewSweep(pair, train.Performance, cands).Best(workload.Job, nil)
			fmt.Fprintf(stdout, "%-10s best %.6gs with %s (%d candidates)\n",
				accel, best.Score, best.Best, best.Evals)
		}
	}
	return 0
}

// systemOptions collects the flags that shape the scheduled run.
type systemOptions struct {
	predictor, dbPath string
	energy, large     bool
	bench, input      string
	edgeList          string
	directed          bool
}

// serveOptions collects the serving-pipeline flags.
type serveOptions struct {
	addr        string
	cacheSize   int
	queueSize   int
	canarySet   string
	reloadSLO   time.Duration
	chaosServe  bool
	chaosSeed   int64
	debugAddr   string
	traceSample float64
	cluster     bool
	drainGrace  time.Duration

	sloAvailability float64
	sloP99          time.Duration
	sloFastWindow   time.Duration
	sloSlowWindow   time.Duration

	online           bool
	driftWindow      int
	driftThreshold   float64
	uncertaintyFloor float64
	shadowDir        string
	probeCap         int
	retrainMin       int

	durableDir       string
	snapshotInterval time.Duration
	windowFlush      time.Duration
	windowPath       string
}

// routerOptions collects the cluster-router flags.
type routerOptions struct {
	addr          string
	peers         string
	replicas      int
	probeInterval time.Duration
	hedgeAfter    time.Duration
	chaosServe    bool
	chaosSeed     int64

	sloAvailability float64
	sloP99          time.Duration
	sloFastWindow   time.Duration
	sloSlowWindow   time.Duration
	traceSample     float64
}

// newSLOFromFlags builds the SLO tracker the flags describe; both
// objectives unset means SLO tracking is disabled (nil).
func newSLOFromFlags(avail float64, p99, fast, slow time.Duration) *obs.SLO {
	if avail <= 0 && p99 <= 0 {
		return nil
	}
	return obs.NewSLO(obs.SLOOptions{
		Availability: avail,
		P99Latency:   p99,
		FastWindow:   fast,
		SlowWindow:   slow,
	})
}

// printTrace renders the retained span timeline of one CLI run.
func printTrace(stdout io.Writer, tracer *heteromap.Tracer, id string) {
	for _, rec := range tracer.Ring().Snapshot(obs.TraceFilter{}) {
		if rec.ID != id {
			continue
		}
		for _, sp := range rec.Spans {
			fmt.Fprintf(stdout, "  span %-16s +%8.0fµs %8.0fµs %s\n",
				sp.Name, sp.OffsetUS, sp.DurationUS, sp.Outcome)
		}
	}
}

// runServe assembles the registry the flags describe and serves until
// SIGINT/SIGTERM.
func runServe(o systemOptions, so serveOptions, stdout, stderr io.Writer) error {
	pair := heteromap.PrimaryPair()
	reg := serve.NewRegistry(pair)

	// The analytical decision tree is always registered: it needs no
	// training, so the service can come up instantly and every other
	// model degrades onto it through the fallback chain.
	if _, err := reg.Register("tree", "builtin decision tree", heteromap.NewDecisionTree(pair)); err != nil {
		return err
	}
	switch o.predictor {
	case "tree":
	case "deep":
		fmt.Fprintln(stdout, "training deep predictor (fast configuration)...")
		pred, err := newPredictor(o, pair)
		if err != nil {
			return err
		}
		if _, err := reg.Register("deep", "Deep.128 trained at startup", pred); err != nil {
			return err
		}
		if err := reg.SetDefault("deep"); err != nil {
			return err
		}
	case "db":
		if o.dbPath == "" {
			return fmt.Errorf("-predictor db requires -db <file> (write one with hmtrain -out)")
		}
		if _, err := reg.ReloadDB("db", o.dbPath); err != nil {
			return err
		}
		if err := reg.SetDefault("db"); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown predictor %q (want tree, deep, or db)", o.predictor)
	}

	// Canary gate for /v1/reload: load the golden set from disk, or
	// record one against the default model so reloads are validated from
	// the first request even with no file given.
	canary := &serve.CanaryConfig{MaxLatency: so.reloadSLO}
	if so.canarySet != "" {
		cases, err := serve.LoadGoldenSet(so.canarySet)
		if err != nil {
			return err
		}
		canary.Cases = cases
		fmt.Fprintf(stdout, "canary: %d golden cases from %s (slo %v)\n",
			len(cases), so.canarySet, so.reloadSLO)
	} else {
		ref, err := reg.Get("")
		if err != nil {
			return err
		}
		cases, err := serve.RecordGoldenSet(ref, serve.DefaultGoldenRequests(32, 1))
		if err != nil {
			return err
		}
		// Recorded answers pin the default model's behaviour; a reload
		// may legitimately improve on it, so gate on validity and
		// latency but tolerate strict-answer drift.
		canary.Cases = cases
		canary.MaxMismatches = len(cases)
		fmt.Fprintf(stdout, "canary: recorded %d golden cases from model %q (slo %v)\n",
			len(cases), defaultModelName(reg), so.reloadSLO)
	}

	var injector *fault.ServeInjector
	if so.chaosServe {
		injector = fault.NewServeInjector(so.chaosSeed)
		fmt.Fprintf(stdout, "chaos: serve injector armed (seed %d); drive it via POST /v1/chaos\n", so.chaosSeed)
	}

	var tracer *obs.Tracer
	if so.traceSample != 0 {
		tracer = obs.NewTracer(obs.Options{SampleRate: so.traceSample})
	}

	// The online manager closes the loop for the default model family:
	// serve.New binds its promotion path to the registry's validated
	// reload, so a shadow retrain clears the same canary gate as a
	// hand-triggered /v1/reload.
	var mgr *online.Manager
	if so.online {
		obj := train.Performance
		if o.energy {
			obj = train.Energy
		}
		flushPath := so.windowPath
		if so.windowFlush > 0 && flushPath == "" {
			if so.durableDir == "" {
				return fmt.Errorf("-window-flush needs -window-path or -durable-dir")
			}
			flushPath = filepath.Join(so.durableDir, "online", "window.db")
		}
		oopts := online.Options{
			Pair:             pair,
			Objective:        obj,
			Model:            defaultModelName(reg),
			DriftWindow:      so.driftWindow,
			DriftThreshold:   so.driftThreshold,
			UncertaintyFloor: so.uncertaintyFloor,
			ShadowDir:        so.shadowDir,
			ProbeCap:         so.probeCap,
			RetrainMin:       so.retrainMin,
			Tracer:           tracer,
			WindowFlushEvery: so.windowFlush,
			WindowFlushPath:  flushPath,
		}
		if so.durableDir != "" {
			// Feedback WAL + window snapshots: the learning state a crash
			// would otherwise erase replays at the next startup.
			oopts.DurableDir = filepath.Join(so.durableDir, "online")
		}
		mgr = online.New(oopts)
		if oopts.DurableDir != "" {
			ds := mgr.DurableStats()
			fmt.Fprintf(stdout, "durable: online recovery — snapshot_restored=%v wal_replayed=%d corrupt=%d quarantined=%d\n",
				ds.SnapshotRestored, ds.Replayed, ds.CorruptRecords, ds.Quarantines)
		}
	}

	sopts := serve.Options{
		Addr:      so.addr,
		Pair:      pair,
		Registry:  reg,
		Tracer:    tracer,
		CacheSize: so.cacheSize,
		QueueSize: so.queueSize,
		Canary:    canary,
		Chaos:     injector,
		Online:    mgr,
		SLO:       newSLOFromFlags(so.sloAvailability, so.sloP99, so.sloFastWindow, so.sloSlowWindow),
	}
	if sopts.SLO != nil {
		fmt.Fprintf(stdout, "slo: burn-rate engine armed (availability %g, p99 %v); snapshot at /v1/slo\n",
			so.sloAvailability, so.sloP99)
	}
	if so.durableDir != "" {
		sopts.DurableDir = filepath.Join(so.durableDir, "serve")
		sopts.CacheSnapshotEvery = so.snapshotInterval
	}
	srv := serve.New(sopts)
	if so.durableDir != "" {
		// Every model is registered by now, so the recovery ladder can
		// restamp them above the restored version floor and readmit the
		// persisted cache before the listener opens.
		ds := srv.RecoverDurable()
		fmt.Fprintf(stdout, "durable: serve recovery — snapshot_restored=%v cache_restored=%d version_floor=%d restamped=%d\n",
			ds.SnapshotRestored, ds.CacheRestored, ds.VersionFloor, ds.Restamped)
	}
	if mgr != nil {
		// serve.New bound the promotion and live-choice hooks; only now
		// may the background collector run.
		mgr.Start()
		defer mgr.Stop()
		retrain := "detect-only (no -shadow-dir)"
		if so.shadowDir != "" {
			retrain = "shadow retraining to " + so.shadowDir
		}
		fmt.Fprintf(stdout, "online: learning loop on model %q, %s; snapshot at /v1/online\n",
			mgr.Model(), retrain)
	}

	if so.debugAddr != "" {
		// The debug surface (pprof + trace ring) listens separately so it
		// can stay firewalled off from the serving address.
		dbg := &http.Server{Addr: so.debugAddr, Handler: srv.DebugHandler()}
		go func() {
			if err := dbg.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(stderr, "debug listener: %v\n", err)
			}
		}()
		defer dbg.Close()
		fmt.Fprintf(stdout, "debug surface on http://%s/debug/pprof and /debug/traces\n", so.debugAddr)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Start() }()

	fmt.Fprintf(stdout, "serving on http://%s (default model %q)\n", so.addr, defaultModelName(reg))
	select {
	case err := <-errCh:
		return err
	case s := <-sig:
		if so.cluster {
			// Cluster drain protocol: announce first (healthz flips to
			// "draining" so routers deregister this node from their
			// rings), keep serving through the grace window, then stop.
			// The two-step exit is what makes a planned node shutdown
			// produce zero 5xx cluster-wide.
			fmt.Fprintf(stdout, "received %s, announcing drain (grace %v)...\n", s, so.drainGrace)
			srv.BeginDrain()
			time.Sleep(so.drainGrace)
		} else {
			fmt.Fprintf(stdout, "received %s, draining...\n", s)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return err
		}
		return <-errCh
	}
}

// runRouter runs the cluster front-end: consistent-hash routing over the
// given peers with failover, hedging and health-probe membership.
func runRouter(ro routerOptions, stdout io.Writer) error {
	peerList := strings.Split(ro.peers, ",")
	for i := range peerList {
		peerList[i] = strings.TrimSpace(peerList[i])
	}
	var injector *fault.ServeInjector
	if ro.chaosServe {
		injector = fault.NewServeInjector(ro.chaosSeed)
		fmt.Fprintf(stdout, "chaos: router injector armed (seed %d); drive it via POST /v1/chaos\n", ro.chaosSeed)
	}
	slo := newSLOFromFlags(ro.sloAvailability, ro.sloP99, ro.sloFastWindow, ro.sloSlowWindow)
	var tracer *obs.Tracer
	if ro.traceSample != 0 {
		tracer = obs.NewTracer(obs.Options{SampleRate: ro.traceSample})
	}
	rt, err := cluster.NewRouter(cluster.RouterOptions{
		Addr:          ro.addr,
		Peers:         peerList,
		Replicas:      ro.replicas,
		ProbeInterval: ro.probeInterval,
		HedgeAfter:    ro.hedgeAfter,
		Chaos:         injector,
		SLO:           slo,
		Tracer:        tracer,
	})
	if err != nil {
		return err
	}
	if slo != nil {
		fmt.Fprintf(stdout, "slo: burn-rate engine armed (availability %g, p99 %v); snapshot at /v1/slo, hedging tightens on budget exhaustion\n",
			ro.sloAvailability, ro.sloP99)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	errCh := make(chan error, 1)
	go func() { errCh <- rt.Start() }()

	fmt.Fprintf(stdout, "routing on http://%s over %d peers (replicas %d, probe %v, hedge %v)\n",
		ro.addr, len(peerList), ro.replicas, ro.probeInterval, ro.hedgeAfter)
	select {
	case err := <-errCh:
		return err
	case s := <-sig:
		fmt.Fprintf(stdout, "received %s, stopping router...\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := rt.Shutdown(ctx); err != nil {
			return err
		}
		return <-errCh
	}
}

// defaultModelName reads the registry's default entry for the banner.
func defaultModelName(reg *serve.Registry) string {
	for _, m := range reg.List() {
		if m.Default {
			return m.Name
		}
	}
	return ""
}

// newPredictor constructs the predictor the flags ask for.
func newPredictor(o systemOptions, pair heteromap.Pair) (heteromap.Predictor, error) {
	switch o.predictor {
	case "tree":
		return heteromap.NewDecisionTree(pair), nil
	case "db":
		if o.dbPath == "" {
			return nil, fmt.Errorf("-predictor db requires -db <file> (write one with hmtrain -out)")
		}
		f, err := os.Open(o.dbPath)
		if err != nil {
			return nil, err
		}
		db, err := train.LoadDB(f)
		f.Close()
		if err != nil {
			return nil, err
		}
		return train.NewLookupPredictor(db), nil
	case "deep":
		deep := heteromap.NewDeepPredictor(pair, 128)
		cfg := heteromap.FastTraining()
		cfg.Objective = core.Energy
		if !o.energy {
			cfg.Objective = core.Performance
		}
		db := heteromap.BuildTrainingDB(pair, cfg)
		if err := deep.Train(db.Samples); err != nil {
			return nil, err
		}
		return deep, nil
	default:
		return nil, fmt.Errorf("unknown predictor %q (want tree, deep, or db)", o.predictor)
	}
}

// newSystem assembles the runtime the flags describe, with the decision
// tree installed as a predictor fallback when it is not already primary.
func newSystem(o systemOptions) (*heteromap.System, error) {
	pair := heteromap.PrimaryPair()
	obj := heteromap.Performance
	if o.energy {
		obj = heteromap.Energy
	}
	pred, err := newPredictor(o, pair)
	if err != nil {
		return nil, err
	}
	sys := heteromap.NewSystem(pair, pred, obj)
	if o.predictor != "tree" {
		sys.WithFallbacks(heteromap.NewDecisionTree(pair))
	}
	return sys, nil
}

// resolveDataset picks the catalog dataset or loads the user edge list.
func resolveDataset(o systemOptions) (*heteromap.Dataset, error) {
	if o.edgeList != "" {
		return heteromap.LoadEdgeListFile(o.edgeList, !o.directed)
	}
	return heteromap.DatasetByName(heteromap.Datasets(o.large), o.input)
}

func buildSystem(o systemOptions) (*heteromap.System, *heteromap.Workload, error) {
	sys, err := newSystem(o)
	if err != nil {
		return nil, nil, err
	}
	b, err := heteromap.BenchmarkByName(o.bench)
	if err != nil {
		return nil, nil, err
	}
	ds, err := resolveDataset(o)
	if err != nil {
		return nil, nil, err
	}
	w, err := sys.Characterize(b, ds)
	if err != nil {
		return nil, nil, err
	}
	return sys, w, nil
}

// runBatch schedules every benchmark on one dataset and prints the batch
// strategy comparison; under -chaos it adds the failure-aware plan.
func runBatch(o systemOptions, chaos bool, rate float64, seed int64, stdout io.Writer) error {
	sys, err := newSystem(o)
	if err != nil {
		return err
	}
	ds, err := resolveDataset(o)
	if err != nil {
		return err
	}
	var ws []*core.Workload
	for _, b := range heteromap.Benchmarks() {
		w, err := sys.Characterize(b, ds)
		if err != nil {
			return err
		}
		ws = append(ws, w)
	}
	fmt.Fprintf(stdout, "batch: %d benchmarks on %s\n", len(ws), ds.Short)
	pair, pred := sys.Pair(), sys.Predictor()
	for _, plan := range sched.Compare(pair, pred, ws) {
		fmt.Fprintln(stdout, plan)
	}
	if chaos {
		inj := heteromap.NewChaosInjector(seed, rate)
		plan := sched.AssignResilient(pair, pred, ws, inj, heteromap.DefaultFaultPolicy())
		fmt.Fprintf(stdout, "%s (chaos rate %.2g, seed %d)\n", plan, rate, seed)
		if plan.Incomplete > 0 {
			return fmt.Errorf("batch lost %d jobs under chaos", plan.Incomplete)
		}
	}
	return nil
}

func usage(stderr io.Writer) {
	fmt.Fprintln(stderr, `usage: heteromap <characterize|predict|run|batch|sweep|phased|explain|serve|list> [flags]
run "heteromap <cmd> -h" for flags`)
}
