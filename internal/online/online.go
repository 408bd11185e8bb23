// Package online closes HeteroMap's predict -> execute -> learn loop.
//
// The offline pipeline (Section V of the paper) trains predictors once,
// from a synthetic autotuned database, and serves them forever. This
// package adds the runtime half the paper's deployment story implies:
// every served prediction is executed against the machine models, the
// realized makespan is compared with the exhaustive-sweep optimum for
// the same discretized cell, and the resulting cost gaps drive three
// mechanisms:
//
//   - Drift detection: per-model-family EWMA of the conformance gap
//     statistic with a consecutive-over-threshold window (drift.go). A
//     workload shift — say the request mix moving from social-network
//     graphs to sparse high-diameter road networks — pushes the tree's
//     gap from ~0.09 to ~1.4 and arms the signal within one window.
//
//   - Shadow retraining with canary promotion: on drift, the manager
//     rebuilds a lookup model from the sliding feedback window using
//     the offline train machinery, scores it against the live model on
//     a holdout replay, persists it atomically (train.SaveFile), and
//     promotes it ONLY through the registry's validated-reload path —
//     a bad retrain quarantines exactly like a bad file reload
//     (retrain.go).
//
//   - Uncertainty routing: per-prediction confidence from the served
//     predictor's own geometry (tree decision margin, NN output margin)
//     deflated by conformal residual quantiles from the feedback
//     window. Low-confidence requests fall back to a bounded exhaustive
//     probe — a capped candidate sweep, microseconds on the machine
//     models — and the probe's result is written back into the
//     feedback stream (confidence.go, probe.go).
//
// The serve-path hook is a thin enqueue into a sharded overwrite-oldest
// ring (feedback.go); all cost evaluation happens in the background
// collector. The package depends only on the existing model/train
// layers and the standard library.
package online

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"heteromap/internal/config"
	"heteromap/internal/durable"
	"heteromap/internal/feature"
	"heteromap/internal/machine"
	"heteromap/internal/obs"
	"heteromap/internal/train"
)

// Defaults for Options fields left zero, and the learning loop's fixed
// sizes, which no option changes.
const (
	DefaultIngestCap      = 4096
	DefaultIngestShards   = 8
	DefaultWindowSize     = 2048
	DefaultDriftAlpha     = 0.1
	DefaultDriftThreshold = 0.25
	DefaultDriftWindow    = 16
	DefaultProbeCap       = 32
	DefaultProbeQuantile  = 0.9
	DefaultRetrainMin     = 256
	DefaultHoldoutFrac    = 0.25
	DefaultDrainBatch     = 512
	DefaultInterval       = 250 * time.Millisecond
	DefaultSnapshotTicks  = 32
)

// PromoteFunc installs a shadow database for a model family through the
// serving layer's validated-reload path and returns the new registry
// version. The serving layer binds this (BindPromote) so the online
// package never imports serve.
type PromoteFunc func(model, path string) (uint64, error)

// LiveFunc returns the live model's choice for a characterization; the
// holdout replay scores the shadow candidate against it.
type LiveFunc func(feature.Vector) config.M

// Options configures a Manager. Zero-valued fields take the package
// defaults; Pair is required.
type Options struct {
	// Pair is the accelerator pair outcomes are realized on.
	Pair machine.Pair
	// Objective selects makespan or energy as the realized cost.
	Objective train.Objective
	// Model is the registry family whose serving this manager feeds back
	// on (the drift signal and retraining are tracked under this name).
	Model string

	// DriftAlpha, DriftThreshold, DriftWindow parameterize the detector.
	DriftAlpha     float64
	DriftThreshold float64
	DriftWindow    int

	// UncertaintyFloor is the confidence below which a request routes to
	// the exhaustive probe. Zero disables uncertainty routing.
	UncertaintyFloor float64
	// ProbeCap bounds the candidate grid a probe sweeps (default 32,
	// stride-sampled from the full enumeration — 696 on the primary
	// pair — so a probe stays microsecond-bounded).
	ProbeCap int

	// RetrainMin is the minimum window size before a shadow retrain is
	// attempted (default 256).
	RetrainMin int
	// ShadowDir is where shadow databases are written; empty disables
	// retraining.
	ShadowDir string
	// MutateShadow, when set, edits the shadow file after it is written
	// and before promotion — the corruption seam the quarantine tests
	// use to prove a bad retrain never serves.
	MutateShadow func(path string) error

	// Tracer, when set, receives retrain/promotion log events.
	Tracer *obs.Tracer

	// Interval is the background collector period (default 250ms).
	Interval time.Duration

	// DurableDir enables crash-safe persistence of the learning state:
	// collected outcomes journal to a WAL under <dir>/wal and the window
	// plus drift state snapshot periodically to <dir>/window.snap, with
	// the full recovery ladder run at construction. Empty disables.
	DurableDir string
	// SnapshotTicks is the durable-snapshot cadence in collector ticks
	// (default DefaultSnapshotTicks when DurableDir is set).
	SnapshotTicks int
	// WindowFlushEvery enables the periodic window auto-flush: every
	// interval the window is persisted to WindowFlushPath as a training
	// database (FlushWindow). Zero disables.
	WindowFlushEvery time.Duration
	// WindowFlushPath is where the auto-flush writes.
	WindowFlushPath string
	// Kill is the crash-injection seam threaded through every durable
	// write (nil in production).
	Kill durable.KillFunc
}

func (o Options) withDefaults() Options {
	if o.DriftAlpha <= 0 || o.DriftAlpha > 1 {
		o.DriftAlpha = DefaultDriftAlpha
	}
	if o.DriftThreshold <= 0 {
		o.DriftThreshold = DefaultDriftThreshold
	}
	if o.DriftWindow <= 0 {
		o.DriftWindow = DefaultDriftWindow
	}
	if o.ProbeCap <= 0 {
		o.ProbeCap = DefaultProbeCap
	}
	if o.RetrainMin <= 0 {
		o.RetrainMin = DefaultRetrainMin
	}
	if o.Interval <= 0 {
		o.Interval = DefaultInterval
	}
	if o.DurableDir != "" && o.SnapshotTicks <= 0 {
		o.SnapshotTicks = DefaultSnapshotTicks
	}
	return o
}

// cellTruth caches the expensive per-cell work: the synthesized job and
// the exhaustive-sweep optimum. Both are fully determined by the
// discretized key, so repeat observations of a cell cost one candidate
// evaluation instead of a sweep.
type cellTruth struct {
	job      machine.Job
	bestM    config.M
	bestCost float64
}

// Manager owns the feedback stream, the drift detector, and the shadow
// retraining loop for one accelerator pair.
type Manager struct {
	opts     Options
	limits   config.Limits
	probeSet []config.M
	// sweep prices the full grid for ground truth; probeSweep prices
	// the probe set.
	sweep      *train.Sweep
	probeSweep *train.Sweep
	ingest     *ingestRing
	window     *Window
	drift      *Detector

	mu      sync.Mutex
	promote PromoteFunc
	live    LiveFunc
	residQ  map[string]float64 // predictor name -> residual gap quantile
	// cells caches per-cell ground truth keyed on the binary feature key
	// — built on the serve path, so the key must cost nothing to make.
	cells map[feature.BinaryKey]cellTruth
	last  *RetrainReport
	seq   uint64 // shadow file sequence

	ingested   atomic.Uint64
	processed  atomic.Uint64
	probes     atomic.Uint64
	retrains   atomic.Uint64
	promotions atomic.Uint64
	rejections atomic.Uint64

	// dur is the durability bookkeeping (durable.go); touched only at
	// construction and from the collector tick.
	dur durableState

	stop chan struct{}
	done chan struct{}
}

// New builds a manager for the pair in opts.
func New(opts Options) *Manager {
	opts = opts.withDefaults()
	limits := opts.Pair.Limits()
	cands := config.Enumerate(limits)
	probeSet := capCandidates(cands, opts.ProbeCap)
	m := &Manager{
		opts:       opts,
		limits:     limits,
		probeSet:   probeSet,
		sweep:      train.NewSweep(opts.Pair, opts.Objective, cands),
		probeSweep: train.NewSweep(opts.Pair, opts.Objective, probeSet),
		ingest:     newIngestRing(DefaultIngestCap, DefaultIngestShards),
		window:     NewWindow(DefaultWindowSize),
		drift:      NewDetector(opts.DriftAlpha, opts.DriftThreshold, opts.DriftWindow),
		residQ:     make(map[string]float64),
		cells:      make(map[feature.BinaryKey]cellTruth),
	}
	m.recoverDurable()
	return m
}

// realize is the realized cost of running a job under a configuration:
// the machine models' makespan or energy, per the objective.
func (m *Manager) realize(job machine.Job, cfg config.M) float64 {
	return train.Metric(m.opts.Pair, m.opts.Objective, job, cfg)
}

// capCandidates stride-samples the grid down to at most cap entries,
// always keeping the first (GPU) candidate.
func capCandidates(cands []config.M, cap int) []config.M {
	if len(cands) <= cap {
		return cands
	}
	out := make([]config.M, 0, cap)
	stride := float64(len(cands)) / float64(cap)
	for i := 0; i < cap; i++ {
		out = append(out, cands[int(float64(i)*stride)])
	}
	return out
}

// Observe is the serve-path hook: it enqueues one served prediction for
// background collection. It never blocks and never allocates.
func (m *Manager) Observe(s Sample) {
	m.ingest.Add(s)
	m.ingested.Add(1)
}

// Start launches the background collector. Stop shuts it down. Tests
// drive Tick directly and never call Start.
func (m *Manager) Start() {
	m.mu.Lock()
	if m.stop != nil {
		m.mu.Unlock()
		return
	}
	m.stop = make(chan struct{})
	m.done = make(chan struct{})
	stop, done := m.stop, m.done
	m.mu.Unlock()
	go func() {
		defer close(done)
		t := time.NewTicker(m.opts.Interval)
		defer t.Stop()
		var flush <-chan time.Time
		if m.opts.WindowFlushEvery > 0 && m.opts.WindowFlushPath != "" {
			ft := time.NewTicker(m.opts.WindowFlushEvery)
			defer ft.Stop()
			flush = ft.C
		}
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				m.Tick()
			case <-flush:
				m.FlushWindow(m.opts.WindowFlushPath)
			}
		}
	}()
}

// Stop terminates the background collector and waits for it to exit.
func (m *Manager) Stop() {
	m.mu.Lock()
	stop, done := m.stop, m.done
	m.stop, m.done = nil, nil
	m.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// Tick drains one batch of pending feedback, realizes outcomes, updates
// drift state and residual quantiles, and — if a family is drifting
// with enough window — runs one shadow retrain. It returns the number
// of samples processed. Deterministic tests call this directly.
func (m *Manager) Tick() int {
	batch := m.ingest.Drain(DefaultDrainBatch)
	for _, s := range batch {
		o := m.collect(s)
		m.journal(o)
	}
	m.sealBatch(len(batch))
	if len(batch) > 0 {
		m.refreshResiduals()
	}
	m.maybeRetrain()
	return len(batch)
}

// collect turns one pending sample into an outcome: synthesize the
// cell's job, realize the served configuration's cost, sweep the
// exhaustive best, and feed the gap to the window and detector. The
// outcome is returned so the tick can journal it.
func (m *Manager) collect(s Sample) Outcome {
	truth, ok := m.cellLookup(s.Features)
	if !ok {
		job, bestM, bestCost := m.groundTruth(s.Features)
		truth = cellTruth{job: job, bestM: bestM, bestCost: bestCost}
		m.cellStore(s.Features, truth)
	}
	chosen := m.realize(truth.job, s.M)
	gap := 0.0
	if truth.bestCost > 0 {
		gap = chosen/truth.bestCost - 1
	}
	if gap < 0 {
		gap = 0
	}
	o := Outcome{
		Sample:     s,
		ChosenCost: chosen,
		BestCost:   truth.bestCost,
		BestM:      truth.bestM,
		Gap:        gap,
		When:       time.Now(),
	}
	m.window.Add(o)
	m.drift.Observe(s.Model, s.Key, gap)
	m.processed.Add(1)
	return o
}

// synthesizeJob materializes the deterministic job for a discretized
// cell: the rng is seeded from the cell's hash, so every observation of
// a cell — collector or probe — realizes costs on the identical job.
func synthesizeJob(f feature.Vector) machine.Job {
	rng := rand.New(rand.NewSource(int64(f.ShardHash())))
	combo := train.Synthesize(f.B(), f.I(), rng)
	return machine.Job{Work: combo.Work, FootprintBytes: combo.Footprint}
}

// groundTruth synthesizes the cell's job (deterministically from the
// discretized features) and sweeps the candidate grid for the optimum.
func (m *Manager) groundTruth(f feature.Vector) (machine.Job, config.M, float64) {
	job := synthesizeJob(f)
	best := m.sweep.Best(job, nil)
	return job, best.Best, best.Score
}

func (m *Manager) cellLookup(f feature.Vector) (cellTruth, bool) {
	key := f.Binary()
	m.mu.Lock()
	defer m.mu.Unlock()
	t, ok := m.cells[key]
	return t, ok
}

func (m *Manager) cellStore(f feature.Vector, t cellTruth) {
	key := f.Binary()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cells[key] = t
}

// refreshResiduals recomputes the per-predictor residual gap quantile
// from the current window; Assess uses it to deflate confidence.
func (m *Manager) refreshResiduals() {
	outs := m.window.Snapshot()
	byPred := make(map[string][]float64)
	for _, o := range outs {
		byPred[o.Predictor] = append(byPred[o.Predictor], o.Gap)
	}
	q := make(map[string]float64, len(byPred))
	for name, gaps := range byPred {
		q[name] = quantile(gaps, DefaultProbeQuantile)
	}
	m.mu.Lock()
	m.residQ = q
	m.mu.Unlock()
}

// quantile returns the q-quantile of values (nearest-rank, sorted copy).
func quantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}

// residualQuantile returns the predictor's current residual quantile.
func (m *Manager) residualQuantile(predictor string) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.residQ[predictor]
}

// BindPromote installs the promotion callback (first bind wins; the
// serving layer binds the registry's validated-reload path here).
func (m *Manager) BindPromote(fn PromoteFunc) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.promote == nil {
		m.promote = fn
	}
}

// BindLive installs the live-model callback used by holdout replay.
func (m *Manager) BindLive(fn LiveFunc) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.live == nil {
		m.live = fn
	}
}

// Model returns the registry family this manager feeds back on.
func (m *Manager) Model() string { return m.opts.Model }

// UncertaintyFloor returns the configured routing floor (0 = disabled).
func (m *Manager) UncertaintyFloor() float64 { return m.opts.UncertaintyFloor }

// Window exposes the outcome window (read-only use: snapshots).
func (m *Manager) FeedbackWindow() *Window { return m.window }

// Drift exposes the detector.
func (m *Manager) Drift() *Detector { return m.drift }

// Pending reports samples awaiting collection.
func (m *Manager) Pending() int { return m.ingest.Pending() }
