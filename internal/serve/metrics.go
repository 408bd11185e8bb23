package serve

import (
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"heteromap/internal/obs"
)

// modelStats aggregates per-model serving counters.
type modelStats struct {
	requests atomic.Uint64
	latency  *obs.Histogram
}

// Metrics is the serving subsystem's instrumentation: atomic counters and
// histograms covering requests, errors, admission, inference, caching,
// fallback events and per-model latency. Everything is lock-free on the
// hot path; the per-model map uses sync.Map keyed by model name.
//
// Some fields have no producer since misses are answered inline —
// Hedges, HedgeWins, SafeDefaults, WorkerRestarts, ChaosStalls,
// QueueWait, ShedWait and BatchAssembly — and stay so the /metrics
// exposition keeps every family it has always had.
type Metrics struct {
	// Requests counts accepted prediction items (batch items count
	// individually); HTTPErrors counts 4xx/5xx responses; QueueFull
	// counts misses shed at admission. Batches counts inference passes
	// and BatchItems the predictions those passes answered, so
	// BatchItems/Batches is the mean dedup-and-batch factor.
	Requests    atomic.Uint64
	HTTPErrors  atomic.Uint64
	InFlight    atomic.Int64
	QueueFull   atomic.Uint64
	Batches     atomic.Uint64
	BatchItems  atomic.Uint64
	Fallbacks   atomic.Uint64
	ReloadCount atomic.Uint64

	// Self-healing counters. ReloadRejected counts reloads whose
	// candidate snapshot was quarantined (canary failure or corrupt/
	// empty database); BreakerRouted counts misses sent straight to the
	// last-known-good version because the active version's breaker was
	// open; DeadlineDrops counts misses whose deadline passed before
	// their answer.
	ReloadRejected atomic.Uint64
	CanaryRuns     atomic.Uint64
	Hedges         atomic.Uint64
	HedgeWins      atomic.Uint64
	BreakerRouted  atomic.Uint64
	SafeDefaults   atomic.Uint64
	DeadlineDrops  atomic.Uint64

	// Chaos-harness counters: the Chaos* counters record injected serve
	// faults.
	WorkerRestarts   atomic.Uint64
	ChaosSlowModel   atomic.Uint64
	ChaosStalls      atomic.Uint64
	ChaosQueueReject atomic.Uint64

	// RequestLatency is per prediction, from the cache lookup to the
	// answer being ready.
	RequestLatency *obs.Histogram

	// Per-stage latency attribution for the predict path, exposed as
	// heteromap_stage_duration_seconds{stage=...}. CacheLookup is one
	// per prediction, Inference one per inference pass.
	QueueWait     *obs.Histogram
	ShedWait      *obs.Histogram
	BatchAssembly *obs.Histogram
	CacheLookup   *obs.Histogram
	Inference     *obs.Histogram

	perModel sync.Map // string -> *modelStats
}

// NewMetrics builds an empty metrics set.
func NewMetrics() *Metrics {
	return &Metrics{
		RequestLatency: obs.NewHistogram(),
		QueueWait:      obs.NewHistogram(),
		ShedWait:       obs.NewHistogram(),
		BatchAssembly:  obs.NewHistogram(),
		CacheLookup:    obs.NewHistogram(),
		Inference:      obs.NewHistogram(),
	}
}

// Model returns (creating on first use) the stats bucket for a model.
func (m *Metrics) Model(name string) *modelStats {
	if s, ok := m.perModel.Load(name); ok {
		return s.(*modelStats)
	}
	s, _ := m.perModel.LoadOrStore(name, &modelStats{latency: obs.NewHistogram()})
	return s.(*modelStats)
}

// ObserveModel records one inference pass answered by a model and its
// duration. A pass counts once however many rows it answered, and a
// cache hit runs no pass.
func (m *Metrics) ObserveModel(name string, d time.Duration) {
	s := m.Model(name)
	s.requests.Add(1)
	s.latency.Observe(d)
}

// breakerCode maps a breaker state name to its numeric gauge value.
func breakerCode(state string) int64 {
	switch state {
	case "open":
		return 1
	case "half-open":
		return 2
	}
	return 0
}

// Families returns the core /metrics families in page order. The
// cache, queue-depth callback and model listing supply point-in-time
// gauges (models may be nil when no registry is attached).
func (m *Metrics) Families(cache *Cache, queueDepth func() int, models []ModelInfo) []obs.Family {
	hits, misses, evictions := cache.Stats()
	fams := []obs.Family{
		obs.Counter("heteromap_requests_total", "prediction items accepted", m.Requests.Load()),
		obs.Counter("heteromap_http_errors_total", "HTTP error responses", m.HTTPErrors.Load()),
		obs.Counter("heteromap_queue_full_total", "requests rejected because the queue was full", m.QueueFull.Load()),
		obs.Counter("heteromap_batches_total", "inference passes over a request's cache misses", m.Batches.Load()),
		obs.Counter("heteromap_batch_items_total", "items answered by an inference pass: its rows and their in-request repeats", m.BatchItems.Load()),
		obs.Counter("heteromap_fallback_events_total", "predictor fallback-chain degradations", m.Fallbacks.Load()),
		obs.Counter("heteromap_model_reloads_total", "model hot-swap reloads", m.ReloadCount.Load()),
		obs.Counter("heteromap_reload_rejected_total", "reloads whose candidate snapshot was quarantined", m.ReloadRejected.Load()),
		obs.Counter("heteromap_canary_runs_total", "canary validation runs against candidate snapshots", m.CanaryRuns.Load()),
		obs.Counter("heteromap_hedges_total", "inferences hedged after the stage budget elapsed", m.Hedges.Load()),
		obs.Counter("heteromap_hedge_wins_total", "hedged inferences answered by the hedge target", m.HedgeWins.Load()),
		obs.Counter("heteromap_breaker_routed_total", "dispatches routed to last-known-good by an open breaker", m.BreakerRouted.Load()),
		obs.Counter("heteromap_safe_default_total", "answers served from the fixed safety default", m.SafeDefaults.Load()),
		obs.Counter("heteromap_deadline_drops_total", "tasks dropped because their deadline passed in the queue", m.DeadlineDrops.Load()),
		obs.Counter("heteromap_worker_restarts_total", "stalled batch workers replaced by the watchdog", m.WorkerRestarts.Load()),
		obs.Counter("heteromap_chaos_slow_model_total", "injected slow-model faults", m.ChaosSlowModel.Load()),
		obs.Counter("heteromap_chaos_worker_stalls_total", "injected worker-stall faults", m.ChaosStalls.Load()),
		obs.Counter("heteromap_chaos_queue_rejects_total", "injected queue-saturation rejections", m.ChaosQueueReject.Load()),
		obs.Counter("heteromap_cache_hits_total", "prediction cache hits", hits),
		obs.Counter("heteromap_cache_misses_total", "prediction cache misses", misses),
		obs.Counter("heteromap_cache_evictions_total", "prediction cache evictions", evictions),
		obs.Gauge("heteromap_cache_entries", "live prediction cache entries", int64(cache.Len())),
		obs.Gauge("heteromap_in_flight", "requests currently being served", m.InFlight.Load()),
		obs.Gauge("heteromap_queue_depth", "miss passes in flight", int64(queueDepth())),
	}
	if len(models) > 0 {
		breakers := obs.Family{Name: "heteromap_model_breaker_state", Help: "per-model-version circuit state (0 closed, 1 open, 2 half-open)", Type: "gauge"}
		for _, info := range models {
			breakers.Int(breakerCode(info.Breaker), obs.Label{Name: "model", Value: info.Name},
				obs.Label{Name: "version", Value: strconv.FormatUint(info.Version, 10)})
		}
		fams = append(fams, breakers)
	}
	total := obs.Family{Name: "heteromap_request_duration_seconds", Help: "end-to-end prediction latency", Type: "histogram"}
	total.Histogram(m.RequestLatency)
	stages := obs.Family{Name: "heteromap_stage_duration_seconds", Help: "per-stage predict-path latency", Type: "histogram"}
	// The "total" stage aliases RequestLatency so dashboards can stack
	// stages against the end-to-end figure from one metric family.
	for _, st := range []struct {
		name string
		h    *obs.Histogram
	}{{"queue", m.QueueWait}, {"shed", m.ShedWait}, {"batch", m.BatchAssembly},
		{"cache", m.CacheLookup}, {"inference", m.Inference}, {"total", m.RequestLatency}} {
		stages.Histogram(st.h, obs.Label{Name: "stage", Value: st.name})
	}
	fams = append(fams, total, stages)

	// Per-model series, sorted for deterministic scrapes.
	var names []string
	m.perModel.Range(func(k, _ any) bool { names = append(names, k.(string)); return true })
	sort.Strings(names)
	if len(names) > 0 {
		requests := obs.Family{Name: "heteromap_model_requests_total", Help: "inference passes per model", Type: "counter"}
		latency := obs.Family{Name: "heteromap_model_duration_seconds", Help: "per-model inference latency", Type: "histogram"}
		for _, n := range names {
			s, model := m.Model(n), obs.Label{Name: "model", Value: n}
			requests.Int(int64(s.requests.Load()), model)
			latency.Histogram(s.latency, model)
		}
		fams = append(fams, requests, latency)
	}
	return fams
}
