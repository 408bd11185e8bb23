package serve

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// latencyBuckets are the histogram upper bounds in seconds, log-spaced
// from 5µs to 1s — prediction inference sits in the tens of microseconds,
// HTTP framing and slow models push the tail into milliseconds.
var latencyBuckets = []float64{
	5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1,
}

// Histogram is a fixed-bucket latency histogram with atomic counters;
// the final implicit bucket is +Inf.
type Histogram struct {
	counts []atomic.Uint64 // len(latencyBuckets)+1
	total  atomic.Uint64
	sumNS  atomic.Uint64

	// exemplar remembers the most recent traced observation, linking the
	// histogram to a concrete trace in /debug/traces. Text exposition
	// 0.0.4 has no native exemplar syntax, so it is emitted as a
	// separate untyped <name>_exemplar series carrying a trace_id label.
	exemplar atomic.Pointer[histExemplar]
}

type histExemplar struct {
	traceID string
	seconds float64
}

// NewHistogram builds an empty histogram over latencyBuckets.
func NewHistogram() *Histogram {
	return &Histogram{counts: make([]atomic.Uint64, len(latencyBuckets)+1)}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	sec := d.Seconds()
	i := sort.SearchFloat64s(latencyBuckets, sec)
	h.counts[i].Add(1)
	h.total.Add(1)
	h.sumNS.Add(uint64(d.Nanoseconds()))
}

// ObserveTraced records one duration and, when the observation came from
// a traced request, remembers its trace id as the histogram's exemplar.
func (h *Histogram) ObserveTraced(d time.Duration, traceID string) {
	h.Observe(d)
	if traceID != "" {
		h.exemplar.Store(&histExemplar{traceID: traceID, seconds: d.Seconds()})
	}
}

// Exemplar returns the last traced observation ("" and 0 when none).
func (h *Histogram) Exemplar() (traceID string, seconds float64) {
	if ex := h.exemplar.Load(); ex != nil {
		return ex.traceID, ex.seconds
	}
	return "", 0
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.total.Load() }

// Sum returns the total observed duration across all observations.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sumNS.Load()) }

// Quantile estimates the q-th quantile (0..1) by linear interpolation
// within the containing bucket, the standard Prometheus histogram
// estimate. Returns 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum uint64
	lower := 0.0
	for i := range h.counts {
		n := h.counts[i].Load()
		upper := latencyBuckets[len(latencyBuckets)-1]
		if i < len(latencyBuckets) {
			upper = latencyBuckets[i]
		}
		if float64(cum+n) >= rank && n > 0 {
			frac := (rank - float64(cum)) / float64(n)
			return lower + (upper-lower)*frac
		}
		cum += n
		lower = upper
	}
	return latencyBuckets[len(latencyBuckets)-1]
}

// WriteProm emits the histogram in Prometheus text exposition format —
// exported so other serving layers (the cluster router) can reuse the
// bucket layout and exemplar convention in their own expositions.
func (h *Histogram) WriteProm(w io.Writer, name, labels string) {
	h.writeProm(w, name, labels)
}

// writeProm emits the histogram in Prometheus text exposition format.
func (h *Histogram) writeProm(w io.Writer, name, labels string) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum uint64
	for i, ub := range latencyBuckets {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{%s%sle=\"%g\"} %d\n", name, labels, sep, ub, cum)
	}
	cum += h.counts[len(latencyBuckets)].Load()
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, cum)
	if labels == "" {
		fmt.Fprintf(w, "%s_sum %g\n", name, float64(h.sumNS.Load())/1e9)
		fmt.Fprintf(w, "%s_count %d\n", name, h.total.Load())
	} else {
		fmt.Fprintf(w, "%s_sum{%s} %g\n", name, labels, float64(h.sumNS.Load())/1e9)
		fmt.Fprintf(w, "%s_count{%s} %d\n", name, labels, h.total.Load())
	}
	if ex := h.exemplar.Load(); ex != nil {
		fmt.Fprintf(w, "%s_exemplar{%s%strace_id=%q} %g\n", name, labels, sep, ex.traceID, ex.seconds)
	}
}

// modelStats aggregates per-model serving counters.
type modelStats struct {
	requests atomic.Uint64
	latency  *Histogram
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
	RequestLatency *Histogram

	// Per-stage latency attribution for the predict path, exposed as
	// heteromap_stage_duration_seconds{stage=...}. CacheLookup is one
	// per prediction, Inference one per inference pass.
	QueueWait     *Histogram
	ShedWait      *Histogram
	BatchAssembly *Histogram
	CacheLookup   *Histogram
	Inference     *Histogram

	perModel sync.Map // string -> *modelStats
}

// NewMetrics builds an empty metrics set.
func NewMetrics() *Metrics {
	return &Metrics{
		RequestLatency: NewHistogram(),
		QueueWait:      NewHistogram(),
		ShedWait:       NewHistogram(),
		BatchAssembly:  NewHistogram(),
		CacheLookup:    NewHistogram(),
		Inference:      NewHistogram(),
	}
}

// Stages enumerates the per-stage histograms in exposition order; the
// "total" stage aliases RequestLatency so dashboards can stack stages
// against the end-to-end figure from one metric family.
func (m *Metrics) Stages() []struct {
	Name string
	H    *Histogram
} {
	return []struct {
		Name string
		H    *Histogram
	}{
		{"queue", m.QueueWait},
		{"shed", m.ShedWait},
		{"batch", m.BatchAssembly},
		{"cache", m.CacheLookup},
		{"inference", m.Inference},
		{"total", m.RequestLatency},
	}
}

// Model returns (creating on first use) the stats bucket for a model.
func (m *Metrics) Model(name string) *modelStats {
	if s, ok := m.perModel.Load(name); ok {
		return s.(*modelStats)
	}
	s, _ := m.perModel.LoadOrStore(name, &modelStats{latency: NewHistogram()})
	return s.(*modelStats)
}

// ObserveModel records one prediction served by a model.
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

// WritePrometheus emits every series in Prometheus text format. The
// cache, queue-depth callback and model listing supply point-in-time
// gauges (models may be nil when no registry is attached).
func (m *Metrics) WritePrometheus(w io.Writer, cache *Cache, queueDepth func() int, models []ModelInfo) {
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}

	counter("heteromap_requests_total", "prediction items accepted", m.Requests.Load())
	counter("heteromap_http_errors_total", "HTTP error responses", m.HTTPErrors.Load())
	counter("heteromap_queue_full_total", "requests rejected because the queue was full", m.QueueFull.Load())
	counter("heteromap_batches_total", "micro-batches drained by the worker pool", m.Batches.Load())
	counter("heteromap_batch_items_total", "prediction items processed in batches", m.BatchItems.Load())
	counter("heteromap_fallback_events_total", "predictor fallback-chain degradations", m.Fallbacks.Load())
	counter("heteromap_model_reloads_total", "model hot-swap reloads", m.ReloadCount.Load())
	counter("heteromap_reload_rejected_total", "reloads whose candidate snapshot was quarantined", m.ReloadRejected.Load())
	counter("heteromap_canary_runs_total", "canary validation runs against candidate snapshots", m.CanaryRuns.Load())
	counter("heteromap_hedges_total", "inferences hedged after the stage budget elapsed", m.Hedges.Load())
	counter("heteromap_hedge_wins_total", "hedged inferences answered by the hedge target", m.HedgeWins.Load())
	counter("heteromap_breaker_routed_total", "dispatches routed to last-known-good by an open breaker", m.BreakerRouted.Load())
	counter("heteromap_safe_default_total", "answers served from the fixed safety default", m.SafeDefaults.Load())
	counter("heteromap_deadline_drops_total", "tasks dropped because their deadline passed in the queue", m.DeadlineDrops.Load())
	counter("heteromap_worker_restarts_total", "stalled batch workers replaced by the watchdog", m.WorkerRestarts.Load())
	counter("heteromap_chaos_slow_model_total", "injected slow-model faults", m.ChaosSlowModel.Load())
	counter("heteromap_chaos_worker_stalls_total", "injected worker-stall faults", m.ChaosStalls.Load())
	counter("heteromap_chaos_queue_rejects_total", "injected queue-saturation rejections", m.ChaosQueueReject.Load())

	hits, misses, evictions := cache.Stats()
	counter("heteromap_cache_hits_total", "prediction cache hits", hits)
	counter("heteromap_cache_misses_total", "prediction cache misses", misses)
	counter("heteromap_cache_evictions_total", "prediction cache evictions", evictions)
	gauge("heteromap_cache_entries", "live prediction cache entries", int64(cache.Len()))

	gauge("heteromap_in_flight", "requests currently being served", m.InFlight.Load())
	gauge("heteromap_queue_depth", "prediction tasks waiting in the batch queue", int64(queueDepth()))

	if len(models) > 0 {
		fmt.Fprintf(w, "# HELP heteromap_model_breaker_state per-model-version circuit state (0 closed, 1 open, 2 half-open)\n")
		fmt.Fprintf(w, "# TYPE heteromap_model_breaker_state gauge\n")
		for _, info := range models {
			fmt.Fprintf(w, "heteromap_model_breaker_state{model=%q,version=\"%d\"} %d\n",
				info.Name, info.Version, breakerCode(info.Breaker))
		}
	}

	fmt.Fprintf(w, "# HELP heteromap_request_duration_seconds end-to-end prediction latency\n")
	fmt.Fprintf(w, "# TYPE heteromap_request_duration_seconds histogram\n")
	m.RequestLatency.writeProm(w, "heteromap_request_duration_seconds", "")

	fmt.Fprintf(w, "# HELP heteromap_stage_duration_seconds per-stage predict-path latency\n")
	fmt.Fprintf(w, "# TYPE heteromap_stage_duration_seconds histogram\n")
	for _, st := range m.Stages() {
		st.H.writeProm(w, "heteromap_stage_duration_seconds", fmt.Sprintf("stage=%q", st.Name))
	}

	// Per-model series, sorted for deterministic scrapes.
	var names []string
	m.perModel.Range(func(k, _ any) bool { names = append(names, k.(string)); return true })
	sort.Strings(names)
	if len(names) > 0 {
		fmt.Fprintf(w, "# HELP heteromap_model_requests_total predictions served per model\n")
		fmt.Fprintf(w, "# TYPE heteromap_model_requests_total counter\n")
		for _, n := range names {
			s := m.Model(n)
			fmt.Fprintf(w, "heteromap_model_requests_total{model=%q} %d\n", n, s.requests.Load())
		}
		fmt.Fprintf(w, "# HELP heteromap_model_duration_seconds per-model inference latency\n")
		fmt.Fprintf(w, "# TYPE heteromap_model_duration_seconds histogram\n")
		for _, n := range names {
			m.Model(n).latency.writeProm(w, "heteromap_model_duration_seconds", fmt.Sprintf("model=%q", n))
		}
	}
}
