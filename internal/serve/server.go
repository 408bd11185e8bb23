package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"heteromap/internal/config"
	"heteromap/internal/durable"
	"heteromap/internal/fault"
	"heteromap/internal/feature"
	"heteromap/internal/machine"
	"heteromap/internal/obs"
	"heteromap/internal/online"
)

// Options size the serving pipeline; zero values select the defaults in
// parentheses.
type Options struct {
	// Addr is the listen address for Start ("127.0.0.1:8080").
	Addr string
	// Pair is the accelerator pair (machine.PrimaryPair).
	Pair machine.Pair
	// Registry supplies the models; nil builds an empty registry the
	// caller must populate before serving predictions.
	Registry *Registry

	// CacheSize / CacheShards size the prediction cache (4096 / 16).
	CacheSize   int
	CacheShards int
	// QueueSize bounds the cache misses answered concurrently (1024); a
	// miss beyond it is shed with 503 and a Retry-After hint.
	QueueSize int
	// Step is the feature discretization increment
	// (feature.DiscretizationStep).
	Step float64
	// RequestTimeout bounds one prediction end to end (5s); a miss whose
	// deadline passes before its answer is ready gets 504.
	RequestTimeout time.Duration
	// MaxBodyBytes bounds a request body (1 MiB); larger bodies are
	// rejected with 413 before decoding.
	MaxBodyBytes int64

	// BreakerThreshold/BreakerCooldown configure the per-model-version
	// circuit breakers (5 consecutive failures — degraded answers or
	// inferences slower than breakerSlowInference — / 64 refused
	// dispatches before a half-open probe).
	BreakerThreshold int
	BreakerCooldown  int

	// Canary gates /v1/reload: candidate snapshots must pass the golden
	// set before replacing the active model (nil: sanity checks only).
	Canary *CanaryConfig
	// Chaos injects serve-path faults for resilience testing (nil:
	// none). The /v1/chaos endpoint is enabled only when this is set.
	Chaos *fault.ServeInjector

	// Online closes the predict -> execute -> learn loop: every served
	// prediction is fed back for outcome collection and drift detection,
	// low-confidence answers are re-derived by exhaustive probe, and
	// drift-triggered shadow retrains promote through the same
	// canary-gated reload path as /v1/reload (nil: no online learning).
	// The /v1/online endpoint is enabled only when this is set.
	Online *online.Manager

	// DurableDir enables serving-tier durability: the prediction cache
	// and registry version counter snapshot to <dir>/cache.snap, and
	// RecoverDurable restores them on restart so a rebooted node answers
	// warm. Empty disables.
	DurableDir string
	// CacheSnapshotEvery is the periodic cache-snapshot cadence started
	// by RecoverDurable (zero: only explicit and shutdown snapshots).
	CacheSnapshotEvery time.Duration
	// Kill is the crash-injection seam threaded through durable writes
	// (nil in production).
	Kill durable.KillFunc

	// Tracer records per-request traces and provenance; nil builds a
	// default tracer unless DisableTracing is set. Supply one explicitly
	// to control sampling, ring size or the log sink.
	Tracer *obs.Tracer
	// DisableTracing turns request tracing off entirely (the
	// obs-overhead benchmark measures this split; production servers
	// should leave it on).
	DisableTracing bool

	// SLO tracks availability and p99-latency objectives over the served
	// traffic and exposes /v1/slo plus the heteromap_slo_* gauges. Nil
	// disables SLO tracking.
	SLO *obs.SLO
}

func (o Options) withDefaults() Options {
	if o.Addr == "" {
		o.Addr = "127.0.0.1:8080"
	}
	if o.Pair.GPU == nil || o.Pair.Multicore == nil {
		o.Pair = machine.PrimaryPair()
	}
	if o.CacheSize <= 0 {
		o.CacheSize = 4096
	}
	if o.CacheShards <= 0 {
		o.CacheShards = 16
	}
	if o.QueueSize <= 0 {
		o.QueueSize = 1024
	}
	if o.Step <= 0 {
		o.Step = feature.DiscretizationStep
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 5 * time.Second
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 1 << 20
	}
	if o.BreakerThreshold == 0 {
		o.BreakerThreshold = 5
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 64
	}
	if o.Tracer == nil && !o.DisableTracing {
		o.Tracer = obs.NewTracer(obs.Options{})
	}
	if o.DisableTracing {
		o.Tracer = nil
	}
	return o
}

// defaultStep is the discretization increment used when no explicit step
// is configured.
func defaultStep() float64 { return feature.DiscretizationStep }

// Server is the prediction service: registry -> cache -> predictor ->
// metrics behind an HTTP/JSON API, with canary-gated reloads,
// per-version breakers and a chaos harness. A cache miss is answered
// inline on the request's goroutine (miss.go).
type Server struct {
	opts     Options
	registry *Registry
	cache    *Cache
	metrics  *Metrics
	tracer   *obs.Tracer // nil when tracing is disabled
	slo      *obs.SLO    // nil when SLO tracking is disabled
	started  time.Time

	// draining flips on BeginDrain: /healthz reports "draining" so a
	// cluster router deregisters this node from its ring, while
	// predictions keep being served — planned shutdown must produce zero
	// 5xx for the window the routers need to move traffic away.
	draining atomic.Bool

	// admit is the miss-path admission semaphore (QueueSize slots); its
	// length is the number of misses in flight.
	admit chan struct{}
	// flights deduplicates concurrent identical misses (miss.go).
	flights flightGroup

	// dur is the durability bookkeeping (durable.go).
	dur serveDurable

	http *http.Server
	// ln is set once by Start and read by Addr, commonly from the
	// goroutine polling for the ephemeral port to bind.
	ln atomic.Pointer[net.Listener]
}

// readHeaderTimeout bounds how long a new connection may wait before
// its first request's headers arrive. http.Server.Shutdown counts a
// connection that has not yet sent a request as busy until it is 5s
// old, so one that a router dialed but never used would otherwise hold
// a graceful shutdown for up to 5s. An idle keep-alive connection is
// not timed: the header timeout starts only once the next request's
// first bytes arrive, and IdleTimeout falls back to ReadTimeout, which
// is unset.
const readHeaderTimeout = time.Second

// New assembles a server (without listening; see Start and Handler).
func New(opts Options) *Server {
	opts = opts.withDefaults()
	reg := opts.Registry
	if reg == nil {
		reg = NewRegistry(opts.Pair)
	}
	reg.SetBreakerPolicy(opts.BreakerThreshold, opts.BreakerCooldown)
	metrics := NewMetrics()
	cache := NewCache(opts.CacheSize, opts.CacheShards)
	s := &Server{
		opts:     opts,
		registry: reg,
		cache:    cache,
		metrics:  metrics,
		tracer:   opts.Tracer,
		slo:      opts.SLO,
		started:  time.Now(),
		admit:    make(chan struct{}, opts.QueueSize),
	}
	s.http = &http.Server{Addr: opts.Addr, Handler: s.Handler(), ReadHeaderTimeout: readHeaderTimeout}
	if on := opts.Online; on != nil {
		// The learning loop's promotion path IS the operator reload path:
		// a shadow database goes through ReloadDBValidated with the same
		// canary config, so a bad retrain quarantines exactly like a bad
		// file reload and can never serve.
		on.BindPromote(func(model, path string) (uint64, error) {
			if model == "" {
				model = on.Model()
			}
			m, _, err := s.registry.ReloadDBValidated(model, path, s.opts.Canary)
			if err != nil {
				s.metrics.ReloadRejected.Add(1)
				// Same defensive purge as a rejected /v1/reload.
				s.cache.PurgeModel(model)
				return 0, err
			}
			s.metrics.ReloadCount.Add(1)
			s.cache.PurgeModel(model)
			return m.Version, nil
		})
		on.BindLive(func(f feature.Vector) config.M {
			m, err := s.registry.Get(on.Model())
			if err != nil {
				return config.DefaultGPU(s.registry.Pair().Limits())
			}
			return m.Select(f).M
		})
	}
	return s
}

// Registry returns the server's model registry.
func (s *Server) Registry() *Registry { return s.registry }

// Metrics returns the server's metrics set.
func (s *Server) Metrics() *Metrics { return s.metrics }

// Tracer returns the server's tracer (nil when tracing is disabled).
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// SLO returns the server's SLO tracker (nil when disabled).
func (s *Server) SLO() *obs.SLO { return s.slo }

// Handler returns the API mux (usable under httptest without a socket).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/predict", s.handlePredict)
	mux.HandleFunc("/v1/predict/batch", s.handlePredictBatch)
	mux.HandleFunc("/v1/models", s.handleModels)
	mux.HandleFunc("/v1/reload", s.handleReload)
	mux.HandleFunc("/v1/chaos", s.handleChaos)
	mux.HandleFunc("/v1/online", s.handleOnline)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.Handle("/v1/slo", s.slo.Handler())
	mux.Handle("/v1/explain/", s.tracer.ExplainHandler("/v1/explain/"))
	mux.Handle("/debug/traces", s.tracer.TracesHandler())
	return mux
}

// DebugHandler returns the -debug-addr surface: net/http/pprof plus
// /debug/traces, kept off the API mux's listener so profiling can bind
// a loopback-only port while the API serves externally.
func (s *Server) DebugHandler() http.Handler {
	return obs.DebugMux(s.tracer)
}

// Start listens on Options.Addr and serves until Shutdown.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.opts.Addr)
	if err != nil {
		return fmt.Errorf("serve: listen %s: %w", s.opts.Addr, err)
	}
	s.ln.Store(&ln)
	err = s.http.Serve(ln)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Addr returns the bound listen address (valid after Start's Listen).
func (s *Server) Addr() string {
	ln := s.ln.Load()
	if ln == nil {
		return s.opts.Addr
	}
	return (*ln).Addr().String()
}

// Shutdown gracefully stops the HTTP listener and waits for in-flight
// requests — misses included, since each is answered on its handler's
// goroutine — and, when durability is enabled, takes a final cache
// snapshot so the next boot is warm.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.http.Shutdown(ctx)
	s.stopSnapshotLoop()
	if s.opts.DurableDir != "" {
		s.SnapshotCache()
	}
	return err
}

// BeginDrain marks the server as draining: /healthz starts reporting
// status "draining" (so cluster routers deregister the node) while
// predictions continue to be served. Call Shutdown once the routers have
// had time to move traffic — the two-step dance is what makes a planned
// node exit produce zero 5xx.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Kill abruptly stops the server without draining: the listener and all
// active connections are closed immediately, resetting in-flight
// requests. It is the in-process stand-in for kill -9 in the cluster
// chaos harness — callers see transport errors, exactly like a crashed
// node. Kill returns at once.
// No snapshot is taken and the snapshot loop is simply abandoned: a
// dead process gets no shutdown courtesies, and recovery must work from
// whatever the last completed snapshot and WAL left behind.
func (s *Server) Kill() {
	s.http.Close()
	go s.stopSnapshotLoop()
}

// jsonBuf is one pooled JSON scratch buffer with a bound encoder. Every
// handler reads its request body into one of these, and every answer
// outside the predict wire codec is encoded into one, so steady-state
// JSON framing reuses buffers that have already grown to working-set
// size instead of allocating fresh ones per request.
type jsonBuf struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var jsonBufPool = sync.Pool{New: func() any {
	jb := &jsonBuf{}
	jb.enc = json.NewEncoder(&jb.buf)
	return jb
}}

// decodeJSON decodes a body capped at MaxBodyBytes into v with
// encoding/json; see decodeBody.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, v any) (int, error) {
	return s.decodeBody(w, r, func(body []byte) error { return json.Unmarshal(body, v) })
}

// decodeBody reads a body capped at MaxBodyBytes into a pooled buffer and
// hands it to decode, which must not keep it, distinguishing oversized
// bodies (413) from malformed ones (400).
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, decode func([]byte) error) (int, error) {
	body := http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	jb := jsonBufPool.Get().(*jsonBuf)
	defer jsonBufPool.Put(jb)
	jb.buf.Reset()
	if _, err := jb.buf.ReadFrom(body); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooBig.Limit)
		}
		return http.StatusBadRequest, fmt.Errorf("decode request: %w", err)
	}
	if err := decode(jb.buf.Bytes()); err != nil {
		return http.StatusBadRequest, fmt.Errorf("decode request: %w", err)
	}
	return http.StatusOK, nil
}

// predictOne answers one request: resolve, the cache, and on a miss the
// inline miss path (miss.go). The returned status is the HTTP code an
// error should carry. When ctx carries a trace, each stage is recorded
// as a span and the served answer leaves a provenance record behind.
func (s *Server) predictOne(ctx context.Context, req *PredictRequest) (PredictResponse, int, error) {
	rctx, sp := obs.StartSpan(ctx, "resolve")
	feat, err := ResolveFeatures(req, s.opts.Step)
	if err != nil {
		sp.EndErr(err)
		return PredictResponse{}, http.StatusBadRequest, err
	}
	sp.End()
	_, sp = obs.StartSpan(rctx, "registry")
	model, err := s.model(ctx, req.Model)
	if err != nil {
		sp.EndErr(err)
		return PredictResponse{}, http.StatusNotFound, err
	}
	sp.SetAttr("model", modelVersionTag(model))
	sp.End()

	start := time.Now()
	key := cacheKeyFor(model, feat)
	resp, hit := s.lookup(model, feat, key)
	dur := time.Since(start)
	s.metrics.CacheLookup.ObserveTraced(dur, obs.TraceID(ctx))
	obs.AddSpan(ctx, "cache", start, dur, obs.Attr{Key: "hit", Value: strconv.FormatBool(hit)})
	if !hit {
		var status int
		if resp, status, err = s.miss(ctx, model, feat, key); err != nil {
			return PredictResponse{}, status, err
		}
	}
	s.finish(ctx, model, feat, &resp, start)
	return resp, http.StatusOK, nil
}

// model resolves the registry entry that answers a request, counting
// the accepted item and naming the model on the trace.
func (s *Server) model(ctx context.Context, name string) (*Model, error) {
	m, err := s.registry.Get(name)
	if err != nil {
		return nil, err
	}
	obs.TraceFromContext(ctx).SetAttr("model", m.Name)
	s.metrics.Requests.Add(1)
	return m, nil
}

// lookup is the predict path's one cache read. It is allocation-free,
// so a warm request's serve cost is one shard lock; a miss is counted
// here and goes on to the miss path.
func (s *Server) lookup(model *Model, feat feature.Vector, key CacheKey) (PredictResponse, bool) {
	val, hit := s.cache.Get(key)
	if !hit {
		return PredictResponse{}, false
	}
	return PredictResponse{
		Model:         model.Name,
		Version:       model.Version,
		Key:           feat.Key(),
		PredictorUsed: val.Used,
		Cached:        true,
		M:             val.M,
	}, true
}

// finish stamps a served answer and runs the post-serve hooks every
// path shares — end-to-end latency, online observation, resilience
// notes and provenance — so a hit, a miss and a batch row are
// indistinguishable to callers apart from the cached flag; the
// differential fastpath suite in internal/conformance enforces that.
func (s *Server) finish(ctx context.Context, model *Model, feat feature.Vector, resp *PredictResponse, start time.Time) {
	resp.TraceID = obs.TraceID(ctx)
	s.metrics.RequestLatency.ObserveTraced(time.Since(start), resp.TraceID)
	if s.opts.Online != nil {
		s.observeOnline(ctx, model, feat, resp)
	}
	s.noteResilience(ctx, resp)
	s.recordProvenance(model, feat, resp)
}

// PredictCached answers one already-resolved characterization from the
// prediction cache alone: the in-process form of the cache-hit fast
// path, for embedders (and the conformance benchmark harness) that need
// the serve-path answer without HTTP or JSON framing. It performs the
// same registry resolve, lookup and metric accounting as a warm
// /v1/predict and is guaranteed allocation-free — the hmbench
// serve/predict-cachehit target and TestPredictCachedZeroAlloc gate it
// at exactly zero allocs per call. A cold key reports ok=false without
// touching the miss path (and without counting a cache miss; callers
// fall back to the full path, which counts it once).
func (s *Server) PredictCached(model string, feat feature.Vector) (m config.M, used string, version uint64, ok bool) {
	mod, err := s.registry.Get(model)
	if err != nil {
		return config.M{}, "", 0, false
	}
	start := time.Now()
	val, hit := s.cache.GetFast(cacheKeyFor(mod, feat))
	if !hit {
		// Not counted as a request (or a miss): the caller re-issues
		// through the full path, which does both exactly once.
		return config.M{}, "", 0, false
	}
	dur := time.Since(start)
	s.metrics.Requests.Add(1)
	s.metrics.CacheLookup.ObserveTraced(dur, "")
	s.metrics.RequestLatency.ObserveTraced(dur, "")
	return val.M, val.Used, mod.Version, true
}

// observeOnline is the serve-path end of the learning loop: it assesses
// the answer's confidence, re-derives low-confidence answers by bounded
// exhaustive probe, and enqueues the final decision into the feedback
// stream for background outcome collection.
func (s *Server) observeOnline(ctx context.Context, model *Model, feat feature.Vector, resp *PredictResponse) {
	on := s.opts.Online
	if !resp.Cached && on.UncertaintyFloor() > 0 {
		conf, probe := on.Assess(model.Link(resp.PredictorUsed), feat)
		if probe {
			_, sp := obs.StartSpan(ctx, "probe")
			pm, _ := on.Probe(feat)
			sp.SetAttr("confidence", strconv.FormatFloat(conf, 'g', 3, 64))
			sp.End()
			ev := fmt.Sprintf("probe: %s confidence %.3f below floor %.3f; exhaustive probe served",
				resp.PredictorUsed, conf, on.UncertaintyFloor())
			resp.M = pm
			resp.PredictorUsed = online.ProbePredictor
			resp.Resilience = append(resp.Resilience, ev)
			// Overwrite the cache so repeats of this cell serve the probed
			// answer without re-sweeping.
			s.cache.Put(cacheKeyFor(model, feat), cachedPrediction{M: pm, Used: online.ProbePredictor})
		}
	}
	on.Observe(online.Sample{
		Key:       resp.Key,
		Features:  feat,
		M:         resp.M,
		Model:     resp.Model,
		Predictor: resp.PredictorUsed,
		TraceID:   resp.TraceID,
		Probed:    resp.PredictorUsed == online.ProbePredictor,
	})
}

// handleOnline reports the learning loop's state; it is live only when
// the server was started with online learning enabled.
func (s *Server) handleOnline(w http.ResponseWriter, r *http.Request) {
	if s.opts.Online == nil {
		s.errorJSON(r.Context(), w, http.StatusConflict,
			fmt.Errorf("online learning not enabled (start with -online)"))
		return
	}
	if r.Method != http.MethodGet {
		s.errorJSON(r.Context(), w, http.StatusMethodNotAllowed, fmt.Errorf("use GET"))
		return
	}
	s.writeJSON(w, http.StatusOK, s.opts.Online.Snapshot())
}

// noteResilience flags the trace and logs a correlated slog line for
// every event that altered the answer — fallback-chain degradations,
// breaker routing and uncertainty probes — so flagged traces are always
// retained and findable from the logs.
func (s *Server) noteResilience(ctx context.Context, resp *PredictResponse) {
	if s.tracer == nil {
		return
	}
	if len(resp.Fallbacks) > 0 {
		obs.KeepTrace(ctx, obs.FlagFallback)
		s.tracer.Log(ctx, slog.LevelWarn, "predictor fallback",
			"model", resp.Model, "used", resp.PredictorUsed,
			"events", strings.Join(resp.Fallbacks, "; "))
	}
	for _, ev := range resp.Resilience {
		s.tracer.Log(ctx, slog.LevelInfo, "resilience event", "model", resp.Model, "event", ev)
	}
}

// recordProvenance stores the decision record served from
// /v1/explain/{trace-id}: the exact knobs returned plus the answering
// link and the features it saw, from which the store derives the tree
// path or NN margin when the record is read.
func (s *Server) recordProvenance(model *Model, feat feature.Vector, resp *PredictResponse) {
	if s.tracer == nil || resp.TraceID == "" {
		return
	}
	// A breaker-routed answer came from a different snapshot; keep the
	// link of the version that actually answered when we still hold it,
	// otherwise the admitted model's link of the same name.
	link := model.Link(resp.PredictorUsed)
	if lg := s.registry.LastGood(model.Name); lg != nil && lg.Version == resp.Version {
		if l := lg.Link(resp.PredictorUsed); l != nil {
			link = l
		}
	}
	s.tracer.Prov().Add(obs.Provenance{
		TraceID:       resp.TraceID,
		Model:         resp.Model,
		Version:       resp.Version,
		PredictorUsed: resp.PredictorUsed,
		M:             resp.M,
		Cached:        resp.Cached,
		Events:        append(append([]string{}, resp.Fallbacks...), resp.Resilience...),
		When:          time.Now(),
		Link:          link,
		Features:      feat,
	})
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.errorJSON(r.Context(), w, http.StatusMethodNotAllowed, fmt.Errorf("use POST"))
		return
	}
	s.metrics.InFlight.Add(1)
	defer s.metrics.InFlight.Add(-1)
	start := time.Now()
	ctx, tr := s.tracer.StartRequestTrace(r, "predict")
	defer tr.Finish()
	if tr != nil {
		w.Header().Set(obs.TraceHeader, tr.ID())
	}
	_, sp := obs.StartSpan(ctx, "decode")
	var req PredictRequest
	if status, err := s.decodeBody(w, r, func(body []byte) (err error) {
		req, err = DecodePredictRequest(body)
		return err
	}); err != nil {
		sp.EndErr(err)
		s.errorJSON(ctx, w, status, err)
		s.slo.Observe(status < 500, time.Since(start))
		return
	}
	sp.End()
	ctx, cancel := context.WithTimeout(ctx, s.opts.RequestTimeout)
	defer cancel()
	resp, status, err := s.predictOne(ctx, &req)
	if err != nil {
		if status == http.StatusServiceUnavailable && errors.Is(err, ErrQueueFull) {
			s.setRetryAfter(w)
		}
		s.errorJSON(ctx, w, status, err)
		s.slo.Observe(status < 500, time.Since(start))
		return
	}
	// The answering model version rides a header so cluster routers can
	// track peer registry generations without decoding the body.
	w.Header().Set(VersionHeader, strconv.FormatUint(resp.Version, 10))
	s.writeWire(w, func(b []byte) ([]byte, error) { return AppendPredictResponse(b, &resp) })
	s.slo.Observe(true, time.Since(start))
}

// VersionHeader carries the registry version of the model that answered
// (on predictions) or would answer (on /healthz probes). Cluster routers
// compare it across peers so hedged pairs never mix model versions
// mid-rolling-reload.
const VersionHeader = "X-Heteromap-Model-Version"

// RetryAfterMSHeader is the millisecond-precision companion to the
// standard Retry-After header on 503 responses — Retry-After only speaks
// integer seconds, far too coarse for a queue that drains in
// milliseconds.
const RetryAfterMSHeader = "X-Heteromap-Retry-After-Ms"

// RetryAfterHint estimates how long a shed caller should wait before
// retrying, derived from the live miss load: the misses in flight times
// the mean inference time, spread over the processors answering them.
// A saturated node thereby spreads its retry wave instead of inviting an
// immediate stampede.
func (s *Server) RetryAfterHint() time.Duration {
	var d time.Duration
	if n := s.metrics.Inference.Count(); n > 0 {
		mean := s.metrics.Inference.Sum() / time.Duration(n)
		d = time.Duration(len(s.admit)) * mean / time.Duration(runtime.GOMAXPROCS(0))
	}
	if d < 5*time.Millisecond {
		d = 5 * time.Millisecond
	}
	if d > 5*time.Second {
		d = 5 * time.Second
	}
	return d
}

// setRetryAfter stamps the backoff hint on a 503: standard Retry-After
// in whole seconds (rounded up, as the RFC requires) plus the precise
// millisecond header well-behaved clients prefer.
func (s *Server) setRetryAfter(w http.ResponseWriter) {
	d := s.RetryAfterHint()
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	w.Header().Set(RetryAfterMSHeader, strconv.FormatInt(d.Milliseconds(), 10))
}

func (s *Server) handlePredictBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.errorJSON(r.Context(), w, http.StatusMethodNotAllowed, fmt.Errorf("use POST"))
		return
	}
	s.metrics.InFlight.Add(1)
	defer s.metrics.InFlight.Add(-1)
	start := time.Now()
	// One trace covers the whole batch; every item's spans and
	// provenance records attach to it. The SLO sees the round trip once,
	// matching how the availability floor counts requests.
	defer func() { s.slo.Observe(true, time.Since(start)) }()
	tctx, tr := s.tracer.StartRequestTrace(r, "predict-batch")
	defer tr.Finish()
	if tr != nil {
		w.Header().Set(obs.TraceHeader, tr.ID())
	}
	var req BatchRequest
	if status, err := s.decodeBody(w, r, func(body []byte) (err error) {
		req, err = DecodeBatchRequest(body)
		return err
	}); err != nil {
		s.errorJSON(tctx, w, status, err)
		return
	}
	if len(req.Requests) == 0 {
		s.errorJSON(tctx, w, http.StatusBadRequest, fmt.Errorf("empty batch"))
		return
	}
	ctx, cancel := context.WithTimeout(tctx, s.opts.RequestTimeout)
	defer cancel()
	resp := BatchResponse{Responses: s.predictBatch(ctx, req.Requests)}
	s.writeWire(w, func(b []byte) ([]byte, error) { return AppendBatchResponse(b, &resp) })
}

func (s *Server) handleModels(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{
		"models":     s.registry.List(),
		"quarantine": s.registry.Quarantined(),
	})
}

// reloadRequest is the /v1/reload body: hot-swap model from a profiler
// database file on disk, gated by the canary golden set when one is
// configured.
type reloadRequest struct {
	Model string `json:"model"`
	Path  string `json:"path"`
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.errorJSON(r.Context(), w, http.StatusMethodNotAllowed, fmt.Errorf("use POST"))
		return
	}
	ctx, tr := s.tracer.StartTrace(r.Context(), "reload")
	defer tr.Finish()
	if tr != nil {
		w.Header().Set(obs.TraceHeader, tr.ID())
	}
	var req reloadRequest
	if status, err := s.decodeJSON(w, r, &req); err != nil {
		s.errorJSON(ctx, w, status, err)
		return
	}
	if req.Model == "" || req.Path == "" {
		s.errorJSON(ctx, w, http.StatusBadRequest, fmt.Errorf("reload needs model and path"))
		return
	}
	tr.SetAttr("model", req.Model)
	if s.opts.Chaos.CorruptReload() {
		// Injected corrupt snapshot: quarantine the attempt exactly as a
		// real corruption would be, leaving the active model untouched.
		s.registry.Quarantine(QuarantineInfo{
			Name: req.Model, Source: "db:" + req.Path,
			Reason: "chaos: snapshot corrupted in flight",
		})
		s.metrics.ReloadRejected.Add(1)
		tr.Keep(obs.FlagCanaryReject)
		s.tracer.Log(ctx, slog.LevelError, "reload rejected",
			"model", req.Model, "reason", "chaos: snapshot corrupted in flight")
		s.errorJSON(ctx, w, http.StatusUnprocessableEntity,
			fmt.Errorf("reload %q: snapshot corrupted in flight (chaos)", req.Model))
		return
	}
	if s.opts.Canary != nil {
		s.metrics.CanaryRuns.Add(1)
	}
	_, sp := obs.StartSpan(ctx, "canary")
	m, canary, err := s.registry.ReloadDBValidated(req.Model, req.Path, s.opts.Canary)
	if err != nil {
		sp.EndErr(err)
		s.metrics.ReloadRejected.Add(1)
		// Defensive: a rejected candidate never served, so its version
		// can have no cache entries — purge proves it stays that way.
		s.cache.PurgeModel(req.Model)
		status := http.StatusBadRequest
		if errors.Is(err, ErrCanaryRejected) {
			status = http.StatusUnprocessableEntity
			tr.Keep(obs.FlagCanaryReject)
		}
		s.tracer.Log(ctx, slog.LevelError, "reload rejected",
			"model", req.Model, "path", req.Path, "reason", err.Error())
		s.errorJSON(ctx, w, status, err)
		return
	}
	sp.End()
	s.metrics.ReloadCount.Add(1)
	s.writeJSON(w, http.StatusOK, map[string]any{
		"model": ModelInfo{
			Name: m.Name, Version: m.Version, Predictor: m.PredictorName(),
			Source: m.Source, Breaker: m.Breaker().State().String(),
		},
		"canary": canary,
	})
}

// chaosRequest is the /v1/chaos body; rates in [0,1], delays in
// milliseconds, so the profile is scriptable from curl.
type chaosRequest struct {
	SlowModelRate     float64 `json:"slow_model_rate"`
	SlowModelMS       float64 `json:"slow_model_ms"`
	CorruptReloadRate float64 `json:"corrupt_reload_rate"`
	QueueRejectRate   float64 `json:"queue_reject_rate"`
}

// handleChaos reads (GET) or flips (POST) the serve fault profile; it is
// live only when the server was started with a chaos injector.
func (s *Server) handleChaos(w http.ResponseWriter, r *http.Request) {
	if s.opts.Chaos == nil {
		s.errorJSON(r.Context(), w, http.StatusConflict,
			fmt.Errorf("chaos injection not enabled (start with -chaos-serve)"))
		return
	}
	switch r.Method {
	case http.MethodGet:
		p := s.opts.Chaos.ServeProfile()
		s.writeJSON(w, http.StatusOK, chaosRequest{
			SlowModelRate:     p.SlowModelRate,
			SlowModelMS:       float64(p.SlowModelDelay.Milliseconds()),
			CorruptReloadRate: p.CorruptReloadRate,
			QueueRejectRate:   p.QueueRejectRate,
		})
	case http.MethodPost:
		var req chaosRequest
		if status, err := s.decodeJSON(w, r, &req); err != nil {
			s.errorJSON(r.Context(), w, status, err)
			return
		}
		s.opts.Chaos.SetServeProfile(fault.ServeProfile{
			SlowModelRate:     req.SlowModelRate,
			SlowModelDelay:    time.Duration(req.SlowModelMS * float64(time.Millisecond)),
			CorruptReloadRate: req.CorruptReloadRate,
			QueueRejectRate:   req.QueueRejectRate,
		})
		s.writeJSON(w, http.StatusOK, map[string]string{
			"profile": s.opts.Chaos.ServeProfile().String(),
		})
	default:
		s.errorJSON(r.Context(), w, http.StatusMethodNotAllowed, fmt.Errorf("use GET or POST"))
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	version := s.registry.DefaultVersion()
	w.Header().Set(VersionHeader, strconv.FormatUint(version, 10))
	s.writeJSON(w, http.StatusOK, map[string]any{
		"status":           status,
		"pair":             s.registry.Pair().Name(),
		"models":           len(s.registry.List()),
		"quarantined":      len(s.registry.Quarantined()),
		"registry_version": version,
		"uptime_seconds":   time.Since(s.started).Seconds(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	// The full text-exposition 0.0.4 Content-Type, charset included —
	// some scrapers fall back to protobuf negotiation or mis-decode
	// without it.
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fams := s.metrics.Families(s.cache, func() int { return len(s.admit) }, s.registry.List())
	if s.opts.Online != nil {
		fams = append(fams, s.opts.Online.Families()...)
	}
	if s.opts.DurableDir != "" {
		fams = append(fams, s.durableFamilies()...)
	}
	// A failed write means the scraper hung up; there is no one to tell.
	_ = obs.WriteText(w, append(fams, s.slo.Families()...))
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	jb := jsonBufPool.Get().(*jsonBuf)
	defer jsonBufPool.Put(jb)
	jb.buf.Reset()
	if err := jb.enc.Encode(v); err != nil {
		s.encodeFailed(w)
		return
	}
	s.writeBody(w, status, jb.buf.Bytes())
}

// wireBufPool holds the response buffers of the predict endpoints, which
// encode through the wire codec (codec.go) instead of encoding/json.
var wireBufPool = sync.Pool{New: func() any { return new([]byte) }}

// writeWire answers 200 with the bytes encode appends to a pooled buffer.
func (s *Server) writeWire(w http.ResponseWriter, encode func([]byte) ([]byte, error)) {
	p := wireBufPool.Get().(*[]byte)
	defer wireBufPool.Put(p)
	b, err := encode((*p)[:0])
	if err != nil {
		s.encodeFailed(w)
		return
	}
	*p = b
	s.writeBody(w, http.StatusOK, b)
}

// encodeFailed answers an unencodable value. Nothing has been sent yet,
// so it can still be a clean 500.
func (s *Server) encodeFailed(w http.ResponseWriter) {
	s.metrics.HTTPErrors.Add(1)
	w.WriteHeader(http.StatusInternalServerError)
}

// writeBody sends an encoded JSON body with its length.
func (s *Server) writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	if _, err := w.Write(body); err != nil {
		// Headers are gone; nothing more useful to do than count it.
		s.metrics.HTTPErrors.Add(1)
	}
}

// errorJSON answers an error response; server-side failures (5xx) flag
// the ctx's trace for retention and emit a correlated slog line, so
// every 5xx and deadline drop is findable in /debug/traces by trace id.
func (s *Server) errorJSON(ctx context.Context, w http.ResponseWriter, status int, err error) {
	s.metrics.HTTPErrors.Add(1)
	if status >= 500 {
		obs.KeepTrace(ctx, obs.Flag5xx)
		if errors.Is(err, context.DeadlineExceeded) {
			obs.KeepTrace(ctx, obs.FlagDeadline)
		}
		if s.tracer != nil {
			s.tracer.Log(ctx, slog.LevelError, "request failed",
				"status", status, "error", err.Error())
		}
	}
	s.writeJSON(w, status, map[string]string{"error": err.Error()})
}
