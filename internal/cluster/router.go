package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"heteromap/internal/fault"
	"heteromap/internal/feature"
	"heteromap/internal/obs"
	"heteromap/internal/serve"
)

// RouterOptions size the cluster front-end; zero values select the
// defaults in parentheses.
type RouterOptions struct {
	// Addr is the router's listen address ("127.0.0.1:8100").
	Addr string
	// Peers are the serve-node addresses (host:port) forming the ring.
	// The peer set is fixed at construction; ring *membership* changes
	// dynamically as peers die, drain and recover.
	Peers []string
	// Replicas is the replica-group size per shard, primary included
	// (2). Requests fail over (and hedge) within the group.
	Replicas int

	// HedgeAfter is how long the primary may take before the router
	// hedges the request against the replica (25ms).
	HedgeAfter time.Duration
	// RequestTimeout bounds one routed request end to end (5s).
	RequestTimeout time.Duration

	// ProbeInterval is the health-probe cadence (250ms): live peers are
	// watched for drain announcements and sustained breaker-open, dead
	// peers for recovery.
	ProbeInterval time.Duration
	// BreakerThreshold/BreakerCooldown configure the per-peer circuit
	// breakers (5 consecutive hard failures / 64 refused dispatches
	// before a half-open probe), mirroring the per-version breakers
	// inside one node.
	BreakerThreshold int
	BreakerCooldown  int

	// MaxBodyBytes bounds a request body (1 MiB).
	MaxBodyBytes int64
	// Chaos injects forwarding-layer faults (slow-peer, partition,
	// node-kill) for the cluster chaos harness (nil: none). The
	// /v1/chaos endpoint is enabled only when this is set.
	Chaos *fault.ServeInjector

	// Tracer records routed-request traces (hop spans for every
	// forward, hedge and failover) into the router's own sampling ring;
	// nil builds a default tracer. The trace id is propagated to peers
	// on every forward so /v1/trace/{id} can stitch the cross-process
	// timeline.
	Tracer *obs.Tracer
	// SLO tracks the cluster-level availability and p99 objectives over
	// routed requests, exposes /v1/slo and the heteromap_slo_* gauges,
	// and — once the error budget exhausts — tightens HedgeAfter so the
	// router spends spare capacity defending the tail. Nil disables.
	SLO *obs.SLO
}

func (o RouterOptions) withDefaults() RouterOptions {
	if o.Addr == "" {
		o.Addr = "127.0.0.1:8100"
	}
	if o.Replicas <= 0 {
		o.Replicas = 2
	}
	if o.HedgeAfter <= 0 {
		o.HedgeAfter = 25 * time.Millisecond
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 5 * time.Second
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = 250 * time.Millisecond
	}
	if o.BreakerThreshold == 0 {
		o.BreakerThreshold = 5
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 64
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 1 << 20
	}
	if o.Tracer == nil {
		o.Tracer = obs.NewTracer(obs.Options{})
	}
	return o
}

// perTryTimeout bounds one forwarded attempt, so a partitioned peer
// costs one try, not the whole request deadline.
const perTryTimeout = time.Second

// Router headers: which peer answered, how the answer was routed
// (primary, failover, hedge-win), and the answering model version
// (passed through from the node).
const (
	PeerHeader  = "X-Heteromap-Peer"
	RouteHeader = "X-Heteromap-Route"
)

// Router is the cluster front-end: it resolves each request's shard key
// (the canonical discretized feature key), walks the consistent-hash
// ring for the shard's replica group, and forwards to the primary with
// peer-aware failover and version-gated hedging. A background prober
// deregisters peers whose breaker sticks open (or that announce a
// drain) and readmits them when health probes succeed again.
type Router struct {
	opts    RouterOptions
	peers   map[string]*Peer
	metrics *RouterMetrics
	client  *http.Client
	tracer  *obs.Tracer
	slo     *obs.SLO // nil when SLO tracking is disabled

	mu   sync.Mutex // guards ring read-modify-write
	ring atomic.Pointer[Ring]

	http *http.Server
	// ln is set once by Start and read by Addr, commonly from the
	// goroutine polling for the ephemeral port to bind.
	ln atomic.Pointer[net.Listener]

	stop chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

// NewRouter assembles a router over the given peers (without listening;
// see Start and Handler).
func NewRouter(opts RouterOptions) (*Router, error) {
	opts = opts.withDefaults()
	if len(opts.Peers) == 0 {
		return nil, fmt.Errorf("cluster: router needs at least one peer")
	}
	rt := &Router{
		opts:    opts,
		peers:   make(map[string]*Peer, len(opts.Peers)),
		metrics: NewRouterMetrics(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 64,
		}},
		tracer: opts.Tracer,
		slo:    opts.SLO,
		stop:   make(chan struct{}),
	}
	for _, addr := range opts.Peers {
		if addr == "" {
			continue
		}
		if _, dup := rt.peers[addr]; dup {
			continue
		}
		rt.peers[addr] = newPeer(addr, opts.BreakerThreshold, opts.BreakerCooldown)
	}
	if len(rt.peers) == 0 {
		return nil, fmt.Errorf("cluster: router needs at least one non-empty peer")
	}
	addrs := make([]string, 0, len(rt.peers))
	for a := range rt.peers {
		addrs = append(addrs, a)
	}
	rt.ring.Store(New(addrs, DefaultVNodes))
	rt.http = &http.Server{Addr: opts.Addr, Handler: rt.Handler()}
	rt.wg.Add(1)
	go rt.proberLoop()
	return rt, nil
}

// Metrics returns the router's metrics set.
func (rt *Router) Metrics() *RouterMetrics { return rt.metrics }

// Ring returns the current ring snapshot.
func (rt *Router) Ring() *Ring { return rt.ring.Load() }

// PeerInfos describes every peer for /v1/cluster, sorted by address.
func (rt *Router) PeerInfos() []PeerInfo {
	ring := rt.ring.Load()
	out := make([]PeerInfo, 0, len(rt.peers))
	for _, addr := range New(rt.opts.Peers, 1).Nodes() { // canonical sorted order
		p := rt.peers[addr]
		if p == nil {
			continue
		}
		out = append(out, PeerInfo{
			Addr:    addr,
			State:   p.State().String(),
			Breaker: p.breaker.State().String(),
			Version: p.Version(),
			OnRing:  ring.Has(addr),
		})
	}
	return out
}

// Handler returns the router's API mux.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/predict", rt.handlePredict)
	mux.HandleFunc("/v1/predict/batch", rt.handlePredictBatch)
	mux.HandleFunc("/v1/cluster", rt.handleCluster)
	mux.HandleFunc("/v1/chaos", rt.handleChaos)
	mux.HandleFunc("/v1/trace/", rt.handleTrace)
	mux.Handle("/v1/slo", rt.slo.Handler())
	mux.HandleFunc("/healthz", rt.handleHealthz)
	mux.HandleFunc("/metrics", rt.handleMetrics)
	mux.HandleFunc("/metrics/cluster", rt.handleMetricsCluster)
	mux.Handle("/debug/traces", rt.tracer.TracesHandler())
	return mux
}

// Start listens on Options.Addr and serves until Shutdown.
func (rt *Router) Start() error {
	ln, err := net.Listen("tcp", rt.opts.Addr)
	if err != nil {
		return fmt.Errorf("cluster: listen %s: %w", rt.opts.Addr, err)
	}
	rt.ln.Store(&ln)
	err = rt.http.Serve(ln)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Addr returns the bound listen address (valid after Start's Listen).
func (rt *Router) Addr() string {
	ln := rt.ln.Load()
	if ln == nil {
		return rt.opts.Addr
	}
	return (*ln).Addr().String()
}

// Shutdown stops the listener and the prober.
func (rt *Router) Shutdown(ctx context.Context) error {
	rt.once.Do(func() { close(rt.stop) })
	err := rt.http.Shutdown(ctx)
	rt.wg.Wait()
	return err
}

// deregister takes a peer off the ring in the given terminal state; its
// shard keys fall to the replicas by ring construction.
func (rt *Router) deregister(p *Peer, state PeerState, reason string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	ring := rt.ring.Load()
	if !ring.Has(p.Addr) {
		p.setState(state)
		return
	}
	p.setState(state)
	rt.ring.Store(ring.Without(p.Addr))
	rt.metrics.Deregistered.Add(1)
	rt.metrics.noteEvent(fmt.Sprintf("deregistered %s: %s", p.Addr, reason))
}

// readmit puts a recovered peer back on the ring with a closed breaker.
func (rt *Router) readmit(p *Peer) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	p.breaker.RecordSuccess() // closes the circuit
	p.setState(PeerLive)
	ring := rt.ring.Load()
	if !ring.Has(p.Addr) {
		rt.ring.Store(ring.With(p.Addr))
		rt.metrics.Readmitted.Add(1)
		rt.metrics.noteEvent("readmitted " + p.Addr)
	}
}

// proberLoop drives the peer lifecycle: live peers are watched for drain
// announcements and sustained breaker-open (-> deregister), draining and
// dead peers are probed for recovery (-> readmit). This is the
// health-probe half-open path: a deregistered peer receives no traffic,
// so only a successful probe can bring it back.
func (rt *Router) proberLoop() {
	defer rt.wg.Done()
	client := &http.Client{Timeout: probeTimeout}
	ticker := time.NewTicker(rt.opts.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-ticker.C:
		}
		for _, p := range rt.peers {
			rt.probeOne(client, p)
		}
	}
}

// probeOne advances one peer through the lifecycle.
func (rt *Router) probeOne(client *http.Client, p *Peer) {
	hv, err := probe(client, p.Addr)
	switch p.State() {
	case PeerLive:
		switch {
		case err != nil:
			// Probe failures feed the same breaker as request failures;
			// a silent peer with no traffic still gets deregistered.
			p.breaker.RecordFailure()
			if p.breaker.State() == fault.BreakerOpen {
				rt.deregister(p, PeerDead, "health probe failing, breaker open")
			}
		case hv.Status == "draining":
			rt.deregister(p, PeerDraining, "peer announced drain")
		default:
			p.observeVersion(hv.RegistryVersion)
			// Requests may have opened the breaker between probes; a
			// sustained-open breaker means the peer is deregistered even
			// though /healthz still answers (e.g. the predict path is
			// wedged while the mux lives). A half-open one is taken off
			// too: routeOne admits every owner before it knows which it
			// will use, so a hedge candidate admitted for the half-open
			// trial and never sent would otherwise refuse all traffic
			// for good. Readmission closes the breaker.
			if st := p.breaker.State(); st != fault.BreakerClosed {
				rt.deregister(p, PeerDead, "request breaker "+st.String())
			}
		}
	case PeerDraining:
		switch {
		case err != nil:
			// The drained node finished exiting.
			p.setState(PeerDead)
		case hv.Status != "draining":
			rt.readmit(p)
			p.observeVersion(hv.RegistryVersion)
		}
	case PeerDead:
		if err == nil && hv.Status == "ok" {
			rt.readmit(p)
			p.observeVersion(hv.RegistryVersion)
		}
	}
}

// fwdResult is one forwarded attempt's outcome.
type fwdResult struct {
	status  int
	body    []byte
	version uint64 // answering model version (from the node's header)
	// Retry-After passthrough for shed responses.
	retryAfterSec string
	retryAfterMS  string
	err           error
	// span is the attempt's hop span, left open by forwardTo so the
	// caller can settle its outcome (a hedge answer may be discarded
	// after the transport succeeded).
	span *obs.Span
}

// settle closes the attempt's hop span with the transport outcome.
func (r fwdResult) settle() {
	switch {
	case r.err != nil:
		r.span.EndErr(r.err)
	case r.status == http.StatusServiceUnavailable:
		r.span.EndOutcome("shed")
	case r.status >= 500:
		r.span.EndOutcome("5xx")
	default:
		r.span.End()
	}
}

// ok reports a usable answer: the peer responded and did not fail
// server-side (4xx is the client's fault and passes through).
func (r fwdResult) ok() bool { return r.err == nil && r.status < 500 }

// shed reports a 503: the peer is alive but saturated — worth a
// failover, not a breaker failure.
func (r fwdResult) shed() bool { return r.err == nil && r.status == http.StatusServiceUnavailable }

// hardFail reports a dead-or-broken peer: transport error or a non-shed
// 5xx. Only hard failures feed the peer breaker, so a shedding node is
// never deregistered for being busy.
func (r fwdResult) hardFail() bool {
	return r.err != nil || (r.status >= 500 && r.status != http.StatusServiceUnavailable)
}

// errPartitioned is the synthetic error of a chaos-injected partition.
var errPartitioned = errors.New("cluster: request blackholed (chaos partition)")

// errNodeKilled is the synthetic error of a chaos-injected dead node.
var errNodeKilled = errors.New("cluster: connection refused (chaos node-kill)")

// forwardTo sends the body to one peer's /v1/predict under the per-try
// timeout, applying the chaos profile's forwarding-layer faults first.
// Each attempt is a hop span ("forward:"+route) and carries the trace
// id, this span's id and an incremented hop count on the wire, so the
// peer's own trace joins this one and /v1/trace/{id} can re-parent its
// span set under this hop. The span is returned open in fwdResult.span;
// callers settle it (and the breaker, via finish) once the attempt's
// fate — served, discarded, abandoned — is known.
func (rt *Router) forwardTo(ctx context.Context, p *Peer, body []byte, route string) fwdResult {
	sp := obs.NewSpan(ctx, "forward:"+route)
	sp.SetAttr("peer", p.Addr)
	return rt.forwardSpan(ctx, p, body, sp)
}

// forwardSpan is forwardTo with a caller-owned hop span, so hedgedForward
// can hold the primary attempt's span and mark it abandoned the moment a
// hedge answer is served instead.
func (rt *Router) forwardSpan(ctx context.Context, p *Peer, body []byte, sp *obs.Span) fwdResult {
	rt.metrics.Forwards.Add(1)
	if rt.opts.Chaos.KillNode() {
		rt.metrics.ChaosNodeKills.Add(1)
		return fwdResult{err: errNodeKilled, span: sp}
	}
	if rt.opts.Chaos.PartitionPeer() {
		// A partition hangs until the attempt deadline, never reaching
		// the peer — the worst case the per-try timeout exists for.
		rt.metrics.ChaosPartitions.Add(1)
		t := time.NewTimer(perTryTimeout)
		defer t.Stop()
		select {
		case <-ctx.Done():
			return fwdResult{err: ctx.Err(), span: sp}
		case <-t.C:
			return fwdResult{err: errPartitioned, span: sp}
		}
	}
	if d, slow := rt.opts.Chaos.SlowPeer(); slow {
		rt.metrics.ChaosSlowPeers.Add(1)
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-ctx.Done():
			return fwdResult{err: ctx.Err(), span: sp}
		case <-t.C:
		}
	}
	tctx, cancel := context.WithTimeout(ctx, perTryTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(tctx, http.MethodPost,
		"http://"+p.Addr+"/v1/predict", bytes.NewReader(body))
	if err != nil {
		return fwdResult{err: err, span: sp}
	}
	req.Header.Set("Content-Type", "application/json")
	if tid := obs.TraceID(ctx); tid != "" {
		req.Header.Set(obs.TraceHeader, tid)
		req.Header.Set(obs.ParentSpanHeader, strconv.Itoa(sp.ID()))
		hop := 1
		if h := obs.TraceFromContext(ctx).Attr("hop"); h != "" {
			if n, err := strconv.Atoi(h); err == nil {
				hop = n + 1
			}
		}
		req.Header.Set(obs.HopHeader, strconv.Itoa(hop))
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return fwdResult{err: err, span: sp}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, rt.opts.MaxBodyBytes))
	if err != nil {
		return fwdResult{err: err, span: sp}
	}
	res := fwdResult{
		status:        resp.StatusCode,
		body:          data,
		retryAfterSec: resp.Header.Get("Retry-After"),
		retryAfterMS:  resp.Header.Get(serve.RetryAfterMSHeader),
		span:          sp,
	}
	if v := resp.Header.Get(serve.VersionHeader); v != "" {
		res.version, _ = strconv.ParseUint(v, 10, 64)
	}
	return res
}

// finish settles one attempt's peer bookkeeping: hard failures feed the
// breaker, usable answers close it and refresh the peer's known model
// version.
func (rt *Router) finish(p *Peer, res fwdResult) {
	if res.hardFail() {
		rt.metrics.PeerErrors.Add(1)
		p.breaker.RecordFailure()
		return
	}
	p.breaker.RecordSuccess()
	p.observeVersion(res.version)
}

// hedgedForward forwards to the primary and, when the primary is slow
// past HedgeAfter, races a hedge against the replica — but only when
// both peers' last observed model versions agree (and are known):
// mid-rolling-reload the hedge is suppressed instead, so one request can
// never be answered by a mixed-version pair. The gate is also enforced
// post hoc: a hedge answer whose actual version differs from the
// expected one is discarded, never served.
func (rt *Router) hedgedForward(ctx context.Context, primary, hedge *Peer, body []byte) (fwdResult, *Peer, string) {
	psp := obs.NewSpan(ctx, "forward:primary")
	psp.SetAttr("peer", primary.Addr)
	pch := make(chan fwdResult, 1)
	go func() { pch <- rt.forwardSpan(ctx, primary, body, psp) }()

	hedgeAfter := rt.opts.HedgeAfter
	if rt.slo.Exhausted() {
		// Error budget spent: hedge four times sooner, trading spare
		// replica capacity for tail latency while the budget recovers.
		hedgeAfter /= 4
	}
	expect := primary.Version()
	var timerC <-chan time.Time
	if hedge != nil {
		if expect != 0 && hedge.Version() == expect {
			t := time.NewTimer(hedgeAfter)
			defer t.Stop()
			timerC = t.C
		} else {
			rt.metrics.HedgeVersionSkips.Add(1)
			obs.AddSpan(ctx, "hedge:version-skip", time.Now(), 0,
				obs.Attr{Key: "peer", Value: hedge.Addr},
				obs.Attr{Key: "primary_version", Value: strconv.FormatUint(expect, 10)},
				obs.Attr{Key: "hedge_version", Value: strconv.FormatUint(hedge.Version(), 10)})
		}
	}

	var hch chan fwdResult
	for {
		select {
		case res := <-pch:
			rt.finish(primary, res)
			res.settle()
			if res.ok() || hch == nil {
				return res, primary, "primary"
			}
			// Primary failed hard with a hedge in flight: its answer is
			// now the only hope for this rung of the ladder.
			select {
			case hres := <-hch:
				rt.finish(hedge, hres)
				if hres.ok() && hres.version == expect {
					rt.metrics.HedgeWins.Add(1)
					obs.KeepTrace(ctx, obs.FlagHedgeWin)
					hres.settle()
					return hres, hedge, "hedge-win"
				}
				if hres.ok() {
					rt.metrics.HedgeMixedDiscards.Add(1)
					hres.span.SetAttr("reason", "version-mismatch")
					hres.span.EndOutcome("discarded")
				} else {
					hres.settle()
				}
				return res, primary, "primary"
			case <-ctx.Done():
				return fwdResult{err: ctx.Err()}, primary, "primary"
			}
		case <-timerC:
			timerC = nil
			rt.metrics.Hedges.Add(1)
			hch = make(chan fwdResult, 1)
			go func() { hch <- rt.forwardTo(ctx, hedge, body, "hedge") }()
		case hres := <-hch:
			rt.finish(hedge, hres)
			if hres.ok() {
				if hres.version == expect {
					rt.metrics.HedgeWins.Add(1)
					obs.KeepTrace(ctx, obs.FlagHedgeWin)
					hres.settle()
					// The hedge answered first: the primary attempt is
					// abandoned from the request's point of view (first
					// close wins, so the late transport outcome is kept
					// only as breaker bookkeeping, off the hot path).
					psp.EndOutcome("abandoned")
					go func() { rt.finish(primary, <-pch) }()
					return hres, hedge, "hedge-win"
				}
				// Version skew discovered at answer time (the replica
				// reloaded after our last observation): discard the
				// answer, keep waiting on the primary.
				rt.metrics.HedgeMixedDiscards.Add(1)
				hres.span.SetAttr("reason", "version-mismatch")
				hres.span.EndOutcome("discarded")
			} else {
				hres.settle()
			}
			hch = nil
		case <-ctx.Done():
			return fwdResult{err: ctx.Err()}, primary, "primary"
		}
	}
}

// routeOne routes one prediction body by shard hash: the ring names the
// replica group, the failover ladder walks it (hedged primary first,
// then sequential failover), and the first usable answer wins.
func (rt *Router) routeOne(ctx context.Context, body []byte, hash uint64) (fwdResult, string, string) {
	owners := rt.ring.Load().Lookup(hash, rt.opts.Replicas)
	cands := make([]*Peer, 0, len(owners))
	for _, addr := range owners {
		p := rt.peers[addr]
		if p == nil || p.State() != PeerLive {
			continue
		}
		if !p.breaker.Allow() {
			// A breaker-refused replica is real routing history: keep the
			// trace and record which peer was skipped.
			obs.KeepTrace(ctx, obs.FlagPeerBreaker)
			obs.AddSpan(ctx, "peer:breaker-open", time.Now(), 0,
				obs.Attr{Key: "peer", Value: p.Addr})
			continue
		}
		cands = append(cands, p)
	}
	if len(cands) == 0 {
		rt.metrics.NoReplica.Add(1)
		return fwdResult{
			status: http.StatusServiceUnavailable,
			body:   []byte(`{"error":"cluster: no live replica for shard"}`),
		}, "", "no-replica"
	}

	var last fwdResult
	lastPeer := cands[0].Addr
	for i, p := range cands {
		var res fwdResult
		answered, route := p, "primary"
		if i == 0 {
			var hedge *Peer
			if len(cands) > 1 {
				hedge = cands[1]
			}
			res, answered, route = rt.hedgedForward(ctx, p, hedge, body)
		} else {
			route = "failover"
			obs.KeepTrace(ctx, obs.FlagFailover)
			res = rt.forwardTo(ctx, p, body, "failover")
			rt.finish(p, res)
			res.settle()
		}
		if res.ok() {
			if i > 0 {
				rt.metrics.Failovers.Add(1)
			}
			return res, answered.Addr, route
		}
		last, lastPeer = res, answered.Addr
		if ctx.Err() != nil {
			break
		}
	}
	// Ladder exhausted: surface the last failure honestly (a shed 503
	// keeps its Retry-After; a transport error becomes 502).
	if last.err != nil {
		return fwdResult{
			status: http.StatusBadGateway,
			body:   []byte(fmt.Sprintf(`{"error":%q}`, "cluster: all replicas failed: "+last.err.Error())),
		}, lastPeer, "exhausted"
	}
	return last, lastPeer, "exhausted"
}

// writeRouted emits a routed result with the router's annotations.
func (rt *Router) writeRouted(w http.ResponseWriter, res fwdResult, peer, route string, elapsed time.Duration) {
	rt.metrics.RouteLatency.Observe(elapsed)
	if res.status >= 400 {
		rt.metrics.HTTPErrors.Add(1)
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	if peer != "" {
		h.Set(PeerHeader, peer)
	}
	h.Set(RouteHeader, route)
	if res.version > 0 {
		h.Set(serve.VersionHeader, strconv.FormatUint(res.version, 10))
	}
	if res.retryAfterSec != "" {
		h.Set("Retry-After", res.retryAfterSec)
	}
	if res.retryAfterMS != "" {
		h.Set(serve.RetryAfterMSHeader, res.retryAfterMS)
	}
	status := res.status
	if status == 0 {
		status = http.StatusBadGateway
	}
	w.WriteHeader(status)
	w.Write(res.body)
}

// readBody reads a request body capped at MaxBodyBytes; an oversized one
// is a 413, as on a serve node. Its errors are *routeError.
func (rt *Router) readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, rt.opts.MaxBodyBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return nil, &routeError{http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooBig.Limit)}
		}
		return nil, &routeError{http.StatusBadRequest, err}
	}
	return raw, nil
}

// readRequest decodes a predict request while keeping the raw bytes for
// forwarding, and resolves its shard hash from the canonical discretized
// feature key.
func (rt *Router) readRequest(w http.ResponseWriter, r *http.Request) ([]byte, uint64, error) {
	raw, err := rt.readBody(w, r)
	if err != nil {
		return nil, 0, err
	}
	req, err := serve.DecodePredictRequest(raw)
	if err != nil {
		return nil, 0, &routeError{http.StatusBadRequest, fmt.Errorf("decode request: %w", err)}
	}
	feat, err := serve.ResolveFeatures(&req, feature.DiscretizationStep)
	if err != nil {
		return nil, 0, &routeError{http.StatusBadRequest, err}
	}
	return raw, feat.ShardHash(), nil
}

// routeError carries the HTTP status a routing-layer error should wear.
type routeError struct {
	status int
	err    error
}

func (e *routeError) Error() string { return e.err.Error() }

func (rt *Router) errorJSON(w http.ResponseWriter, status int, err error) {
	rt.metrics.HTTPErrors.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

func (rt *Router) handlePredict(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		rt.errorJSON(w, http.StatusMethodNotAllowed, fmt.Errorf("use POST"))
		return
	}
	rt.metrics.Requests.Add(1)
	start := time.Now()
	rctx, tr := rt.tracer.StartRequestTrace(r, "route")
	defer tr.Finish()
	body, hash, err := rt.readRequest(w, r)
	if err != nil {
		re := err.(*routeError)
		rt.errorJSON(w, re.status, re.err)
		rt.slo.Observe(re.status < 500, time.Since(start))
		return
	}
	ctx, cancel := context.WithTimeout(rctx, rt.opts.RequestTimeout)
	defer cancel()
	if tr != nil {
		w.Header().Set(obs.TraceHeader, tr.ID())
	}
	res, peer, route := rt.routeOne(ctx, body, hash)
	tr.SetAttr("route", route)
	if peer != "" {
		tr.SetAttr("answered_by", peer)
	}
	status := res.status
	if status == 0 {
		status = http.StatusBadGateway
	}
	switch {
	case status == http.StatusServiceUnavailable:
		tr.Keep(obs.FlagShed)
	case status >= 500:
		tr.Keep(obs.Flag5xx)
	}
	elapsed := time.Since(start)
	rt.slo.Observe(status < 500, elapsed)
	rt.writeRouted(w, res, peer, route, elapsed)
}

func (rt *Router) handlePredictBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		rt.errorJSON(w, http.StatusMethodNotAllowed, fmt.Errorf("use POST"))
		return
	}
	rctx, tr := rt.tracer.StartRequestTrace(r, "route-batch")
	defer tr.Finish()
	raw, err := rt.readBody(w, r)
	if err != nil {
		re := err.(*routeError)
		rt.errorJSON(w, re.status, re.err)
		return
	}
	batch, err := serve.DecodeBatchRequest(raw)
	if err != nil {
		rt.errorJSON(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
		return
	}
	if len(batch.Requests) == 0 {
		rt.errorJSON(w, http.StatusBadRequest, fmt.Errorf("empty batch"))
		return
	}
	rt.metrics.Requests.Add(uint64(len(batch.Requests)))
	ctx, cancel := context.WithTimeout(rctx, rt.opts.RequestTimeout)
	defer cancel()
	if tr != nil {
		w.Header().Set(obs.TraceHeader, tr.ID())
	}

	// Batch items shard independently, so they fan out to their owning
	// nodes concurrently and reassemble positionally, where a node
	// answers its batch's misses in one pass per model snapshot. An item
	// whose ladder ended in a transport error or a 5xx fails the whole
	// round trip for the SLO, as one failed item would for a client.
	start := time.Now()
	resps := make([]serve.PredictResponse, len(batch.Requests))
	var serverFailed atomic.Bool
	var wg sync.WaitGroup
	for i := range batch.Requests {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			item := &batch.Requests[i]
			feat, err := serve.ResolveFeatures(item, feature.DiscretizationStep)
			if err != nil {
				resps[i] = serve.PredictResponse{Error: err.Error()}
				return
			}
			body, err := json.Marshal(item)
			if err != nil {
				resps[i] = serve.PredictResponse{Error: err.Error()}
				return
			}
			res, _, _ := rt.routeOne(ctx, body, feat.ShardHash())
			if !res.ok() {
				serverFailed.Store(true)
				msg := fmt.Sprintf("cluster: upstream status %d", res.status)
				if res.err != nil {
					msg = res.err.Error()
				} else if len(res.body) > 0 {
					var e struct {
						Error string `json:"error"`
					}
					if json.Unmarshal(res.body, &e) == nil && e.Error != "" {
						msg = e.Error
					}
				}
				resps[i] = serve.PredictResponse{Error: msg}
				return
			}
			if err := json.Unmarshal(res.body, &resps[i]); err != nil {
				resps[i] = serve.PredictResponse{Error: "cluster: bad upstream body: " + err.Error()}
			}
		}(i)
	}
	wg.Wait()
	failed := serverFailed.Load()
	if failed {
		tr.Keep(obs.Flag5xx)
	}
	elapsed := time.Since(start)
	rt.metrics.RouteLatency.Observe(elapsed)
	rt.slo.Observe(!failed, elapsed)
	body, err := serve.AppendBatchResponse(nil, &serve.BatchResponse{Responses: resps})
	if err != nil {
		rt.errorJSON(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

func (rt *Router) handleCluster(w http.ResponseWriter, _ *http.Request) {
	ring := rt.ring.Load()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"peers":    rt.PeerInfos(),
		"ring":     ring.Nodes(),
		"replicas": rt.opts.Replicas,
		"vnodes":   DefaultVNodes,
		"events":   rt.metrics.Events(),
	})
}

func (rt *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	live := 0
	for _, p := range rt.peers {
		if p.State() == PeerLive {
			live++
		}
	}
	status := "ok"
	if live == 0 {
		status = "no-live-peers"
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"status":     status,
		"role":       "router",
		"peers":      len(rt.peers),
		"live_peers": live,
		"ring_size":  rt.ring.Load().Len(),
	})
}

func (rt *Router) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	// A failed write means the scraper hung up; there is no one to tell.
	_ = obs.WriteText(w, append(rt.metrics.Families(rt.PeerInfos()), rt.slo.Families()...))
}

// handleTrace serves GET /v1/trace/{trace-id}: the router's own span
// set for the id plus a concurrent fan-out to every peer's
// /debug/traces ring, stitched into one causally ordered cross-process
// timeline with unrecoverable holes (dead peer, evicted ring entry)
// marked as explicit gaps.
func (rt *Router) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/v1/trace/")
	if id == "" || strings.Contains(id, "/") || !obs.ValidTraceID(id) {
		rt.errorJSON(w, http.StatusBadRequest, fmt.Errorf("usage: GET /v1/trace/{trace-id}"))
		return
	}
	parts := make([]obs.NodeTrace, 1, len(rt.peers)+1)
	parts[0] = obs.NodeTrace{Node: rt.Addr()}
	if recs := rt.tracer.Ring().Snapshot(obs.TraceFilter{ID: id, Limit: 1}); len(recs) > 0 {
		rec := recs[0]
		parts[0].Rec = &rec
	}
	// Every configured peer is asked, dead or not — a peer that answers
	// its probe as dead may still hold the spans we need, and one that
	// truly cannot answer becomes a peer-unreachable gap, not an error.
	for _, pg := range rt.getPeers(r.Context(), "/debug/traces?id="+id+"&limit=1") {
		nt := obs.NodeTrace{Node: pg.addr, Err: pg.err}
		if pg.err == nil {
			var env struct {
				Traces []obs.TraceRecord `json:"traces"`
			}
			if err := json.Unmarshal(pg.body, &env); err != nil {
				nt.Err = err
			} else if len(env.Traces) > 0 {
				nt.Rec = &env.Traces[0]
			}
		}
		parts = append(parts, nt)
	}

	tl := obs.Stitch(id, parts)
	if len(tl.Spans) == 0 {
		rt.errorJSON(w, http.StatusNotFound, fmt.Errorf("trace %s not found on any node", id))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(tl)
}

// handleMetricsCluster serves GET /metrics/cluster: every peer's
// /metrics scraped concurrently, re-labeled with node=<addr> and merged
// (counters summed, histograms bucket-merged, gauges per-node). A peer
// that cannot be scraped degrades to a heteromap_federation_stale
// marker — federation never answers 5xx because one node is down.
func (rt *Router) handleMetricsCluster(w http.ResponseWriter, r *http.Request) {
	pages := rt.getPeers(r.Context(), "/metrics")
	nodes := make([]obs.NodeMetrics, len(pages))
	for i, pg := range pages {
		nodes[i] = obs.NodeMetrics{Node: pg.addr, Text: string(pg.body), Err: pg.err}
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	obs.FederateMetrics(w, nodes)
}

// scrapeTimeout bounds one federation or trace-stitch scrape: a dead
// peer costs one second of one goroutine, never the whole response.
const scrapeTimeout = time.Second

// peerPage is one peer's answer to a fanned-out GET: the body of a 200,
// or the error that stood in for it.
type peerPage struct {
	addr string
	body []byte
	err  error
}

// getPeers GETs path from every configured peer concurrently and waits
// for all of them; each GET is bounded by scrapeTimeout.
func (rt *Router) getPeers(ctx context.Context, path string) []peerPage {
	pages := make([]peerPage, 0, len(rt.peers))
	for addr := range rt.peers {
		pages = append(pages, peerPage{addr: addr})
	}
	var wg sync.WaitGroup
	for i := range pages {
		wg.Add(1)
		go func(pg *peerPage) {
			defer wg.Done()
			pg.body, pg.err = rt.getPeer(ctx, pg.addr, path)
		}(&pages[i])
	}
	wg.Wait()
	return pages
}

// getPeer GETs one peer's page, capped at MaxBodyBytes; any status but
// 200 is an error.
func (rt *Router) getPeer(ctx context.Context, addr, path string) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, scrapeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	return io.ReadAll(io.LimitReader(resp.Body, rt.opts.MaxBodyBytes))
}

// clusterChaosRequest is the router's /v1/chaos body; rates in [0,1],
// delays in milliseconds, so profiles are scriptable from curl and from
// the loadgen chaos flipper's cluster mode.
type clusterChaosRequest struct {
	SlowPeerRate  float64 `json:"slow_peer_rate"`
	SlowPeerMS    float64 `json:"slow_peer_ms"`
	PartitionRate float64 `json:"partition_rate"`
	NodeKillRate  float64 `json:"node_kill_rate"`
}

func (rt *Router) handleChaos(w http.ResponseWriter, r *http.Request) {
	if rt.opts.Chaos == nil {
		rt.errorJSON(w, http.StatusConflict,
			fmt.Errorf("chaos injection not enabled (start the router with -chaos-serve)"))
		return
	}
	switch r.Method {
	case http.MethodGet:
		p := rt.opts.Chaos.ServeProfile()
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(clusterChaosRequest{
			SlowPeerRate:  p.SlowPeerRate,
			SlowPeerMS:    float64(p.SlowPeerDelay.Milliseconds()),
			PartitionRate: p.PeerPartitionRate,
			NodeKillRate:  p.NodeKillRate,
		})
	case http.MethodPost:
		var req clusterChaosRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, rt.opts.MaxBodyBytes)).Decode(&req); err != nil {
			rt.errorJSON(w, http.StatusBadRequest, err)
			return
		}
		if req.SlowPeerRate > 0 && req.SlowPeerMS <= 0 {
			req.SlowPeerMS = 50
		}
		rt.opts.Chaos.SetServeProfile(fault.ServeProfile{
			SlowPeerRate:      req.SlowPeerRate,
			SlowPeerDelay:     time.Duration(req.SlowPeerMS * float64(time.Millisecond)),
			PeerPartitionRate: req.PartitionRate,
			NodeKillRate:      req.NodeKillRate,
		})
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]string{
			"profile": rt.opts.Chaos.ServeProfile().String(),
		})
	default:
		rt.errorJSON(w, http.StatusMethodNotAllowed, fmt.Errorf("use GET or POST"))
	}
}
