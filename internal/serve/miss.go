package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"heteromap/internal/fault"
	"heteromap/internal/feature"
	"heteromap/internal/obs"
)

// ErrQueueFull is returned when the miss path's admission semaphore is
// full (or chaos saturates it); the server converts it into 503 with a
// Retry-After hint, so load sheds at admission instead of collapsing
// latency for everyone.
var ErrQueueFull = fmt.Errorf("serve: prediction queue full")

// errInferenceAborted is what the followers of a flight get when its
// leader's inference panicked before answering.
var errInferenceAborted = errors.New("serve: inference aborted")

// breakerSlowInference is the per-version breaker's latency rule: an
// inference slower than this counts as a failure, as a degraded answer
// does.
const breakerSlowInference = 25 * time.Millisecond

// flight is what followers of an in-progress miss inference wait on:
// resp and err are written before done closes.
type flight struct {
	done chan struct{}
	resp PredictResponse
	err  error
}

// flightGroup is a singleflight keyed by CacheKey: N identical cold
// requests run one inference (and one online probe), not N.
type flightGroup struct {
	mu sync.Mutex
	m  map[CacheKey]*flight
}

// join returns the key's flight and whether the caller leads it: a
// leader runs the inference, a follower waits on the flight.
func (g *flightGroup) join(key CacheKey) (f *flight, leader bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if f, ok := g.m[key]; ok {
		return f, false
	}
	if g.m == nil {
		g.m = make(map[CacheKey]*flight)
	}
	f = &flight{done: make(chan struct{})}
	g.m[key] = f
	return f, true
}

// land retires the key's flight and hands its outcome to any followers.
func (g *flightGroup) land(key CacheKey, f *flight, resp *PredictResponse, err error) {
	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	f.resp, f.err = *resp, err
	close(f.done)
}

// tryAdmit takes a miss-path admission slot without blocking.
func (s *Server) tryAdmit() bool {
	select {
	case s.admit <- struct{}{}:
		return true
	default:
		return false
	}
}

// miss answers one cache miss on the caller's goroutine. Admission is a
// non-blocking semaphore of QueueSize slots (503 when full); a leader
// runs the inference inline while concurrent identical misses wait for
// its answer. A miss whose deadline passes before its answer gets 504:
// a follower as soon as it expires, a leader once its inference returns
// (the answer is still cached and handed to its followers).
func (s *Server) miss(ctx context.Context, model *Model, feat feature.Vector, key CacheKey) (PredictResponse, int, error) {
	if err := ctx.Err(); err != nil {
		return s.dropExpired(ctx, err)
	}
	if s.opts.Chaos.RejectQueue() {
		s.metrics.ChaosQueueReject.Add(1)
		return s.shed(ctx)
	}
	if !s.tryAdmit() {
		return s.shed(ctx)
	}
	defer func() { <-s.admit }()

	f, leader := s.flights.join(key)
	if leader {
		resp, err := PredictResponse{}, errInferenceAborted
		// Deferred so a panicking inference still releases its followers
		// (with errInferenceAborted) and leaves no dead flight behind.
		defer func() { s.flights.land(key, f, &resp, err) }()
		resp, err = s.infer(ctx, model, feat), nil
		if cerr := ctx.Err(); cerr != nil {
			return s.dropExpired(ctx, cerr)
		}
		return resp, http.StatusOK, nil
	}
	wait := time.Now()
	select {
	case <-f.done:
	case <-ctx.Done():
		return s.dropExpired(ctx, ctx.Err())
	}
	if f.err != nil {
		return PredictResponse{}, http.StatusInternalServerError, f.err
	}
	obs.AddSpan(ctx, "inference", wait, time.Since(wait), obs.Attr{Key: "shared", Value: "true"})
	s.metrics.BatchItems.Add(1)
	resp := f.resp
	// Answered by the leader's inference: a hit in all but name.
	resp.Cached = true
	return resp, http.StatusOK, nil
}

// shed rejects a miss at admission.
func (s *Server) shed(ctx context.Context) (PredictResponse, int, error) {
	s.metrics.QueueFull.Add(1)
	obs.KeepTrace(ctx, obs.FlagShed)
	return PredictResponse{}, http.StatusServiceUnavailable, ErrQueueFull
}

// dropExpired answers a miss whose deadline passed before its answer.
func (s *Server) dropExpired(ctx context.Context, err error) (PredictResponse, int, error) {
	s.metrics.DeadlineDrops.Add(1)
	obs.KeepTrace(ctx, obs.FlagDeadline)
	return PredictResponse{}, http.StatusGatewayTimeout, err
}

// infer runs one miss's inference inline. When the version's breaker is
// open and a last-known-good version exists, that version answers;
// otherwise the admitted snapshot does. The answer is cached under the
// version that answered, so a routed answer never masquerades as the
// primary's.
func (s *Server) infer(ctx context.Context, model *Model, feat feature.Vector) PredictResponse {
	answered := model
	var events []string
	if lg := s.registry.LastGood(model.Name); lg != nil {
		if br := model.Breaker(); br != nil && !br.Allow() {
			s.metrics.BreakerRouted.Add(1)
			obs.KeepTrace(ctx, obs.FlagBreaker)
			events = []string{fmt.Sprintf("breaker: %s open, routed to last-known-good %s",
				modelVersionTag(model), modelVersionTag(lg))}
			answered = lg
		}
	}
	ictx, sp := obs.StartSpan(ctx, "inference")
	sp.SetAttr("model", modelVersionTag(answered))
	start := time.Now()
	if answered == model {
		// Injected slowness hits the primary only: routing around it is
		// what the breaker is for.
		if d, slow := s.opts.Chaos.SlowModel(); slow {
			s.metrics.ChaosSlowModel.Add(1)
			time.Sleep(d)
		}
	}
	sel := answered.SelectCtx(ictx, feat)
	dur := time.Since(start)
	sp.SetAttr("used", sel.Used)
	sp.End()
	s.recordInference(ctx, answered, dur, sel.Degraded(), 1)
	s.cacheSelection(cacheKeyFor(answered, feat), sel)
	return PredictResponse{
		Model:         answered.Name,
		Version:       answered.Version,
		Key:           feat.Key(),
		PredictorUsed: sel.Used,
		M:             sel.M,
		Fallbacks:     sel.Fallbacks,
		Resilience:    events,
	}
}

// recordInference accounts one inference pass that answered items
// predictions, and feeds the answering version's breaker: a degraded
// answer or a pass slower than breakerSlowInference is a failure.
func (s *Server) recordInference(ctx context.Context, m *Model, dur time.Duration, degraded bool, items int) {
	s.metrics.Batches.Add(1)
	s.metrics.BatchItems.Add(uint64(items))
	s.metrics.Inference.ObserveTraced(dur, obs.TraceID(ctx))
	s.metrics.ObserveModel(m.Name, dur)
	if br := m.Breaker(); br != nil {
		if degraded || dur > breakerSlowInference {
			br.RecordFailure()
		} else {
			br.RecordSuccess()
		}
	}
}

// cacheSelection stores an inference answer and counts its fallbacks.
func (s *Server) cacheSelection(key CacheKey, sel fault.Selection) {
	s.cache.Put(key, cachedPrediction{M: sel.M, Used: sel.Used})
	if n := len(sel.Fallbacks); n > 0 {
		s.metrics.Fallbacks.Add(uint64(n))
	}
}

// batchItem is one resolved batch item.
type batchItem struct {
	i     int // position in the batch
	model *Model
	feat  feature.Vector
	key   CacheKey
	start time.Time
}

// predictBatch answers a batch request's items in order on the calling
// goroutine. Hits are answered from the cache. The distinct misses of
// each model snapshot go through one SelectBatchCtx pass when the model
// is batch-capable, its breaker is closed and no chaos injector is armed
// (and an admission slot is free); otherwise each goes through the
// single-miss path, with its breaker routing, chaos and shedding.
//
// One resolve span covers resolving and looking up every item: per-item
// spans would multiply a batch trace's size by its item count.
func (s *Server) predictBatch(ctx context.Context, reqs []PredictRequest) []PredictResponse {
	resps := make([]PredictResponse, len(reqs))
	var hits, misses []batchItem
	_, sp := obs.StartSpan(ctx, "resolve")
	for i := range reqs {
		feat, err := ResolveFeatures(&reqs[i], s.opts.Step)
		var model *Model
		if err == nil {
			model, err = s.model(ctx, reqs[i].Model)
		}
		if err != nil {
			resps[i].Error = err.Error()
			continue
		}
		it := batchItem{i: i, model: model, feat: feat, key: cacheKeyFor(model, feat), start: time.Now()}
		resp, hit := s.lookup(model, feat, it.key)
		s.metrics.CacheLookup.Observe(time.Since(it.start))
		if hit {
			resps[i] = resp
			hits = append(hits, it)
		} else {
			misses = append(misses, it)
		}
	}
	sp.SetAttr("items", strconv.Itoa(len(reqs)))
	sp.SetAttr("hits", strconv.Itoa(len(hits)))
	sp.End()
	for _, it := range hits {
		s.finish(ctx, it.model, it.feat, &resps[it.i], it.start)
	}

	for len(misses) > 0 {
		// Split off the misses admitted under the first one's snapshot.
		m := misses[0].model
		var group, rest []batchItem
		for _, it := range misses {
			if it.model == m {
				group = append(group, it)
			} else {
				rest = append(rest, it)
			}
		}
		misses = rest
		if s.batchPassable(m) && ctx.Err() == nil && s.tryAdmit() {
			s.inferBatch(ctx, m, group, resps)
			<-s.admit
			continue
		}
		answered := make(map[CacheKey]PredictResponse)
		for _, it := range group {
			resp, repeat := answered[it.key]
			if repeat {
				// A row repeated inside the request reuses the first
				// one's answer, as a singleflight follower does.
				s.metrics.BatchItems.Add(1)
				resp.Cached = true
			} else {
				var err error
				if resp, _, err = s.miss(ctx, it.model, it.feat, it.key); err != nil {
					resps[it.i].Error = err.Error()
					continue
				}
				answered[it.key] = resp
			}
			s.finish(ctx, it.model, it.feat, &resp, it.start)
			resps[it.i] = resp
		}
	}
	return resps
}

// batchPassable reports whether a snapshot's misses may share one
// batch-native pass: breaker routing and fault injection stay on the
// single-miss path.
func (s *Server) batchPassable(m *Model) bool {
	if !m.BatchCapable() || s.opts.Chaos != nil {
		return false
	}
	br := m.Breaker()
	return br == nil || br.State() == fault.BreakerClosed
}

// inferBatch answers one snapshot's misses with a single batch-native
// pass over their distinct features. A feature repeated inside the
// request reuses its row and reports Cached, as a singleflight follower
// does.
func (s *Server) inferBatch(ctx context.Context, m *Model, group []batchItem, resps []PredictResponse) {
	rows := make(map[CacheKey]int, len(group))
	var feats []feature.Vector
	var keys []CacheKey
	for _, it := range group {
		if _, ok := rows[it.key]; !ok {
			rows[it.key] = len(feats)
			feats = append(feats, it.feat)
			keys = append(keys, it.key)
		}
	}
	sels := make([]fault.Selection, len(feats))
	ictx, sp := obs.StartSpan(ctx, "inference")
	sp.SetAttr("model", modelVersionTag(m))
	sp.SetAttr("rows", strconv.Itoa(len(feats)))
	start := time.Now()
	m.SelectBatchCtx(ictx, feats, sels)
	dur := time.Since(start)
	sp.End()
	degraded := false
	for r, sel := range sels {
		degraded = degraded || sel.Degraded()
		s.cacheSelection(keys[r], sel)
	}
	s.recordInference(ctx, m, dur, degraded, len(group))

	answered := make([]bool, len(feats))
	for _, it := range group {
		r := rows[it.key]
		resp := PredictResponse{
			Model:         m.Name,
			Version:       m.Version,
			Key:           it.feat.Key(),
			PredictorUsed: sels[r].Used,
			Cached:        answered[r],
			M:             sels[r].M,
			Fallbacks:     sels[r].Fallbacks,
		}
		answered[r] = true
		s.finish(ctx, m, it.feat, &resp, it.start)
		resps[it.i] = resp
	}
}

// modelVersionTag renders the "name@vN" label used in traces and events.
func modelVersionTag(m *Model) string {
	return m.Name + "@v" + strconv.FormatUint(m.Version, 10)
}

// cacheKeyFor builds the composite cache key: model identity (name and
// version) plus the binary feature key. Pure value construction — no
// allocation — which is what keeps the cache-hit path off the heap.
func cacheKeyFor(m *Model, f feature.Vector) CacheKey {
	return CacheKey{Model: m.Name, Version: m.Version, Feat: f.Binary()}
}
