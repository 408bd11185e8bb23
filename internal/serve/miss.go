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
// inference pass slower than this counts as a failure, as a degraded
// answer does.
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

// missRow is one distinct cache miss handed to answerMisses, and its
// outcome: an answer, or an error and the HTTP status it carries.
type missRow struct {
	feat feature.Vector
	key  CacheKey // under the admitted snapshot; it names the row's flight

	resp   PredictResponse
	status int
	err    error

	f    *flight
	lead bool
}

// answerMisses answers the distinct cache misses of one request under
// one model snapshot, on the caller's goroutine. It is the only miss
// path: a single request's miss is a one-row call.
//
// The call takes one of QueueSize admission slots, or sheds every row
// with 503. Each row joins its key's singleflight. The rows the call
// leads go through one inference pass, whose answers are cached and
// handed to the flights' followers; only then does the call wait on the
// rows that other requests lead. Landing before waiting keeps two
// requests that lead each other's rows from waiting on each other.
// A row whose deadline passes before its answer gets 504: a followed
// row as soon as it expires, a led row once the pass returns (its
// answer is still cached and handed on).
func (s *Server) answerMisses(ctx context.Context, model *Model, rows []missRow) {
	if err := ctx.Err(); err != nil {
		for i := range rows {
			s.dropExpired(ctx, &rows[i], err)
		}
		return
	}
	rejected := s.opts.Chaos.RejectQueue()
	if rejected {
		s.metrics.ChaosQueueReject.Add(1)
	}
	if rejected || !s.tryAdmit() {
		for i := range rows {
			s.shed(ctx, &rows[i])
		}
		return
	}
	defer func() { <-s.admit }()

	feats := make([]feature.Vector, 0, len(rows))
	for i := range rows {
		r := &rows[i]
		if r.f, r.lead = s.flights.join(r.key); r.lead {
			feats = append(feats, r.feat)
		}
	}
	if len(feats) > 0 {
		s.pass(ctx, model, rows, feats)
	}
	// A led row is late only if its deadline passed during the pass, not
	// while this call waits on other requests' rows.
	late := ctx.Err()
	for i := range rows {
		r := &rows[i]
		if r.lead {
			if late != nil {
				s.dropExpired(ctx, r, late)
			}
			continue
		}
		wait := time.Now()
		select {
		case <-r.f.done:
		case <-ctx.Done():
			s.dropExpired(ctx, r, ctx.Err())
			continue
		}
		if r.f.err != nil {
			r.status, r.err = http.StatusInternalServerError, r.f.err
			continue
		}
		obs.AddSpan(ctx, "inference", wait, time.Since(wait), obs.Attr{Key: "shared", Value: "true"})
		s.metrics.BatchItems.Add(1)
		r.resp = r.f.resp
		// Answered by the leader's inference: a hit in all but name.
		r.resp.Cached = true
	}
}

// pass answers the rows a call leads, whose features are feats, with one
// SelectBatchCtx pass. When the snapshot's breaker is open and a
// last-known-good version exists, that version answers the whole pass;
// otherwise the snapshot does, and slow-model chaos may stall the pass
// once. Each answer is cached under the version that gave it, so a
// routed answer never masquerades as the primary's, and every led
// flight lands, with errInferenceAborted if the pass panics.
func (s *Server) pass(ctx context.Context, model *Model, rows []missRow, feats []feature.Vector) {
	err := errInferenceAborted
	defer func() {
		for i := range rows {
			if r := &rows[i]; r.lead {
				s.flights.land(r.key, r.f, &r.resp, err)
			}
		}
	}()

	answered, routed := model, ""
	if lg := s.registry.LastGood(model.Name); lg != nil {
		if br := model.Breaker(); br != nil && !br.Allow() {
			s.metrics.BreakerRouted.Add(uint64(len(feats)))
			obs.KeepTrace(ctx, obs.FlagBreaker)
			routed = fmt.Sprintf("breaker: %s open, routed to last-known-good %s",
				modelVersionTag(model), modelVersionTag(lg))
			answered = lg
		}
	}
	sels := make([]fault.Selection, len(feats))
	ictx, sp := obs.StartSpan(ctx, "inference")
	sp.SetAttr("model", modelVersionTag(answered))
	sp.SetAttr("rows", strconv.Itoa(len(feats)))
	start := time.Now()
	if answered == model {
		// Injected slowness hits the primary only: routing around it is
		// what the breaker is for.
		if d, slow := s.opts.Chaos.SlowModel(); slow {
			s.metrics.ChaosSlowModel.Add(1)
			time.Sleep(d)
		}
	}
	answered.SelectBatchCtx(ictx, feats, sels)
	dur := time.Since(start)
	sp.End()

	s.metrics.Batches.Add(1)
	s.metrics.BatchItems.Add(uint64(len(feats)))
	s.metrics.Inference.ObserveTraced(dur, obs.TraceID(ctx))
	s.metrics.ObserveModel(answered.Name, dur)
	degraded, j := false, 0
	for i := range rows {
		r := &rows[i]
		if !r.lead {
			continue
		}
		sel := &sels[j]
		j++
		degraded = degraded || sel.Degraded()
		if n := len(sel.Fallbacks); n > 0 {
			s.metrics.Fallbacks.Add(uint64(n))
		}
		s.cache.Put(cacheKeyFor(answered, r.feat), cachedPrediction{M: sel.M, Used: sel.Used})
		r.resp = PredictResponse{
			Model:         answered.Name,
			Version:       answered.Version,
			Key:           r.feat.Key(),
			PredictorUsed: sel.Used,
			M:             sel.M,
			Fallbacks:     sel.Fallbacks,
		}
		if routed != "" {
			// One slice per row: observeOnline appends to it.
			r.resp.Resilience = []string{routed}
		}
	}
	// A degraded answer or a pass slower than breakerSlowInference is a
	// failure for the answering version's breaker.
	if br := answered.Breaker(); br != nil {
		if degraded || dur > breakerSlowInference {
			br.RecordFailure()
		} else {
			br.RecordSuccess()
		}
	}
	err = nil
}

// shed rejects a miss at admission.
func (s *Server) shed(ctx context.Context, r *missRow) {
	s.metrics.QueueFull.Add(1)
	obs.KeepTrace(ctx, obs.FlagShed)
	r.status, r.err = http.StatusServiceUnavailable, ErrQueueFull
}

// dropExpired answers a miss whose deadline passed before its answer.
func (s *Server) dropExpired(ctx context.Context, r *missRow, err error) {
	s.metrics.DeadlineDrops.Add(1)
	obs.KeepTrace(ctx, obs.FlagDeadline)
	r.status, r.err = http.StatusGatewayTimeout, err
}

// batchItem is one resolved batch item.
type batchItem struct {
	i     int // position in the batch
	model *Model
	feat  feature.Vector
	key   CacheKey
	start time.Time

	row    int  // the item's distinct miss row
	repeat bool // an earlier item of the request has the same row
}

// predictBatch answers a batch request's items in order on the calling
// goroutine and reports whether any item failed with a 5xx status. Hits
// are answered from the cache. The distinct misses under each model
// snapshot go through one answerMisses call, and a row repeated inside
// the request reuses its first occurrence's answer and reports Cached,
// as a singleflight follower does.
//
// One resolve span covers resolving and looking up every item: per-item
// spans would multiply a batch trace's size by its item count.
func (s *Server) predictBatch(ctx context.Context, reqs []PredictRequest) (resps []PredictResponse, failed bool) {
	resps = make([]PredictResponse, len(reqs))
	var hits, misses []batchItem
	_, sp := obs.StartSpan(ctx, "resolve")
	for i := range reqs {
		feat, err := ResolveFeatures(&reqs[i], feature.DiscretizationStep)
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
		// Split off the misses admitted under the first one's snapshot,
		// one row per distinct key.
		m := misses[0].model
		var rest []batchItem
		group := make([]batchItem, 0, len(misses))
		rows := make([]missRow, 0, len(misses))
		at := make(map[CacheKey]int, len(misses))
		for _, it := range misses {
			if it.model != m {
				rest = append(rest, it)
				continue
			}
			if it.row, it.repeat = at[it.key]; !it.repeat {
				it.row = len(rows)
				at[it.key] = it.row
				rows = append(rows, missRow{feat: it.feat, key: it.key})
			}
			group = append(group, it)
		}
		misses = rest
		s.answerMisses(ctx, m, rows)
		for _, it := range group {
			r := &rows[it.row]
			if r.err != nil {
				resps[it.i].Error = r.err.Error()
				failed = failed || r.status >= http.StatusInternalServerError
				continue
			}
			resp := r.resp
			if it.repeat {
				s.metrics.BatchItems.Add(1)
				resp.Cached = true
			}
			s.finish(ctx, m, it.feat, &resp, it.start)
			resps[it.i] = resp
		}
	}
	return resps, failed
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
