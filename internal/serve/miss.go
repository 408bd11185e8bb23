package serve

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"heteromap/internal/fault"
	"heteromap/internal/feature"
	"heteromap/internal/obs"
	"heteromap/internal/online"
)

// ErrQueueFull is the error of a miss shed because the miss path's
// admission semaphore is full (or chaos saturates it); its item answers
// 503, with a Retry-After hint on /v1/predict, so load sheds at
// admission instead of collapsing latency for everyone.
var ErrQueueFull = fmt.Errorf("serve: prediction queue full")

// breakerSlowInference is the per-version breaker's latency rule: an
// inference pass slower than this counts as a failure, as a degraded
// answer does.
const breakerSlowInference = 25 * time.Millisecond

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
// outcome: a final answer and the snapshot that gave it, or an error
// and the HTTP status it carries.
type missRow struct {
	feat feature.Vector

	resp   PredictResponse
	by     *Model
	status int
	err    error
}

// answerMisses answers the distinct cache misses of one request under
// one model snapshot, on the caller's goroutine. It is the only miss
// path, and predict its only caller.
//
// The call takes one of QueueSize admission slots, or sheds every row
// with 503, and answers its rows with one inference pass. Beyond the
// slot it shares nothing with other requests' calls, so N concurrent
// identical misses run N passes. A row whose deadline passes before the
// pass returns gets 504; its answer is still cached.
func (s *Server) answerMisses(ctx context.Context, model *Model, rows []missRow) {
	if ctx.Err() == nil {
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
		s.pass(ctx, model, rows)
	}
	if err := ctx.Err(); err != nil {
		for i := range rows {
			s.dropExpired(ctx, &rows[i], err)
		}
	}
}

// pass answers rows with one SelectBatchCtx pass, runs the online probe
// on each answer, and caches each final answer once under model: it is
// the cache's only request-path writer. When the snapshot's breaker is
// open and a last-known-good version exists, that version answers the
// whole pass and nothing is cached, because no lookup reads
// last-known-good's keys; otherwise the snapshot answers, and
// slow-model chaos may stall the pass once.
func (s *Server) pass(ctx context.Context, model *Model, rows []missRow) {
	answered, routed := model, ""
	if lg := s.registry.LastGood(model.Name); lg != nil {
		if br := model.Breaker(); br != nil && !br.Allow() {
			s.metrics.BreakerRouted.Add(uint64(len(rows)))
			obs.KeepTrace(ctx, obs.FlagBreaker)
			routed = fmt.Sprintf("breaker: %s open, routed to last-known-good %s",
				modelVersionTag(model), modelVersionTag(lg))
			answered = lg
		}
	}
	feats := make([]feature.Vector, len(rows))
	for i := range rows {
		feats[i] = rows[i].feat
	}
	sels := make([]fault.Selection, len(rows))
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
	degraded := false
	for i := range rows {
		r, sel := &rows[i], &sels[i]
		degraded = degraded || sel.Degraded()
		if n := len(sel.Fallbacks); n > 0 {
			s.metrics.Fallbacks.Add(uint64(n))
		}
		r.by = answered
		r.resp = PredictResponse{
			Model:         answered.Name,
			Version:       answered.Version,
			Key:           r.feat.Key(),
			PredictorUsed: sel.Used,
			M:             sel.M,
			Fallbacks:     sel.Fallbacks,
		}
		if routed != "" {
			// One slice per row: probe appends to it.
			r.resp.Resilience = []string{routed}
		}
		s.probe(ctx, r)
		if routed == "" {
			s.cache.Put(cacheKeyFor(model, r.feat), cachedPrediction{M: r.resp.M, Used: r.resp.PredictorUsed, Key: r.resp.Key})
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
}

// probe is the uncertainty routing of the online loop: when the
// confidence of the link that answered r falls below the floor, r's
// answer is replaced by a bounded exhaustive probe's.
func (s *Server) probe(ctx context.Context, r *missRow) {
	on := s.opts.Online
	if on == nil {
		return
	}
	conf, low := on.Assess(r.by.Link(r.resp.PredictorUsed), r.feat)
	if !low {
		return
	}
	sp := obs.NewSpan(ctx, "probe")
	pm, _ := on.Probe(r.feat)
	sp.SetAttr("confidence", strconv.FormatFloat(conf, 'g', 3, 64))
	sp.End()
	ev := fmt.Sprintf("probe: %s confidence %.3f below floor %.3f; exhaustive probe served",
		r.resp.PredictorUsed, conf, on.UncertaintyFloor())
	r.resp.M, r.resp.PredictorUsed = pm, online.ProbePredictor
	r.resp.Resilience = append(r.resp.Resilience, ev)
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

// batchItem is one request item: its model snapshot (nil when it failed
// to resolve), features and cache key, when its lookup began, and
// whether the cache answered it.
type batchItem struct {
	model *Model
	feat  feature.Vector
	key   CacheKey
	start time.Time
	hit   bool

	row    int  // the item's distinct miss row
	repeat bool // an earlier item of the request has the same row
}

// predict answers a request's items in order on the calling goroutine:
// it is the node's one request path, and /v1/predict is a one-item call.
// Hits are answered from the cache. The distinct misses under each model
// snapshot go through one answerMisses call. A row repeated inside the
// request serves its first occurrence's answer and reports Cached. A
// failed item carries its message in Error, and status is the largest
// HTTP status any item failed with (0 when none did).
//
// One resolve span covers resolving and looking up every item: per-item
// spans would multiply a batch trace's size by its item count. Misses
// are grouped by their index into items, so no item is copied.
func (s *Server) predict(ctx context.Context, reqs []PredictRequest) (resps []PredictResponse, status int) {
	resps = make([]PredictResponse, len(reqs))
	fail := func(i, st int, err error) {
		resps[i].Error = err.Error()
		status = max(status, st)
	}
	items := make([]batchItem, len(reqs))
	misses := make([]int, 0, len(reqs)) // indices into items
	hits := 0
	sp := obs.NewSpan(ctx, "resolve")
	for i := range reqs {
		feat, err := ResolveFeatures(&reqs[i], feature.DiscretizationStep)
		if err != nil {
			fail(i, http.StatusBadRequest, err)
			continue
		}
		model, err := s.model(ctx, reqs[i].Model)
		if err != nil {
			fail(i, http.StatusNotFound, err)
			continue
		}
		it := &items[i]
		it.model, it.feat, it.key, it.start = model, feat, cacheKeyFor(model, feat), time.Now()
		resps[i], it.hit = s.lookup(model, it.key)
		s.metrics.CacheLookup.Observe(time.Since(it.start))
		if it.hit {
			hits++
		} else {
			misses = append(misses, i)
		}
	}
	sp.SetAttr("items", strconv.Itoa(len(reqs)))
	sp.SetAttr("hits", strconv.Itoa(hits))
	sp.End()

	done := s.newServed(ctx, len(reqs))
	for i := range items {
		if it := &items[i]; it.hit {
			s.finish(ctx, &done, it.model, it.feat, &resps[i], it.start)
		}
	}
	group := make([]int, 0, len(misses))
	for len(misses) > 0 {
		// Split off the misses admitted under the first one's snapshot,
		// keeping the rest in order for a later pass.
		m := items[misses[0]].model
		group = group[:0]
		rest := misses[:0]
		for _, i := range misses {
			if items[i].model == m {
				group = append(group, i)
			} else {
				rest = append(rest, i)
			}
		}
		misses = rest
		rows := make([]missRow, 0, len(group))
		assignRows(items, group, CacheKey.hash)
		for _, i := range group {
			if it := &items[i]; !it.repeat {
				rows = append(rows, missRow{feat: it.feat})
			}
		}
		s.answerMisses(ctx, m, rows)
		for _, i := range group {
			it := &items[i]
			r := &rows[it.row]
			if r.err != nil {
				fail(i, r.status, r.err)
				continue
			}
			resps[i] = r.resp
			if it.repeat {
				s.metrics.BatchItems.Add(1)
				resps[i].Cached = true
			}
			s.finish(ctx, &done, r.by, it.feat, &resps[i], it.start)
		}
	}
	s.finishRequest(&done)
	return resps, status
}

// assignRows gives each item of group its miss row: one row per distinct
// key, numbered in order of first appearance, with repeat set on every
// later item of a key. An item finds an earlier one by its key's hash,
// as the cache does, and compares whole keys on a match, so a key that
// shares another's hash still gets a row of its own. A lone miss needs
// no index.
func assignRows(items []batchItem, group []int, hash func(CacheKey) uint64) {
	if len(group) == 1 {
		items[group[0]].row, items[group[0]].repeat = 0, false
		return
	}
	first := make(map[uint64]int, len(group)) // a hash's first item
	rows := 0
	for g, i := range group {
		it := &items[i]
		it.repeat = false
		h := hash(it.key)
		if j, ok := first[h]; !ok {
			first[h] = i
		} else if items[j].key == it.key {
			it.row, it.repeat = items[j].row, true
		} else {
			// Another key holds the hash: look through the earlier items.
			for _, j := range group[:g] {
				if items[j].key == it.key {
					it.row, it.repeat = items[j].row, true
					break
				}
			}
		}
		if !it.repeat {
			it.row = rows
			rows++
		}
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
