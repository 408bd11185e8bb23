package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"

	"heteromap/internal/fault"
	"heteromap/internal/feature"
	"heteromap/internal/obs"
	"heteromap/internal/predict/dtree"
	"heteromap/internal/serve"
)

// counters is a snapshot of counters the program already exposes:
// Server.Metrics(), the /metrics cache series, Router.Metrics() (for a
// router tier) and runtime.MemStats.
type counters struct {
	batches, batchItems  uint64
	queueSum, batchSum   time.Duration
	queueN, batchN       uint64
	inferSum             time.Duration
	inferN               uint64
	sheds, hedges        uint64
	hits, misses, evicts float64
	rHedges, rFailovers  uint64
	mallocs, pauseNS     uint64
	gcCPU                float64 // seconds
}

func snapshot(t *target) counters {
	var c counters
	for _, n := range t.nodes {
		m := n.Metrics()
		c.batches += m.Batches.Load()
		c.batchItems += m.BatchItems.Load()
		c.queueSum += m.QueueWait.Sum()
		c.queueN += m.QueueWait.Count()
		c.batchSum += m.BatchAssembly.Sum()
		c.batchN += m.BatchAssembly.Count()
		c.inferSum += m.Inference.Sum()
		c.inferN += m.Inference.Count()
		c.sheds += m.QueueFull.Load() + m.DeadlineDrops.Load()
		c.hedges += m.Hedges.Load() + m.SafeDefaults.Load()
		page := scrapeInProcess(n)
		c.hits += promValue(page, "heteromap_cache_hits_total")
		c.misses += promValue(page, "heteromap_cache_misses_total")
		c.evicts += promValue(page, "heteromap_cache_evictions_total")
	}
	if t.local != nil {
		rm := t.local.Router.Metrics()
		c.rHedges = rm.Hedges.Load()
		c.rFailovers = rm.Failovers.Load() + rm.PeerErrors.Load() + rm.NoReplica.Load()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.pauseNS = ms.Mallocs, ms.PauseTotalNs
	c.gcCPU = gcCPU()
	return c
}

// gcCPU is the process's cumulative GC CPU time in seconds.
func gcCPU() float64 {
	gc := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(gc)
	if gc[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return gc[0].Value.Float64()
}

// gcPerCall scales GC CPU seconds over calls round trips to µs of
// latency: with every client busy, each of clients requests shares
// GOMAXPROCS processors.
func gcPerCall(seconds float64, calls, clients int) float64 {
	return ratio(1e6*seconds, float64(calls)) * float64(clients) / float64(runtime.GOMAXPROCS(0))
}

func scrapeInProcess(n *serve.Server) string {
	rec := httptest.NewRecorder()
	n.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	return rec.Body.String()
}

// promValue reads one unlabeled sample from a text exposition.
func promValue(page, name string) float64 {
	sc := bufio.NewScanner(strings.NewReader(page))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			f, _ := strconv.ParseFloat(v, 64) // the program's own exposition
			return f
		}
	}
	return 0
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func usOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// layerMetrics turns the traced phase's counter deltas into per-layer
// metrics.
func layerMetrics(m map[string]float64, a, b counters, p phase, clients int) {
	hits, misses := b.hits-a.hits, b.misses-a.misses
	m["serve.cache_hit_ratio"] = ratio(hits, hits+misses)
	m["serve.cache_evictions"] = b.evicts - a.evicts
	m["serve.queue_wait_us"] = ratio(usOf(b.queueSum-a.queueSum), float64(b.queueN-a.queueN))
	m["serve.batch_wait_us"] = ratio(usOf(b.batchSum-a.batchSum), float64(b.batchN-a.batchN))
	m["serve.batch_items_mean"] = ratio(float64(b.batchItems-a.batchItems), float64(b.batches-a.batches))
	m["serve.inferences_per_item"] = ratio(float64(b.inferN-a.inferN), float64(b.batchItems-a.batchItems))
	m["serve.sheds"] = float64(b.sheds - a.sheds)
	m["serve.hedges"] = float64(b.hedges - a.hedges)
	m["predict.inference_busy_ms"] = usOf(b.inferSum-a.inferSum) / 1e3
	// Process-wide: the in-process clients' allocations and GC count too.
	m["runtime.allocs_per_req"] = ratio(float64(b.mallocs-a.mallocs), float64(p.attempted))
	m["runtime.gc_pause_ms"] = float64(b.pauseNS-a.pauseNS) / 1e6
	m["runtime.gc_cpu_us"] = gcPerCall(b.gcCPU-a.gcCPU, p.attempted, clients)
}

// ladder replays the ladder sample through each rung of the workload's
// path, in path order, recording a span around every call. Every rung
// runs on as many goroutines at once as the run has clients, so it sees
// the same processor contention as the timed phase.
type ladder struct {
	w       workload
	t       *target
	in      *inputs
	tr      *tracer
	root    int
	clients int
	m       map[string]float64
	// feats are the sample's resolved items, computed outside any rung.
	feats [][]feature.Vector
	// resps are the handler's answers, the encode rung's input.
	resps [][]byte
	// ref is the workload's own closed loop; it runs one untraced slice
	// against the node in every round of the HTTP rungs, and refLat holds
	// those round trips: the end-to-end p50 the rungs reconcile against.
	ref    *closedLoop
	refLat []float64
}

// rungReps is how often each in-process rung replays the sample.
const rungReps = 8

// worker is one goroutine's share of a concurrent rung.
type worker struct {
	lat   []float64
	spans []span
	err   error
}

// fanOut runs body on l.clients goroutines at once under a span named
// name, then adopts their spans and returns their recorded latencies, or
// the first error.
func (l *ladder) fanOut(name string, body func(g int, parent int, w *worker)) ([]float64, error) {
	parent := l.tr.open(name, l.root)
	ws := make([]worker, l.clients)
	var wg sync.WaitGroup
	for g := range ws {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			body(g, parent, &ws[g])
		}(g)
	}
	wg.Wait()
	l.tr.close(parent)
	var lat []float64
	for _, w := range ws {
		if w.err != nil {
			return nil, w.err
		}
		lat = append(lat, w.lat...)
		l.tr.add(w.spans)
	}
	return lat, nil
}

// record adds one timed call to w.
func (l *ladder) record(w *worker, parent int, name string, t0, t1 time.Time) {
	w.lat = append(w.lat, usOf(t1.Sub(t0)))
	w.spans = append(w.spans, span{Parent: parent, Name: name, Start: l.tr.at(t0), End: l.tr.at(t1)})
}

// timed replays fn calls times, cycling over the sample bodies and spread
// over the goroutines; fn gets its goroutine index for any per-goroutine
// state. It returns the median call in µs divided by inner (the
// repetitions fn makes, for rungs too short to time alone).
func (l *ladder) timed(name string, calls, inner int, fn func(g, i int)) float64 {
	lat, _ := l.fanOut(name, func(g, parent int, w *worker) {
		for k := g; k < calls; k += l.clients {
			t0 := time.Now()
			fn(g, k%len(l.in.ladder))
			l.record(w, parent, name+".call", t0, time.Now())
		}
	})
	return median(lat) / float64(inner)
}

// httpTarget is one HTTP rung: where each sample body goes and how its
// answer is checked, with the round trips and GC CPU measured so far.
type httpTarget struct {
	name  string
	urlOf func(i int) string
	check func(i int, body []byte) bool
	d     *closedLoop
	lat   []float64
	gcSec float64
}

// httpRounds and httpSlice split each HTTP rung into short slices taken
// in turn with the other targets, so host drift over the ladder falls
// on every target alike; each target gets httpRounds×httpSlice in all.
const (
	httpRounds = 5
	httpSlice  = 200 * time.Millisecond
)

// httpRungs runs the targets' closed loops, one per client on its own
// connections, cycling through the sample bodies, and in every round one
// slice of the workload's own closed loop (l.ref). Each target's first
// lap opens its connections and is not recorded.
func (l *ladder) httpRungs(ts []*httpTarget) error {
	for _, ht := range ts {
		ht.d = newClosedLoop(l.w, nil, l.clients, 1)
		defer ht.d.close()
	}
	for r := 0; r < httpRounds; r++ {
		for _, ht := range ts {
			gc0 := gcCPU()
			lat, err := l.fanOut(ht.name, func(g, parent int, w *worker) {
				c := ht.d.clients[g]
				k := 0
				if r == 0 {
					k = -len(l.in.ladder)
				}
				var deadline time.Time
				for ; deadline.IsZero() || time.Now().Before(deadline); k++ {
					if k == 0 {
						deadline = time.Now().Add(httpSlice)
					}
					i := (k + len(l.in.ladder) + g) % len(l.in.ladder)
					t0 := time.Now()
					resp, err := c.hc.Post(ht.urlOf(i), "application/json", bytes.NewReader(l.in.ladder[i].body))
					if err != nil {
						w.err = err
						return
					}
					c.buf.Reset()
					_, err = c.buf.ReadFrom(resp.Body)
					resp.Body.Close()
					t1 := time.Now()
					if err != nil || resp.StatusCode != http.StatusOK || !ht.check(i, c.buf.Bytes()) {
						w.err = fmt.Errorf("%s: body %d answered %d (%v)", ht.name, i, resp.StatusCode, err)
						return
					}
					if k >= 0 {
						l.record(w, parent, ht.name+".call", t0, t1)
					}
				}
			})
			if err != nil {
				return err
			}
			ht.lat = append(ht.lat, lat...)
			ht.gcSec += gcCPU() - gc0
		}
		id := l.tr.open("bench.reference_slice", l.root)
		p := l.ref.run(l.t.url, httpSlice, nil, 0)
		l.tr.close(id)
		if p.failed > 0 {
			return fmt.Errorf("reference slice: %d of %d round trips failed", p.failed, p.attempted)
		}
		l.refLat = append(l.refLat, p.latUS...)
	}
	return nil
}

// p50 and gc are a target's median round trip and GC CPU per round trip
// (see gcPerCall), in µs.
func (ht *httpTarget) p50() float64           { return median(ht.lat) }
func (ht *httpTarget) gc(clients int) float64 { return gcPerCall(ht.gcSec, len(ht.lat), clients) }

// serve sends every sample body through each handler in hs in-process,
// passes times over the sample, interleaving the handlers so all see the
// same conditions, and checks every answer. It returns each handler's
// median ServeHTTP time (spans name.call.<index in hs>); keep stores
// hs[0]'s answers for the encode rung.
func (l *ladder) serve(name string, hs []http.Handler, passes int, keep bool) ([]float64, error) {
	var mu sync.Mutex
	lat := make([][]float64, len(hs))
	_, err := l.fanOut(name, func(g, parent int, w *worker) {
		mine := make([][]float64, len(hs))
		for p := 0; p < passes; p++ {
			for i := g; i < len(l.in.ladder); i += l.clients {
				for j, h := range hs {
					req := httptest.NewRequest(http.MethodPost, l.w.path(), bytes.NewReader(l.in.ladder[i].body))
					rec := httptest.NewRecorder()
					t0 := time.Now()
					h.ServeHTTP(rec, req)
					t1 := time.Now()
					if rec.Code != http.StatusOK || !l.checkM(i, rec.Body.Bytes()) {
						w.err = fmt.Errorf("%s: body %d answered %d: %.200s", name, i, rec.Code, rec.Body.String())
						return
					}
					if keep && j == 0 {
						l.resps[i] = rec.Body.Bytes() // each i belongs to one goroutine
					}
					mine[j] = append(mine[j], usOf(t1.Sub(t0)))
					w.spans = append(w.spans, span{Parent: parent, Name: fmt.Sprintf("%s.call.%d", name, j), Start: l.tr.at(t0), End: l.tr.at(t1)})
				}
			}
		}
		mu.Lock()
		for j := range hs {
			lat[j] = append(lat[j], mine[j]...)
		}
		mu.Unlock()
	})
	out := make([]float64, len(hs))
	for j := range hs {
		out[j] = median(lat[j])
	}
	return out, err
}

func (l *ladder) checkM(i int, body []byte) bool {
	o := checkAnswer(body, l.in.ladder[i].want)
	return o.mismatches == 0 && o.itemErrors == 0
}

// startLoopback serves a bare net/http handler that drains the request
// and answers a fixed body of the given size, the transport floor.
func startLoopback(size int) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	body := append(bytes.Repeat([]byte(" "), size-1), '\n')
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.Write(body)
	})}
	done := make(chan struct{})
	go func() { srv.Serve(ln); close(done) }()
	return "http://" + ln.Addr().String(), func() { srv.Close(); <-done }, nil
}

// rung is one step of the path with its cost per request in µs.
type rung struct {
	name string
	us   float64
}

// run measures every rung and returns the path's rungs in order, each
// as µs per request, for reconciliation against the end-to-end p50.
func (l *ladder) run() ([]rung, error) {
	w, n := l.w, l.t.nodes[0]
	m := l.m
	fresh := w.order == "fresh"
	calls := rungReps * len(l.in.ladder)
	reqs := make([][]serve.PredictRequest, len(l.in.ladder))
	l.feats = make([][]feature.Vector, len(l.in.ladder))
	l.resps = make([][]byte, len(l.in.ladder))
	for i, r := range l.in.ladder {
		reqs[i] = l.decode(r.body)
		for j := range reqs[i] {
			f, err := serve.ResolveFeatures(&reqs[i][j], feature.DiscretizationStep)
			if err != nil {
				return nil, err
			}
			l.feats[i] = append(l.feats[i], f)
		}
	}
	items := float64(len(l.feats[0]))
	var path []rung

	// Node exposition: the scrape's cost over HTTP, and every node's page
	// for the federation rung.
	scrapeClient := &http.Client{}
	defer scrapeClient.CloseIdleConnections()
	var scrapeErr error
	var errMu sync.Mutex
	m["serve.metrics_scrape_us"] = l.timed("serve.metrics_scrape", 16, 1, func(int, int) {
		resp, err := scrapeClient.Get("http://" + n.Addr() + "/metrics")
		if err == nil {
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		if err != nil {
			errMu.Lock()
			scrapeErr = err
			errMu.Unlock()
		}
	})
	if scrapeErr != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", scrapeErr)
	}
	pages := []obs.NodeMetrics{{Node: n.Addr(), Text: scrapeInProcess(n)}}

	// In-process handler. The first pass misses on fresh-key workloads
	// (and warms the cache on the others). Warm passes then interleave
	// the traced node with an untraced twin over the same registry.
	twin := serve.New(serve.Options{Addr: "127.0.0.1:0", Pair: n.Registry().Pair(), Registry: n.Registry(), DisableTracing: true})
	defer twin.Shutdown(context.Background())
	first, err := l.serve("serve.handler_cold", []http.Handler{n.Handler()}, 1, true)
	if err != nil {
		return nil, err
	}
	if _, err := l.serve("serve.handler_twin_warmup", []http.Handler{twin.Handler()}, 1, false); err != nil {
		return nil, err
	}
	// A batch body is many items; fewer passes keep its ladder short.
	passes := max(2, rungReps/len(l.feats[0]))
	warm, err := l.serve("serve.handler", []http.Handler{n.Handler(), twin.Handler()}, passes, false)
	if err != nil {
		return nil, err
	}
	m["serve.handler_us"] = warm[0]
	if fresh {
		m["serve.handler_us"] = first[0]
	}
	m["obs.trace_us"] = warm[0] - warm[1]

	// Transport floor: a bare server answering the same response size.
	size := 0
	for _, r := range l.resps {
		size += len(r)
	}
	lbURL, stopLB, err := startLoopback(size / len(l.resps))
	if err != nil {
		return nil, err
	}
	defer stopLB()
	// The router tier, for a sideCluster workload: a cluster started
	// beside the node. It is not on the workload's path.
	var ct *target
	if w.sideCluster {
		if ct, err = startCluster(); err != nil {
			return nil, err
		}
		defer ct.stop()
	}

	// The HTTP rungs: the bare server and, with a router tier, the same
	// bodies via the router and direct to each body's owner.
	any200 := func(int, []byte) bool { return true }
	loop := &httpTarget{name: "serve.loopback", urlOf: func(int) string { return lbURL + w.path() }, check: any200}
	targets := []*httpTarget{loop}
	var via, direct *httpTarget
	var before counters
	if ct != nil {
		ring := ct.local.Router.Ring()
		via = &httpTarget{name: "cluster.via_router", urlOf: func(int) string { return ct.url + w.path() }, check: l.checkM}
		direct = &httpTarget{name: "cluster.direct_owner", urlOf: func(i int) string {
			return "http://" + ring.Lookup(l.feats[i][0].ShardHash(), 1)[0] + w.path()
		}, check: l.checkM}
		targets = append(targets, via, direct)
		before = snapshot(ct)
	}
	if err := l.httpRungs(targets); err != nil {
		return nil, err
	}
	m["serve.loopback_us"] = loop.p50()
	path = append(path, rung{"serve.loopback_us", m["serve.loopback_us"]})
	// GC the loopback rung already includes is not charged again below.
	gcLoopback := loop.gc(l.clients)
	if ct != nil {
		m["cluster.router_hop_us"] = via.p50() - direct.p50()
		after := snapshot(ct)
		m["cluster.hedges"] = float64(after.rHedges - before.rHedges)
		m["cluster.failovers"] = float64(after.rFailovers - before.rFailovers)
		ring := ct.local.Router.Ring()
		m["cluster.ring_lookup_ns"] = 1e3 * l.timed("cluster.ring_lookup", calls, 100, func(_, i int) {
			f := l.feats[i][0]
			for k := 0; k < 100; k++ {
				ring.Lookup(f.ShardHash(), 2)
			}
		})
		fedClient := &http.Client{}
		defer fedClient.CloseIdleConnections()
		var fedErr error
		m["cluster.federation_scrape_us"] = l.timed("cluster.federation_scrape", 8, 1, func(int, int) {
			resp, err := fedClient.Get(ct.url + "/metrics/cluster")
			if err == nil {
				_, err = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			if err != nil {
				errMu.Lock()
				fedErr = err
				errMu.Unlock()
			}
		})
		if fedErr != nil {
			return nil, fmt.Errorf("scrape /metrics/cluster: %w", fedErr)
		}
	}

	// Per-goroutine sinks keep the compiler from dropping calls whose
	// result is otherwise unused.
	sink := make([]any, l.clients)
	m["serve.decode_us"] = l.timed("serve.decode", calls, 1, func(g, i int) { sink[g] = l.decode(l.in.ladder[i].body) })
	path = append(path, rung{"serve.decode_us", m["serve.decode_us"]})

	m["serve.resolve_us"] = l.timed("serve.resolve", calls, 1, func(g, i int) {
		for j := range reqs[i] {
			sink[g], _ = serve.ResolveFeatures(&reqs[i][j], feature.DiscretizationStep)
		}
	})
	path = append(path, rung{"serve.resolve_us", m["serve.resolve_us"]})

	keys := make([]feature.BinaryKey, l.clients)
	m["feature.binary_key_ns"] = 1e3 * l.timed("feature.binary_key", calls, 100, func(g, i int) {
		for k := 0; k < 100; k++ {
			keys[g] = l.feats[i][k%len(l.feats[i])].Binary()
		}
	})

	// After the handler passes every sample key is cached on n.
	model := w.modelName()
	cacheBody := l.timed("serve.cache", calls, 1, func(_, i int) {
		for _, f := range l.feats[i] {
			n.PredictCached(model, f)
		}
	})
	m["serve.cache_hit_us"] = cacheBody / items
	path = append(path, rung{"serve.cache_us", cacheBody})

	tree, err := n.Registry().Get("tree")
	if err != nil {
		return nil, err
	}
	m["predict.tree_us"] = l.timed("predict.tree", calls, 100, func(_, i int) {
		for k := 0; k < 100; k++ {
			tree.Select(l.feats[i][k%len(l.feats[i])])
		}
	})
	if dt, ok := tree.Link(tree.PredictorName()).(*dtree.Tree); ok {
		m["predict.tree_explain_us"] = l.timed("predict.tree_explain", calls, 10, func(_, i int) {
			for k := 0; k < 10; k++ {
				dt.ExplainPredict(l.feats[i][k%len(l.feats[i])])
			}
		})
	}
	if w.deep {
		deep, err := n.Registry().Get("deep")
		if err != nil {
			return nil, err
		}
		m["predict.deep128_us"] = l.timed("predict.deep128", calls, 1, func(_, i int) { deep.Select(l.feats[i][0]) })
		dst := make([][]fault.Selection, l.clients)
		for g := range dst {
			dst[g] = make([]fault.Selection, len(l.feats[0]))
		}
		m["predict.deep128_batch_row_us"] = l.timed("predict.deep128_batch", calls, len(l.feats[0]), func(g, i int) {
			deep.SelectBatchCtx(context.Background(), l.feats[i], dst[g])
		})
	}
	if fresh {
		// What a miss adds to a hit: queue wait, micro-batch fill,
		// inference and cache put. queue_wait_us, batch_wait_us and the
		// predict.* rungs break it down (as means, so they do not sum).
		path = append(path, rung{"serve.miss_path_us", first[0] - warm[0]})
	}

	keyBody := l.timed("feature.key_string", calls, 1, func(g, i int) {
		for _, f := range l.feats[i] {
			sink[g] = f.Key()
		}
	})
	m["feature.key_string_us"] = keyBody / items
	path = append(path, rung{"feature.key_string_us", keyBody}, rung{"obs.trace_us", m["obs.trace_us"]})

	resps := make([]any, len(l.resps))
	for i := range l.resps {
		if resps[i], err = l.decodeResponse(l.resps[i]); err != nil {
			return nil, err
		}
	}
	m["serve.encode_us"] = l.timed("serve.encode", calls, 1, func(g, i int) { sink[g], _ = json.Marshal(resps[i]) })
	path = append(path, rung{"serve.encode_us", m["serve.encode_us"]},
		rung{"runtime.gc_beyond_http_us", m["runtime.gc_cpu_us"] - gcLoopback})

	m["obs.federate_us"] = l.timed("obs.federate", 16, 1, func(int, int) { obs.FederateMetrics(io.Discard, pages) })
	return path, nil
}

func (l *ladder) decode(body []byte) []serve.PredictRequest {
	if l.w.batch > 0 {
		var b serve.BatchRequest
		json.Unmarshal(body, &b) // bodies are generated by the benchmark
		return b.Requests
	}
	var r serve.PredictRequest
	json.Unmarshal(body, &r)
	return []serve.PredictRequest{r}
}

func (l *ladder) decodeResponse(body []byte) (any, error) {
	if l.w.batch > 0 {
		var b serve.BatchResponse
		err := json.Unmarshal(body, &b)
		return b, err
	}
	var r serve.PredictResponse
	err := json.Unmarshal(body, &r)
	return r, err
}
