package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"heteromap/internal/config"
	"heteromap/internal/fault"
	"heteromap/internal/feature"
	"heteromap/internal/machine"
	"heteromap/internal/obs"
	"heteromap/internal/predict/dtree"
	"heteromap/internal/predict/nn"
	"heteromap/internal/train"
)

// ---- helpers ---------------------------------------------------------

// syncBuffer is a mutex-guarded log sink: slog writes from handler and
// worker goroutines race a plain bytes.Buffer under -race.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// logLines parses the buffer's JSON slog lines.
func (b *syncBuffer) logLines(t *testing.T) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(b.String()), "\n") {
		if line == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("bad slog line %q: %v", line, err)
		}
		out = append(out, m)
	}
	return out
}

// newObsTracer builds a tracer that retains everything and logs JSON
// into the returned buffer.
func newObsTracer(rate float64) (*obs.Tracer, *syncBuffer) {
	buf := &syncBuffer{}
	tr := obs.NewTracer(obs.Options{
		SampleRate: rate,
		Logger:     slog.New(slog.NewJSONHandler(buf, nil)),
	})
	return tr, buf
}

// findTrace locates one retained trace by id.
func findTrace(tr *obs.Tracer, id string) (obs.TraceRecord, bool) {
	for _, rec := range tr.Ring().Snapshot(obs.TraceFilter{}) {
		if rec.ID == id {
			return rec, true
		}
	}
	return obs.TraceRecord{}, false
}

func spanNames(rec obs.TraceRecord) map[string]string {
	out := make(map[string]string, len(rec.Spans))
	for _, sp := range rec.Spans {
		out[sp.Name] = sp.Outcome
	}
	return out
}

// spanAttr returns the value of attribute key on the first span named
// name.
func spanAttr(rec obs.TraceRecord, name, key string) string {
	for _, sp := range rec.Spans {
		if sp.Name == name {
			return sp.Attrs[key]
		}
	}
	return ""
}

func bfsRequest(model string) PredictRequest {
	return PredictRequest{
		Model: model, Bench: "BFS",
		Vertices: 3_000_000, Edges: 90_000_000, MaxDegree: 9000, Diameter: 60,
	}
}

// panickyPred simulates a crashed model file so the fallback chain
// degrades onto the built-in decision tree.
type panickyPred struct{}

func (panickyPred) Name() string                    { return "Crashy" }
func (panickyPred) Predict(feature.Vector) config.M { panic("model file corrupted") }

// ---- tentpole: end-to-end trace propagation --------------------------

// One /v1/predict request produces one retained trace whose id is
// echoed in both the X-Heteromap-Trace header and the response body,
// and whose span tree covers every pipeline stage.
func TestTraceEndToEndCoversPipeline(t *testing.T) {
	tracer, _ := newObsTracer(1)
	_, ts := newTestServer(t, Options{Tracer: tracer})

	resp, body := postJSON(t, ts.URL+"/v1/predict", bfsRequest("tree"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	header := resp.Header.Get("X-Heteromap-Trace")
	if header == "" {
		t.Fatal("X-Heteromap-Trace header missing")
	}
	var pr PredictResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.TraceID != header {
		t.Fatalf("body trace_id %q != header %q", pr.TraceID, header)
	}

	rec, ok := findTrace(tracer, header)
	if !ok {
		t.Fatalf("trace %s not retained (SampleRate 1)", header)
	}
	names := spanNames(rec)
	for _, stage := range []string{
		"predict", "decode", "resolve", "inference", "consult:Decision Tree",
	} {
		if _, ok := names[stage]; !ok {
			t.Fatalf("stage span %q missing; trace has %v", stage, names)
		}
	}
	for name, outcome := range names {
		if outcome != "ok" {
			t.Fatalf("span %q finished %q, want ok", name, outcome)
		}
	}
	if rec.Attrs["model"] != "tree" {
		t.Fatalf("trace model attr = %q", rec.Attrs["model"])
	}
	if hits := spanAttr(rec, "resolve", "hits"); hits != "0" {
		t.Fatalf("resolve span hits = %q on a miss, want 0", hits)
	}

	// The cached repeat still traces — but records a cache hit on the
	// resolve span and no inference span.
	resp2, body2 := postJSON(t, ts.URL+"/v1/predict", bfsRequest("tree"))
	var pr2 PredictResponse
	if err := json.Unmarshal(body2, &pr2); err != nil {
		t.Fatal(err)
	}
	if !pr2.Cached {
		t.Fatalf("repeat request not cached: %s", body2)
	}
	rec2, ok := findTrace(tracer, resp2.Header.Get("X-Heteromap-Trace"))
	if !ok {
		t.Fatal("cached request's trace not retained")
	}
	names2 := spanNames(rec2)
	if _, ok := names2["inference"]; ok {
		t.Fatal("cache hit still recorded an inference span")
	}
	if hits := spanAttr(rec2, "resolve", "hits"); hits != "1" {
		t.Fatalf("resolve span hits = %q on a cache hit, want 1", hits)
	}
}

// /v1/predict is a one-item call of the batch routine: a miss and then a
// hit on the same item leave the same spans under the root, the same
// hits on resolve and the same metric deltas whether they came as
// /v1/predict or as a one-item /v1/predict/batch.
func TestSingleRequestIsOneItemBatch(t *testing.T) {
	type step struct {
		spans  []string
		hits   string
		deltas [5]uint64 // Requests, CacheLookup, Batches, BatchItems, RequestLatency
	}
	run := func(path string, body any) []step {
		tracer, _ := newObsTracer(1)
		s, ts := newTestServer(t, Options{Tracer: tracer})
		m := s.Metrics()
		counts := func() [5]uint64 {
			return [5]uint64{m.Requests.Load(), m.CacheLookup.Count(), m.Batches.Load(),
				m.BatchItems.Load(), m.RequestLatency.Count()}
		}
		var steps []step
		for range 2 { // a miss, then a hit on the same item
			before := counts()
			resp, out := postJSON(t, ts.URL+path, body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: status %d: %s", path, resp.StatusCode, out)
			}
			after := counts()
			rec, ok := findTrace(tracer, resp.Header.Get(obs.TraceHeader))
			if !ok {
				t.Fatalf("%s: trace not retained (SampleRate 1)", path)
			}
			st := step{hits: spanAttr(rec, "resolve", "hits")}
			for _, sp := range rec.Spans {
				if sp.Parent >= 0 {
					st.spans = append(st.spans, sp.Name)
				}
			}
			for i := range after {
				st.deltas[i] = after[i] - before[i]
			}
			steps = append(steps, st)
		}
		return steps
	}
	req := bfsRequest("tree")
	single := run("/v1/predict", req)
	batch := run("/v1/predict/batch", BatchRequest{Requests: []PredictRequest{req}})
	for i, what := range []string{"miss", "hit"} {
		if !reflect.DeepEqual(single[i], batch[i]) {
			t.Fatalf("%s: /v1/predict left %+v, a one-item batch %+v", what, single[i], batch[i])
		}
	}
}

// ---- tentpole: /v1/explain provenance --------------------------------

// The provenance record reachable at /v1/explain/{trace-id} reproduces
// the exact M1 + M2-M20 knobs the response carried, names the chain
// link that answered, and exposes the decision-tree path — which must
// match an independent ExplainPredict on the same features.
func TestExplainReproducesServedKnobs(t *testing.T) {
	tracer, _ := newObsTracer(1)
	_, ts := newTestServer(t, Options{Tracer: tracer})

	req := bfsRequest("tree")
	resp, body := postJSON(t, ts.URL+"/v1/predict", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var pr PredictResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}

	eresp, err := http.Get(ts.URL + "/v1/explain/" + pr.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	defer eresp.Body.Close()
	if eresp.StatusCode != http.StatusOK {
		t.Fatalf("explain status %d", eresp.StatusCode)
	}
	var explain struct {
		TraceID     string           `json:"trace_id"`
		Predictions []obs.Provenance `json:"predictions"`
	}
	if err := json.NewDecoder(eresp.Body).Decode(&explain); err != nil {
		t.Fatal(err)
	}
	if explain.TraceID != pr.TraceID || len(explain.Predictions) != 1 {
		t.Fatalf("explain = %+v", explain)
	}
	p := explain.Predictions[0]
	if !reflect.DeepEqual(p.M, pr.M) {
		t.Fatalf("provenance M differs from served M:\n got %v\nwant %v", p.M, pr.M)
	}
	if p.PredictorUsed != pr.PredictorUsed || p.PredictorUsed != "Decision Tree" {
		t.Fatalf("predictor_used = %q (response said %q)", p.PredictorUsed, pr.PredictorUsed)
	}
	if p.Model != pr.Model || p.Version != pr.Version {
		t.Fatalf("provenance identity %s@v%d, response %s@v%d", p.Model, p.Version, pr.Model, pr.Version)
	}
	if len(p.DTreePath) == 0 {
		t.Fatal("dtree_path empty for a tree-served prediction")
	}

	// Independent re-derivation: the same features through a fresh tree
	// must give the same knobs and the same decision path.
	pair := machine.PrimaryPair()
	feat, err := ResolveFeatures(&req, feature.DiscretizationStep)
	if err != nil {
		t.Fatal(err)
	}
	wantM, wantPath := dtree.New(pair.Limits()).ExplainPredict(feat)
	if !reflect.DeepEqual(wantM, pr.M) {
		t.Fatalf("re-derived M differs: %v vs %v", wantM, pr.M)
	}
	if !reflect.DeepEqual(wantPath, p.DTreePath) {
		t.Fatalf("re-derived path differs:\n got %v\nwant %v", p.DTreePath, wantPath)
	}
}

// explainRecords serves /v1/explain/{traceID} in process and decodes
// its records.
func explainRecords(t *testing.T, h http.Handler, traceID string) []obs.Provenance {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/explain/"+traceID, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("explain %s returned %d: %s", traceID, rec.Code, rec.Body.String())
	}
	var body struct {
		Predictions []obs.Provenance `json:"predictions"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	return body.Predictions
}

// An NN-served answer's nn_margin, derived when /v1/explain reads the
// record, is bit-equal to M1Margin of the version that answered — for a
// single miss, its cache hit, a batch-native row, a row repeated inside
// that batch, and a breaker-routed answer on last-known-good.
func TestExplainNNMarginMatchesAnsweringVersion(t *testing.T) {
	pair := machine.PrimaryPair()
	db := train.BuildDatabase(pair, train.Config{Samples: 64, Seed: 7})
	nets := make([]*nn.Network, 2)
	for i := range nets {
		nets[i] = nn.New(pair.Limits(), nn.Options{Hidden: 16, Epochs: 3, Seed: int64(7 + i)})
		if err := nets[i].Train(db.Samples); err != nil {
			t.Fatal(err)
		}
	}
	tracer, _ := newObsTracer(1)
	s := New(Options{Pair: pair, Tracer: tracer, BreakerThreshold: 1, BreakerCooldown: 1000})
	defer s.Shutdown(context.Background())
	good, err := s.Registry().Register("nn", "last-known-good", nets[0])
	if err != nil {
		t.Fatal(err)
	}
	primary, err := s.Registry().Register("nn", "primary", nets[1])
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	netOf := map[uint64]*nn.Network{good.Version: nets[0], primary.Version: nets[1]}

	// post answers one request body at path and returns its trace id.
	post := func(path string, body any) string {
		t.Helper()
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(buf)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s returned %d: %s", path, rec.Code, rec.Body.String())
		}
		return rec.Header().Get(obs.TraceHeader)
	}
	// check requires one record per feature, in serve order and sharing
	// the request's one When, each from wantVersion with the given
	// cached flag and a bit-exact margin.
	check := func(what, traceID string, feats []feature.Vector, cached []bool, wantVersion uint64) {
		t.Helper()
		recs := explainRecords(t, h, traceID)
		if len(recs) != len(feats) {
			t.Fatalf("%s: %d records, want %d", what, len(recs), len(feats))
		}
		for i, p := range recs {
			if !p.When.Equal(recs[0].When) {
				t.Fatalf("%s record %d: when %v, record 0 %v", what, i, p.When, recs[0].When)
			}
			if p.Version != wantVersion || p.Cached != cached[i] {
				t.Fatalf("%s record %d: v%d cached=%v, want v%d cached=%v",
					what, i, p.Version, p.Cached, wantVersion, cached[i])
			}
			if p.NNMargin == nil {
				t.Fatalf("%s record %d: no nn_margin", what, i)
			}
			want := netOf[p.Version].M1Margin(feats[i])
			if math.Float64bits(*p.NNMargin) != math.Float64bits(want) {
				t.Fatalf("%s record %d: nn_margin %v, want %v", what, i, *p.NNMargin, want)
			}
		}
	}
	req := func(f feature.Vector) PredictRequest { return PredictRequest{Model: "nn", Features: f[:]} }

	f0 := testFeature(0)
	check("single miss", post("/v1/predict", req(f0)), []feature.Vector{f0}, []bool{false}, primary.Version)
	check("cache hit", post("/v1/predict", req(f0)), []feature.Vector{f0}, []bool{true}, primary.Version)

	f1, f2 := testFeature(1), testFeature(2)
	passes := s.Metrics().Batches.Load()
	id := post("/v1/predict/batch", BatchRequest{Requests: []PredictRequest{req(f1), req(f2), req(f1)}})
	if got := s.Metrics().Batches.Load() - passes; got != 1 {
		t.Fatalf("batch ran %d inference passes, want one batch-native pass", got)
	}
	check("batch", id, []feature.Vector{f1, f2, f1}, []bool{false, false, true}, primary.Version)

	f3 := testFeature(3)
	if nets[0].M1Margin(f3) == nets[1].M1Margin(f3) {
		t.Fatal("both versions share a margin; the routed case would prove nothing")
	}
	primary.Breaker().RecordFailure()
	check("breaker-routed", post("/v1/predict", req(f3)), []feature.Vector{f3}, []bool{false}, good.Version)
}

// ---- acceptance: flagged slog lines resolve to retained traces -------

// A deadline-expired request answers 504, logs "request failed" with a
// trace id, and tail-based sampling retains that trace even at sample
// rate zero.
func TestDeadline504LogsRetainedTrace(t *testing.T) {
	tracer, buf := newObsTracer(-1)
	_, ts := newTestServer(t, Options{Tracer: tracer, RequestTimeout: time.Nanosecond})

	resp, body := postJSON(t, ts.URL+"/v1/predict", bfsRequest("tree"))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", resp.StatusCode, body)
	}
	id := logTraceID(t, buf, "request failed")
	rec, ok := findTrace(tracer, id)
	if !ok {
		t.Fatalf("logged trace %s not retained", id)
	}
	flags := strings.Join(rec.Flags, ",")
	if !strings.Contains(flags, "5xx") || !strings.Contains(flags, "deadline") {
		t.Fatalf("flags = %v, want 5xx+deadline", rec.Flags)
	}
}

// A predictor crash degrades through the fallback chain; the response
// reports the degradation, the slog line carries the trace id, and the
// trace is retained with the fallback flag.
func TestFallbackLogsRetainedTrace(t *testing.T) {
	tracer, buf := newObsTracer(-1)
	s, ts := newTestServer(t, Options{Tracer: tracer})
	if _, err := s.Registry().Register("crashy", "v1", panickyPred{}); err != nil {
		t.Fatal(err)
	}

	resp, body := postJSON(t, ts.URL+"/v1/predict", bfsRequest("crashy"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var pr PredictResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Fallbacks) == 0 || pr.PredictorUsed != "Decision Tree" {
		t.Fatalf("expected fallback to the tree: used=%q fallbacks=%v", pr.PredictorUsed, pr.Fallbacks)
	}
	id := logTraceID(t, buf, "predictor fallback")
	if id != pr.TraceID {
		t.Fatalf("logged trace %q != response trace %q", id, pr.TraceID)
	}
	rec, ok := findTrace(tracer, id)
	if !ok {
		t.Fatalf("fallback trace %s not retained", id)
	}
	if !strings.Contains(strings.Join(rec.Flags, ","), "fallback") {
		t.Fatalf("flags = %v, want fallback", rec.Flags)
	}
}

// A rejected reload (chaos-corrupted snapshot standing in for a canary
// rejection) logs "reload rejected" with a trace id retained under the
// canary-reject flag.
func TestReloadRejectionLogsRetainedTrace(t *testing.T) {
	tracer, buf := newObsTracer(-1)
	_, ts := newTestServer(t, Options{Tracer: tracer, Chaos: fault.NewServeInjector(1)})

	resp, _ := postJSON(t, ts.URL+"/v1/chaos", map[string]any{"corrupt_reload_rate": 1.0})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("chaos arm status %d", resp.StatusCode)
	}
	resp, body := postJSON(t, ts.URL+"/v1/reload", map[string]string{"model": "tree", "path": "does-not-matter.db"})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422: %s", resp.StatusCode, body)
	}
	id := logTraceID(t, buf, "reload rejected")
	rec, ok := findTrace(tracer, id)
	if !ok {
		t.Fatalf("rejected-reload trace %s not retained", id)
	}
	if !strings.Contains(strings.Join(rec.Flags, ","), "canary-reject") {
		t.Fatalf("flags = %v, want canary-reject", rec.Flags)
	}
}

// logTraceID finds the first slog line with the given msg and returns
// its non-empty trace_id.
func logTraceID(t *testing.T, buf *syncBuffer, msg string) string {
	t.Helper()
	for _, line := range buf.logLines(t) {
		if line["msg"] != msg {
			continue
		}
		id, _ := line["trace_id"].(string)
		if id == "" {
			t.Fatalf("log line %v has no trace_id", line)
		}
		return id
	}
	t.Fatalf("no %q slog line emitted; log:\n%s", msg, buf.String())
	return ""
}

// ---- satellite: stage accounting -------------------------------------

// Served misses attribute their latency across stages: cache lookup +
// inference accounts for (nearly all of) the observed end-to-end total.
func TestStageAccountingSumsToTotal(t *testing.T) {
	pair := machine.PrimaryPair()
	s := missServer(t, Options{Pair: pair}, &slowPred{m: config.DefaultGPU(pair.Limits()), delay: 20 * time.Millisecond})
	metrics := s.Metrics()

	const n = 3
	for i := 0; i < n; i++ {
		if r, status := predictFeat(context.Background(), s, "live", testFeature(i)); status != 0 {
			t.Fatalf("status %d: %s", status, r.Error)
		}
	}
	for _, st := range []struct {
		name  string
		h     *obs.Histogram
		count uint64
	}{
		{"cache", metrics.CacheLookup, n},
		{"inference", metrics.Inference, n},
		{"total", metrics.RequestLatency, n},
	} {
		if got := st.h.Count(); got != st.count {
			t.Fatalf("%s count = %d, want %d", st.name, got, st.count)
		}
	}
	total := metrics.RequestLatency.Sum()
	stages := metrics.CacheLookup.Sum() + metrics.Inference.Sum()
	if stages > total {
		t.Fatalf("stage sums %v exceed observed total %v", stages, total)
	}
	// The unattributed residue is admission, the cache put and response
	// assembly — microseconds per request against ~20ms of inference.
	if gap := total - stages; gap > total/4+10*time.Millisecond {
		t.Fatalf("stages account for too little: total %v, stages %v (gap %v)", total, stages, gap)
	}
	if metrics.Inference.Sum() < n*15*time.Millisecond {
		t.Fatalf("inference sum %v implausibly small for %d 20ms predictions", metrics.Inference.Sum(), n)
	}
}

// A node's batch spends availability budget when an item fails with a
// 5xx status, as the single endpoint and the router's batch route do,
// and keeps its trace with the 5xx flag; a batch whose only failing item
// is a client error spends none.
func TestBatchSLOCountsFailedItems(t *testing.T) {
	inj := fault.NewServeInjector(7)
	inj.SetServeProfile(fault.ServeProfile{QueueRejectRate: 1})
	tracer, _ := newObsTracer(-1)
	_, ts := newTestServer(t, Options{Chaos: inj, Tracer: tracer, SLO: obs.NewSLO(obs.SLOOptions{Availability: 0.99})})
	availability := func() obs.SLOObjective {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/slo")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var snap obs.SLOSnapshot
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
			t.Fatal(err)
		}
		for _, o := range snap.Objectives {
			if o.Name == "availability" {
				return o
			}
		}
		t.Fatalf("/v1/slo has no availability objective: %+v", snap)
		return obs.SLOObjective{}
	}
	post := func(reqs ...PredictRequest) ([]PredictResponse, string) {
		t.Helper()
		resp, body := postJSON(t, ts.URL+"/v1/predict/batch", BatchRequest{Requests: reqs})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch: status %d: %s", resp.StatusCode, body)
		}
		var br BatchResponse
		if err := json.Unmarshal(body, &br); err != nil {
			t.Fatal(err)
		}
		return br.Responses, resp.Header.Get(obs.TraceHeader)
	}

	f := testFeature(1)
	rs, id := post(PredictRequest{Model: "nope", Features: f[:]})
	if rs[0].Error == "" {
		t.Fatal("a row naming an unknown model was answered")
	}
	if o := availability(); o.Requests != 1 || o.Violations != 0 {
		t.Fatalf("after a client-error batch: %d requests, %d violations, want 1 and 0", o.Requests, o.Violations)
	}
	if rec, ok := findTrace(tracer, id); ok && strings.Contains(strings.Join(rec.Flags, ","), "5xx") {
		t.Fatalf("client-error batch kept with flags %v", rec.Flags)
	}

	g := testFeature(2)
	rs, id = post(PredictRequest{Model: "tree", Features: f[:]}, PredictRequest{Model: "tree", Features: g[:]})
	for i, r := range rs {
		if !strings.Contains(r.Error, "prediction queue full") {
			t.Fatalf("row %d: error %q, want the queue-full shed", i, r.Error)
		}
	}
	if o := availability(); o.Requests != 2 || o.Violations != 1 {
		t.Fatalf("after a shed batch: %d requests, %d violations, want 2 and 1", o.Requests, o.Violations)
	}
	rec, ok := findTrace(tracer, id)
	if !ok || !strings.Contains(strings.Join(rec.Flags, ","), "5xx") {
		t.Fatalf("shed batch's trace %s: retained %v, flags %v, want the 5xx flag", id, ok, rec.Flags)
	}
}

// ---- tracing disabled stays inert ------------------------------------

// With DisableTracing the predict path serves identically: no header,
// no trace id, no ring — nil-safe instrumentation end to end.
func TestDisableTracingServesWithoutTraces(t *testing.T) {
	s, ts := newTestServer(t, Options{DisableTracing: true})
	if s.tracer != nil {
		t.Fatal("tracer built despite DisableTracing")
	}
	resp, body := postJSON(t, ts.URL+"/v1/predict", bfsRequest("tree"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if h := resp.Header.Get("X-Heteromap-Trace"); h != "" {
		t.Fatalf("trace header %q emitted with tracing disabled", h)
	}
	var pr PredictResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.TraceID != "" {
		t.Fatalf("trace_id %q in response with tracing disabled", pr.TraceID)
	}
	eresp, err := http.Get(ts.URL + "/v1/explain/anything")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, eresp.Body)
	eresp.Body.Close()
	if eresp.StatusCode != http.StatusNotFound {
		t.Fatalf("explain with tracing disabled: status %d, want 404", eresp.StatusCode)
	}
}
