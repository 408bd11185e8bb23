package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"heteromap/internal/config"
)

// TestNilSafety pins the contract the hot paths rely on: every call on
// a nil tracer/trace/span is a no-op, never a panic.
func TestNilSafety(t *testing.T) {
	var tr *Tracer
	ctx, trace := tr.StartTrace(context.Background(), "x")
	if trace != nil {
		t.Fatalf("nil tracer returned a trace")
	}
	trace.SetAttr("k", "v")
	trace.Keep(FlagError)
	trace.Finish()
	if got := trace.ID(); got != "" {
		t.Fatalf("nil trace ID = %q", got)
	}
	ctx2, sp := StartSpan(ctx, "child")
	if sp != nil {
		t.Fatalf("untraced context produced a span")
	}
	if ctx2 != ctx {
		t.Fatalf("untraced StartSpan changed the context")
	}
	sp.SetAttr("k", "v")
	sp.End()
	sp.EndErr(fmt.Errorf("boom"))
	sp.Cancel()
	NewSpan(ctx, "x").End()
	AddSpan(ctx, "x", time.Now(), time.Millisecond)
	if id := TraceID(ctx); id != "" {
		t.Fatalf("untraced TraceID = %q", id)
	}
	KeepTrace(ctx, Flag5xx)
	tr.Log(ctx, slog.LevelError, "dropped")
	if tr.Ring() != nil || tr.Prov() != nil {
		t.Fatalf("nil tracer exposed stores")
	}
	// nil context must behave like an untraced one.
	if TraceFromContext(nil) != nil || NewSpan(nil, "x") != nil {
		t.Fatalf("nil context produced trace state")
	}
}

// TestSpanTree pins ids, parents, attributes and outcomes of a small
// trace as recorded in the ring.
func TestSpanTree(t *testing.T) {
	tr := NewTracer(Options{SampleRate: 1})
	ctx, trace := tr.StartTrace(context.Background(), "predict")
	trace.SetAttr("model", "tree")

	ctx2, a := StartSpan(ctx, "resolve")
	a.SetAttr("key", "BFS|...")
	a.End()
	_, b := StartSpan(ctx2, "registry")
	b.EndErr(fmt.Errorf("no such model"))
	AddSpan(ctx, "cache", time.Now().Add(-time.Millisecond), time.Millisecond, Attr{"hit", "true"})
	trace.Finish()
	trace.Finish() // idempotent

	recs := tr.Ring().Snapshot(TraceFilter{})
	if len(recs) != 1 {
		t.Fatalf("ring holds %d records, want 1", len(recs))
	}
	rec := recs[0]
	if rec.ID != trace.ID() || rec.Name != "predict" {
		t.Fatalf("record id/name = %q/%q", rec.ID, rec.Name)
	}
	if rec.Attrs["model"] != "tree" {
		t.Fatalf("trace attrs = %v", rec.Attrs)
	}
	if len(rec.Spans) != 4 {
		t.Fatalf("got %d spans, want 4 (root, resolve, registry, cache)", len(rec.Spans))
	}
	byName := map[string]SpanRecord{}
	for _, s := range rec.Spans {
		byName[s.Name] = s
	}
	root := byName["predict"]
	if root.Parent != -1 || root.Outcome != "ok" {
		t.Fatalf("root = %+v", root)
	}
	if byName["resolve"].Parent != root.ID || byName["resolve"].Outcome != "ok" {
		t.Fatalf("resolve = %+v", byName["resolve"])
	}
	// registry was opened under resolve's derived context.
	if byName["registry"].Parent != byName["resolve"].ID {
		t.Fatalf("registry parent = %d, want %d", byName["registry"].Parent, byName["resolve"].ID)
	}
	if byName["registry"].Outcome != "error" || byName["registry"].Attrs["error"] != "no such model" {
		t.Fatalf("registry = %+v", byName["registry"])
	}
	if byName["cache"].Outcome != "ok" || byName["cache"].Attrs["hit"] != "true" {
		t.Fatalf("cache = %+v", byName["cache"])
	}
	// EndErr must have flagged the trace.
	if len(rec.Flags) == 0 || rec.Flags[0] != "error" {
		t.Fatalf("flags = %v", rec.Flags)
	}
}

// TestTailSampling pins the retention policy: flagged traces always
// survive, unflagged ones at the configured rate (deterministic via
// the seeded RNG).
func TestTailSampling(t *testing.T) {
	tr := NewTracer(Options{RingSize: 4096, SampleRate: 0.1, Seed: 7})
	const n = 1000
	for i := 0; i < n; i++ {
		_, trace := tr.StartTrace(context.Background(), "plain")
		trace.Finish()
	}
	for i := 0; i < 10; i++ {
		_, trace := tr.StartTrace(context.Background(), "flagged")
		trace.Keep(FlagHedgeWin)
		trace.Finish()
	}
	stats := tr.Ring().Stats()
	if stats.Finished != n+10 || stats.Flagged != 10 {
		t.Fatalf("stats = %+v", stats)
	}
	flagged := tr.Ring().Snapshot(TraceFilter{Flagged: true})
	if len(flagged) != 10 {
		t.Fatalf("flagged retained %d/10", len(flagged))
	}
	plain := int(stats.Kept) - len(flagged)
	// 1000 draws at p=0.1: anything in [50, 200] is a sane seeded draw;
	// 0 or ~1000 would mean sampling is broken.
	if plain < 50 || plain > 200 {
		t.Fatalf("plain traces retained %d of %d at rate 0.1", plain, n)
	}

	// SampleRate < 0 disables unflagged retention entirely.
	none := NewTracer(Options{SampleRate: -1})
	_, trace := none.StartTrace(context.Background(), "plain")
	trace.Finish()
	_, trace = none.StartTrace(context.Background(), "kept")
	trace.Keep(Flag5xx)
	trace.Finish()
	recs := none.Ring().Snapshot(TraceFilter{})
	if len(recs) != 1 || recs[0].Name != "kept" {
		t.Fatalf("rate<0 retained %v", recs)
	}
}

// TestLogCarriesTraceID pins the log/metric/trace correlation key.
func TestLogCarriesTraceID(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	tr := NewTracer(Options{Logger: logger, SampleRate: 1})
	ctx, trace := tr.StartTrace(context.Background(), "predict")
	tr.Log(ctx, slog.LevelWarn, "fallback", "model", "tree")
	trace.Finish()

	var line map[string]any
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatalf("log line not JSON: %v (%q)", err, buf.String())
	}
	if line["trace_id"] != trace.ID() || line["model"] != "tree" || line["msg"] != "fallback" {
		t.Fatalf("log line = %v", line)
	}
}

// TestTracesHandlerFilters exercises the /debug/traces query surface.
func TestTracesHandlerFilters(t *testing.T) {
	tr := NewTracer(Options{SampleRate: 1})
	mk := func(name, model string, flag Flag, dur time.Duration) string {
		_, trace := tr.StartTrace(context.Background(), name)
		trace.SetAttr("model", model)
		if flag != 0 {
			trace.Keep(flag)
		}
		// Backdate the root so duration filters have something to bite.
		trace.root.start = trace.root.start.Add(-dur)
		trace.start = trace.root.start
		trace.Finish()
		return trace.ID()
	}
	slow := mk("predict", "tree", 0, 50*time.Millisecond)
	mk("predict", "tree", 0, time.Millisecond)
	flagged := mk("predict", "nn", Flag5xx, time.Millisecond)

	get := func(query string) (int, map[string]any) {
		req := httptest.NewRequest(http.MethodGet, "/debug/traces"+query, nil)
		w := httptest.NewRecorder()
		tr.TracesHandler().ServeHTTP(w, req)
		var body map[string]any
		if w.Code == http.StatusOK {
			if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
				t.Fatalf("bad JSON from %s: %v", query, err)
			}
		}
		return w.Code, body
	}

	ids := func(body map[string]any) []string {
		var out []string
		for _, raw := range body["traces"].([]any) {
			out = append(out, raw.(map[string]any)["id"].(string))
		}
		return out
	}

	if code, body := get(""); code != 200 || len(ids(body)) != 3 {
		t.Fatalf("unfiltered: code %d body %v", code, body)
	}
	if _, body := get("?min_ms=10"); len(ids(body)) != 1 || ids(body)[0] != slow {
		t.Fatalf("min_ms filter = %v", ids(body))
	}
	if _, body := get("?flagged=1"); len(ids(body)) != 1 || ids(body)[0] != flagged {
		t.Fatalf("flagged filter = %v", ids(body))
	}
	if _, body := get("?model=nn"); len(ids(body)) != 1 || ids(body)[0] != flagged {
		t.Fatalf("model filter = %v", ids(body))
	}
	if _, body := get("?limit=1"); len(ids(body)) != 1 {
		t.Fatalf("limit filter = %v", ids(body))
	}
	if code, _ := get("?limit=bogus"); code != http.StatusBadRequest {
		t.Fatalf("bad limit: code %d", code)
	}
	if code, _ := get("?min_us=bogus"); code != http.StatusBadRequest {
		t.Fatalf("bad min_us: code %d", code)
	}

	// Nil tracer: the handler answers 404 rather than panicking.
	var none *Tracer
	req := httptest.NewRequest(http.MethodGet, "/debug/traces", nil)
	w := httptest.NewRecorder()
	none.TracesHandler().ServeHTTP(w, req)
	if w.Code != http.StatusNotFound {
		t.Fatalf("nil tracer handler: code %d", w.Code)
	}
}

// TestExplainHandlerAndEviction covers /v1/explain resolution and the
// provenance store's bounded FIFO eviction.
func TestExplainHandlerAndEviction(t *testing.T) {
	tr := NewTracer(Options{ProvSize: 4, SampleRate: 1})
	margin := 0.37
	for i := 0; i < 6; i++ {
		tr.Prov().Add(Provenance{
			TraceID:       fmt.Sprintf("t-%d", i),
			Model:         "tree",
			Version:       1,
			PredictorUsed: "dtree",
			DTreePath:     []string{"layer1: large input"},
			NNMargin:      &margin,
			M:             config.M{Accelerator: config.GPU},
			When:          time.Unix(int64(i), 0),
		})
	}
	if got := tr.Prov().Len(); got != 4 {
		t.Fatalf("store holds %d records, want 4", got)
	}
	if tr.Prov().Get("t-0") != nil || tr.Prov().Get("t-1") != nil {
		t.Fatalf("oldest ids not evicted")
	}

	h := tr.ExplainHandler("/v1/explain/")
	req := httptest.NewRequest(http.MethodGet, "/v1/explain/t-5", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("explain: code %d body %s", w.Code, w.Body.String())
	}
	var body struct {
		TraceID     string       `json:"trace_id"`
		Predictions []Provenance `json:"predictions"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatalf("explain JSON: %v", err)
	}
	if body.TraceID != "t-5" || len(body.Predictions) != 1 {
		t.Fatalf("explain body = %+v", body)
	}
	p := body.Predictions[0]
	if p.PredictorUsed != "dtree" || p.M.Accelerator != config.GPU || *p.NNMargin != margin {
		t.Fatalf("provenance = %+v", p)
	}

	for path, want := range map[string]int{
		"/v1/explain/t-0":     http.StatusNotFound,
		"/v1/explain/":        http.StatusBadRequest,
		"/v1/explain/a/b":     http.StatusBadRequest,
		"/v1/explain/unknown": http.StatusNotFound,
	} {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != want {
			t.Fatalf("%s: code %d, want %d", path, w.Code, want)
		}
	}
}

// TestDebugMux pins the pprof wiring behind -debug-addr.
func TestDebugMux(t *testing.T) {
	tr := NewTracer(Options{SampleRate: 1})
	srv := httptest.NewServer(DebugMux(tr))
	defer srv.Close()

	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/traces"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
	}

	// A nil tracer still serves pprof, without /debug/traces.
	bare := httptest.NewServer(DebugMux(nil))
	defer bare.Close()
	resp, err := http.Get(bare.URL + "/debug/pprof/")
	if err != nil {
		t.Fatalf("GET pprof on bare mux: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bare pprof status %d", resp.StatusCode)
	}
	resp, err = http.Get(bare.URL + "/debug/traces")
	if err != nil {
		t.Fatalf("GET traces on bare mux: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("bare traces status %d, want 404", resp.StatusCode)
	}
}

// TestTraceIDUniqueness guards the id scheme across tracers (process
// prefix) and traces (sequence).
func TestTraceIDUniqueness(t *testing.T) {
	a := NewTracer(Options{})
	b := NewTracer(Options{})
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		_, ta := a.StartTrace(context.Background(), "x")
		_, tb := b.StartTrace(context.Background(), "x")
		for _, id := range []string{ta.ID(), tb.ID()} {
			if id == "" || seen[id] {
				t.Fatalf("duplicate or empty trace id %q", id)
			}
			if strings.Contains(id, "\n") || strings.Contains(id, "\"") {
				t.Fatalf("trace id %q not header/JSON safe", id)
			}
			seen[id] = true
		}
	}
}

// TestStartRequestTraceHopGuard pins inbound trace adoption: a
// propagated id is joined with its parent span and hop recorded, a hop
// count at MaxHops or one that does not parse mints a fresh id, and a
// nil tracer hands back the request context.
func TestStartRequestTraceHopGuard(t *testing.T) {
	tracer := NewTracer(Options{})
	const inbound = "abc-1"
	for _, c := range []struct {
		hop   string
		adopt bool
	}{{"", true}, {"3", true}, {fmt.Sprint(MaxHops), false}, {"x", false}} {
		r := httptest.NewRequest(http.MethodPost, "/v1/predict", nil)
		r.Header.Set(TraceHeader, inbound)
		r.Header.Set(ParentSpanHeader, "7")
		if c.hop != "" {
			r.Header.Set(HopHeader, c.hop)
		}
		_, tr := tracer.StartRequestTrace(r, "predict")
		if got := tr.ID() == inbound; got != c.adopt {
			t.Fatalf("hop %q: adopted=%v, want %v (id %q)", c.hop, got, c.adopt, tr.ID())
		}
		if c.adopt && (tr.Attr("parent_span") != "7" || tr.Attr("hop") != c.hop) {
			t.Fatalf("hop %q: attrs parent_span=%q hop=%q", c.hop, tr.Attr("parent_span"), tr.Attr("hop"))
		}
	}
	var off *Tracer
	r := httptest.NewRequest(http.MethodPost, "/v1/predict", nil)
	if ctx, tr := off.StartRequestTrace(r, "predict"); tr != nil || ctx != r.Context() {
		t.Fatalf("nil tracer: trace %v, context replaced", tr)
	}
}
