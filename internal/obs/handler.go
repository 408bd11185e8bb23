package obs

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"
)

// TracesHandler serves the retained traces as JSON, newest first.
// Query parameters: min_us / min_ms (minimum duration), flagged=1 or
// error=1 (only flag-retained traces), model=<name>, limit=<n>.
func (t *Tracer) TracesHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if t == nil {
			http.Error(w, `{"error":"tracing disabled"}`, http.StatusNotFound)
			return
		}
		var f TraceFilter
		q := r.URL.Query()
		if v := q.Get("min_us"); v != "" {
			us, err := strconv.ParseFloat(v, 64)
			if err != nil {
				http.Error(w, `{"error":"bad min_us"}`, http.StatusBadRequest)
				return
			}
			f.MinDuration = time.Duration(us * 1e3)
		}
		if v := q.Get("min_ms"); v != "" {
			ms, err := strconv.ParseFloat(v, 64)
			if err != nil {
				http.Error(w, `{"error":"bad min_ms"}`, http.StatusBadRequest)
				return
			}
			f.MinDuration = time.Duration(ms * 1e6)
		}
		f.Flagged = q.Get("flagged") == "1" || q.Get("error") == "1"
		f.Model = q.Get("model")
		f.ID = q.Get("id")
		if v := q.Get("limit"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				http.Error(w, `{"error":"bad limit"}`, http.StatusBadRequest)
				return
			}
			f.Limit = n
		}
		traces := t.ring.Snapshot(f)
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(struct {
			Stats    RingStats     `json:"stats"`
			Returned int           `json:"returned"`
			Traces   []TraceRecord `json:"traces"`
		}{t.ring.Stats(), len(traces), traces})
	})
}

// ExplainHandler serves provenance records at prefix+{trace-id}. Each
// record's tree path or NN margin is derived as it is read here (see
// ProvStore.Get), not on the serve path that recorded it.
func (t *Tracer) ExplainHandler(prefix string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if t == nil {
			http.Error(w, `{"error":"tracing disabled"}`, http.StatusNotFound)
			return
		}
		id := strings.TrimPrefix(r.URL.Path, prefix)
		if id == "" || strings.Contains(id, "/") {
			http.Error(w, `{"error":"missing trace id"}`, http.StatusBadRequest)
			return
		}
		recs := t.prov.Get(id)
		if len(recs) == 0 {
			http.Error(w, `{"error":"unknown or evicted trace id"}`, http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(struct {
			TraceID     string       `json:"trace_id"`
			Predictions []Provenance `json:"predictions"`
		}{id, recs})
	})
}

// DebugMux builds the -debug-addr surface: net/http/pprof registered
// manually (the default-mux side effects of importing it blind are
// avoided) plus, when a tracer is given, /debug/traces. Safe with a
// nil tracer — profiling works even with tracing disabled.
func DebugMux(t *Tracer) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if t != nil {
		mux.Handle("/debug/traces", t.TracesHandler())
	}
	return mux
}
