// Package serve exposes the HeteroMap predictor stack as a long-running
// prediction service — the natural deployment shape for a *runtime*
// performance predictor whose whole point is making mapping decisions
// online per (benchmark, input) pair.
//
// The pipeline is registry -> cache -> predictor -> metrics:
//
//   - a model Registry holds named, versioned predictors (decision tree,
//     the Deep.* networks, regressions, DB lookup), each fronted by the
//     fault package's fallback chain and hot-swappable without dropping
//     in-flight requests;
//   - a sharded LRU Cache fronts the predictors, keyed on the model
//     version plus the discretized (B, I) feature key — the paper's
//     0.1-step discretization makes the key space finite, so realistic
//     traffic repeats keys and hit rates are high;
//   - both predict endpoints answer through one routine, a single
//     request being a one-item batch: it resolves each item, answers
//     hits from the cache, and answers the misses inline on the
//     request's own goroutine: a non-blocking admission semaphore sheds
//     overload with 503, a request's misses share one pass through the
//     model's chain, and a miss whose deadline passes before its answer
//     gets 504. Beyond the semaphore, one request's misses share
//     nothing with another's: each request answers its own misses and
//     caches what it serves;
//   - a Metrics layer (atomic counters + latency histograms) exposes the
//     whole pipeline in Prometheus text format on /metrics.
//
// HTTP surface: POST /v1/predict, POST /v1/predict/batch, POST
// /v1/reload, GET /v1/models, GET|POST /v1/chaos, GET /v1/online, GET
// /v1/slo, GET /v1/explain/{id}, GET /debug/traces, GET /healthz, GET
// /metrics.
package serve

import (
	"fmt"
	"math"

	"heteromap/internal/config"
	"heteromap/internal/feature"
)

// PredictRequest asks for the machine mapping of one benchmark-input
// combination. The characterization arrives either as a benchmark name
// plus raw input-graph counts (the serving analog of the paper's
// programmer-specified path — B from the static catalog, I discretized
// from the counts) or as a raw 17-component feature vector, which is
// snapped onto the discretization grid before prediction.
type PredictRequest struct {
	// Model names a registry entry; empty selects the default model.
	Model string `json:"model,omitempty"`

	// Bench is a paper benchmark name (e.g. "BFS", "SSSP-BF").
	Bench string `json:"bench,omitempty"`
	// Vertices/Edges/MaxDegree/Diameter are the input graph's raw
	// structural counts, discretized server-side into I1-I4.
	Vertices  int64 `json:"vertices,omitempty"`
	Edges     int64 `json:"edges,omitempty"`
	MaxDegree int64 `json:"max_degree,omitempty"`
	Diameter  int64 `json:"diameter,omitempty"`

	// Features is the alternative raw characterization: exactly 17
	// values (B1-B13, I1-I4), each in [0,1].
	Features []float64 `json:"features,omitempty"`
}

// PredictResponse is the mapping decision for one request.
type PredictResponse struct {
	// Model and Version identify the registry entry that answered.
	Model   string `json:"model"`
	Version uint64 `json:"version"`
	// Key is the discretized feature key the prediction is cached under.
	Key string `json:"key"`
	// PredictorUsed names the fallback-chain link that produced M.
	PredictorUsed string `json:"predictor_used"`
	// Cached reports the prediction was answered from the cache.
	Cached bool `json:"cached"`
	// M is the predicted machine-choice vector, serialized with the
	// paper's knob names (see config.M's JSON encoding).
	M config.M `json:"m"`
	// Fallbacks records predictor degradation events, when any.
	Fallbacks []string `json:"fallbacks,omitempty"`
	// Resilience records dispatch-level events that altered how this
	// answer was produced (breaker routing, uncertainty probe), in
	// pipeline order.
	Resilience []string `json:"resilience,omitempty"`
	// TraceID identifies this request's trace (also echoed in the
	// X-Heteromap-Trace response header); feed it to /v1/explain/{id}
	// for the decision provenance. Empty when tracing is disabled.
	TraceID string `json:"trace_id,omitempty"`
	// Error is set (and M meaningless) only on per-item failures inside
	// a batch response.
	Error string `json:"error,omitempty"`
}

// BatchRequest carries many predictions in one round trip.
type BatchRequest struct {
	Requests []PredictRequest `json:"requests"`
}

// BatchResponse answers a BatchRequest positionally.
type BatchResponse struct {
	Responses []PredictResponse `json:"responses"`
}

// ResolveFeatures turns a request into the discretized feature vector the
// predictors consume — the single characterization path shared by the
// single-shot and batch endpoints, so served predictions are
// byte-identical to offline core.System runs on the same inputs.
func ResolveFeatures(req *PredictRequest, step float64) (feature.Vector, error) {
	switch {
	case len(req.Features) > 0:
		if req.Bench != "" {
			return feature.Vector{}, fmt.Errorf("serve: request must set either bench or features, not both")
		}
		if len(req.Features) != feature.NumFeatures {
			return feature.Vector{}, fmt.Errorf("serve: features has %d components, want %d",
				len(req.Features), feature.NumFeatures)
		}
		for i, f := range req.Features {
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return feature.Vector{}, fmt.Errorf("serve: features[%d] is not finite", i)
			}
			if f < 0 || f > 1 {
				return feature.Vector{}, fmt.Errorf("serve: features[%d] = %g outside [0,1]", i, f)
			}
		}
		var v feature.Vector
		copy(v[:], req.Features)
		return v.Discretized(step), nil

	case req.Bench != "":
		b, err := feature.Catalog(req.Bench)
		if err != nil {
			return feature.Vector{}, fmt.Errorf("serve: %w", err)
		}
		if req.Vertices <= 0 || req.Edges <= 0 || req.MaxDegree <= 0 || req.Diameter <= 0 {
			return feature.Vector{}, fmt.Errorf(
				"serve: bench requests need positive vertices, edges, max_degree and diameter")
		}
		iv := feature.IFromCountsStep(req.Vertices, req.Edges, req.MaxDegree, req.Diameter, step)
		return feature.Combine(b, iv), nil

	default:
		return feature.Vector{}, fmt.Errorf("serve: request sets neither bench nor features")
	}
}
