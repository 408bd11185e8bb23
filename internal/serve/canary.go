package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"heteromap/internal/algo"
	"heteromap/internal/config"
	"heteromap/internal/durable"
	"heteromap/internal/feature"
)

// GoldenCase is one held-out validation pair for canary reloads: a
// characterization the candidate model must answer, optionally with the
// exact mapping it must produce. Cases without WantM still gate on
// validity (a deployable M from the candidate's own predictor, not a
// fallback) and on the latency SLO.
type GoldenCase struct {
	Req   PredictRequest `json:"request"`
	WantM *config.M      `json:"m,omitempty"`
}

// CanaryConfig is the reload admission gate: before a candidate snapshot
// replaces the active model, it must answer every golden case within the
// latency budget, without degrading onto its fallback chain, and with at
// most MaxMismatches strict-answer disagreements.
type CanaryConfig struct {
	// Cases is the held-out golden set.
	Cases []GoldenCase
	// MaxLatency is the per-prediction canary SLO (the -reload-slo
	// flag); 0 disables the latency gate.
	MaxLatency time.Duration
	// MaxMismatches bounds how many strict cases (WantM set) may
	// disagree before the candidate is rejected.
	MaxMismatches int
}

// CanaryReport summarizes one canary run, for /v1/reload responses and
// the quarantine record.
type CanaryReport struct {
	Cases      int           `json:"cases"`
	Mismatches int           `json:"mismatches"`
	MaxLatency time.Duration `json:"max_latency_ns"`
	Passed     bool          `json:"passed"`
}

// Validate runs the candidate model against the golden set. It returns
// the report and, when the candidate must be rejected, the reason.
func (c *CanaryConfig) Validate(m *Model) (CanaryReport, error) {
	rep := CanaryReport{}
	if c == nil {
		rep.Passed = true
		return rep, nil
	}
	for i := range c.Cases {
		gc := &c.Cases[i]
		feat, err := ResolveFeatures(&gc.Req, feature.DiscretizationStep)
		if err != nil {
			return rep, fmt.Errorf("serve: canary case %d unusable: %w", i, err)
		}
		start := time.Now()
		sel := m.Select(feat)
		lat := time.Since(start)
		rep.Cases++
		if lat > rep.MaxLatency {
			rep.MaxLatency = lat
		}
		if c.MaxLatency > 0 && lat > c.MaxLatency {
			return rep, fmt.Errorf("serve: canary case %d breached the latency SLO: %v > %v",
				i, lat, c.MaxLatency)
		}
		if sel.Degraded() {
			return rep, fmt.Errorf("serve: canary case %d degraded past the candidate predictor: %s",
				i, sel.Fallbacks[0])
		}
		if gc.WantM != nil && sel.M != *gc.WantM {
			rep.Mismatches++
			if rep.Mismatches > c.MaxMismatches {
				return rep, fmt.Errorf(
					"serve: canary case %d mismatched the golden answer (%d mismatches > %d allowed)",
					i, rep.Mismatches, c.MaxMismatches)
			}
		}
	}
	rep.Passed = true
	return rep, nil
}

// LoadGoldenSet reads a JSON golden set: an array of {"request": ...,
// "m": ...} objects (the m field optional), as written by
// SaveGoldenSet.
func LoadGoldenSet(path string) ([]GoldenCase, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("serve: golden set: %w", err)
	}
	var cases []GoldenCase
	if err := json.Unmarshal(data, &cases); err != nil {
		return nil, fmt.Errorf("serve: golden set %s: %w", path, err)
	}
	if len(cases) == 0 {
		return nil, fmt.Errorf("serve: golden set %s is empty", path)
	}
	return cases, nil
}

// SaveGoldenSet writes cases as the JSON format LoadGoldenSet reads,
// through the atomic temp+fsync+rename path: a golden set — the gate
// every future reload must pass — can never be left half-written.
func SaveGoldenSet(path string, cases []GoldenCase) error {
	data, err := json.MarshalIndent(cases, "", "  ")
	if err != nil {
		return err
	}
	return durable.WriteFileAtomic(path, "golden", nil, func(w io.Writer) error {
		_, werr := w.Write(data)
		return werr
	})
}

// RecordGoldenSet snapshots a reference model's answers over the given
// requests, producing strict golden cases: future reloads must agree
// with the reference's behaviour on these characterizations.
func RecordGoldenSet(ref *Model, reqs []PredictRequest) ([]GoldenCase, error) {
	cases := make([]GoldenCase, 0, len(reqs))
	for i := range reqs {
		feat, err := ResolveFeatures(&reqs[i], feature.DiscretizationStep)
		if err != nil {
			return nil, fmt.Errorf("serve: golden request %d: %w", i, err)
		}
		sel := ref.Select(feat)
		m := sel.M
		cases = append(cases, GoldenCase{Req: reqs[i], WantM: &m})
	}
	return cases, nil
}

// DefaultGoldenRequests synthesizes a deterministic held-out request mix
// over the benchmark catalog with paper-plausible graph magnitudes —
// the canary workload used when no -canary-set file is given.
func DefaultGoldenRequests(n int, seed int64) []PredictRequest {
	if n <= 0 {
		n = 32
	}
	rng := rand.New(rand.NewSource(seed))
	benches := algo.All()
	reqs := make([]PredictRequest, n)
	for i := range reqs {
		b := benches[i%len(benches)]
		v := int64(1e5 * (1 + rng.Float64()*1000))
		reqs[i] = PredictRequest{
			Bench:     b.Name,
			Vertices:  v,
			Edges:     v * (2 + int64(rng.Intn(40))),
			MaxDegree: int64(10 + rng.Intn(300000)),
			Diameter:  int64(5 + rng.Intn(4000)),
		}
	}
	return reqs
}
