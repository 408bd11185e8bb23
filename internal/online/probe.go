package online

import (
	"heteromap/internal/config"
	"heteromap/internal/feature"
	"heteromap/internal/machine"
)

// ProbePredictor is the predictor label served predictions carry when
// uncertainty routing re-derived them by exhaustive sweep. It appears
// in /v1/explain provenance and in the feedback stream.
const ProbePredictor = "probe"

// Probe re-derives the configuration for a characterization by bounded
// exhaustive sweep: the cell's job is synthesized deterministically and
// every candidate in the capped, stride-sampled probe set is evaluated
// on the machine models. It returns the winning configuration and its
// realized cost. Once the background collector has seen the cell, the
// cached full-grid optimum answers instead — a probe of a known cell is
// exact and free.
//
// The sweep is ProbeCap candidate evaluations (default 32 of the
// primary pair's 696) — single-digit microseconds on the analytic
// models — which is why low-confidence requests can afford measured
// truth instead of a guess. The caller writes the result back into the
// feedback stream (Probed=true), so every probe also teaches the next
// retrain.
func (m *Manager) Probe(f feature.Vector) (config.M, float64) {
	truth, ok := m.cellLookup(f)
	if ok {
		m.probes.Add(1)
		return truth.bestM, truth.bestCost
	}
	res := m.probeSweep.Best(m.probeJob(f), nil)
	m.probes.Add(1)
	return res.Best, res.Score
}

// probeJob synthesizes the deterministic job for a cell (same seeding
// as the collector, so probe and collection agree on ground truth).
func (m *Manager) probeJob(f feature.Vector) machine.Job {
	return synthesizeJob(f)
}

// Probes reports how many probes have run.
func (m *Manager) Probes() uint64 { return m.probes.Load() }
