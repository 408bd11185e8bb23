package online

import (
	"context"
	"fmt"
	"log/slog"
	"path/filepath"

	"heteromap/internal/config"
	"heteromap/internal/machine"
	"heteromap/internal/train"
)

// RetrainReport describes one shadow retraining attempt.
type RetrainReport struct {
	// Model is the registry family retrained.
	Model string `json:"model"`
	// Path is the shadow database written (train.Store format).
	Path string `json:"path,omitempty"`
	// WindowSamples is how many feedback outcomes the shadow trained on.
	WindowSamples int `json:"window_samples"`
	// CandidateGap and LiveGap are mean cost gaps over the holdout
	// replay for the shadow candidate and the live model.
	CandidateGap float64 `json:"candidate_gap"`
	LiveGap      float64 `json:"live_gap"`
	// Promoted reports whether the shadow made it through the canary
	// path into the registry.
	Promoted bool `json:"promoted"`
	// Version is the registry version after promotion (0 if none).
	Version uint64 `json:"version,omitempty"`
	// Reason explains a non-promotion.
	Reason string `json:"reason,omitempty"`
}

// maybeRetrain runs at most one shadow retrain per tick, for the
// configured family, when its drift signal is armed and the window and
// bindings allow it.
func (m *Manager) maybeRetrain() {
	m.mu.Lock()
	model := m.opts.Model
	ready := m.promote != nil && m.live != nil && m.opts.ShadowDir != ""
	m.mu.Unlock()
	if !ready || !m.drift.Drifting(model) {
		return
	}
	if m.window.Len() < m.opts.RetrainMin {
		return
	}
	m.RetrainNow(model)
}

// RetrainNow rebuilds a model from the sliding feedback window, scores
// it against the live model on a holdout replay, and — only if it wins
// — promotes it through the bound canary path. Every attempt clears the
// family's drift signal, so a rejected retrain waits for a fresh window
// of over-threshold evidence instead of hot-looping.
func (m *Manager) RetrainNow(model string) (RetrainReport, error) {
	m.retrains.Add(1)
	rep := RetrainReport{Model: model}
	defer func() {
		m.drift.ClearSignal(model)
		m.mu.Lock()
		r := rep
		m.last = &r
		m.mu.Unlock()
	}()

	m.mu.Lock()
	promote, live := m.promote, m.live
	shadowDir := m.opts.ShadowDir
	mutate := m.opts.MutateShadow
	m.seq++
	seq := m.seq
	m.mu.Unlock()
	if promote == nil || live == nil {
		rep.Reason = "no promotion/live binding"
		return rep, fmt.Errorf("online: retrain %s: %s", model, rep.Reason)
	}
	if shadowDir == "" {
		rep.Reason = "no shadow directory"
		return rep, fmt.Errorf("online: retrain %s: %s", model, rep.Reason)
	}

	outs := m.window.Snapshot()
	rep.WindowSamples = len(outs)
	if len(outs) == 0 {
		rep.Reason = "empty feedback window"
		return rep, fmt.Errorf("online: retrain %s: %s", model, rep.Reason)
	}

	// Train the shadow candidate on the leading window slice and replay
	// the trailing slice — the freshest traffic, which is exactly what a
	// drifted workload looks like going forward — through candidate and
	// live side by side. The gap per holdout cell reuses the outcome's
	// recorded exhaustive best, so the comparison costs one realize call
	// per side per cell.
	nHold := int(float64(len(outs)) * DefaultHoldoutFrac)
	if nHold < 1 {
		nHold = 1
	}
	if nHold >= len(outs) {
		rep.Reason = "window too small to split"
		return rep, fmt.Errorf("online: retrain %s: %s", model, rep.Reason)
	}
	trainOuts, holdout := outs[:len(outs)-nHold], outs[len(outs)-nHold:]
	db := windowDB(m.opts.Pair, m.opts.Objective, outs)
	candidate := train.NewLookupPredictor(windowDB(m.opts.Pair, m.opts.Objective, trainOuts))

	var candSum, liveSum float64
	for _, o := range holdout {
		job := synthesizeJob(o.Features)
		candSum += m.replayGap(job, candidate.Predict(o.Features), o.BestCost)
		liveSum += m.replayGap(job, live(o.Features), o.BestCost)
	}
	rep.CandidateGap = candSum / float64(len(holdout))
	rep.LiveGap = liveSum / float64(len(holdout))
	m.trace("shadow retrain scored", "model", model,
		"candidate_gap", rep.CandidateGap, "live_gap", rep.LiveGap,
		"window", len(outs))
	if rep.CandidateGap >= rep.LiveGap {
		rep.Reason = "candidate does not beat live on holdout replay"
		m.rejections.Add(1)
		return rep, nil
	}

	// Persist the full-window database atomically and promote it ONLY
	// through the bound canary path: a corrupt or regressed shadow
	// quarantines exactly like a bad operator-initiated reload.
	path := filepath.Join(shadowDir, fmt.Sprintf("shadow-%s-%d.hmdb", model, seq))
	if err := db.SaveFile(path, nil); err != nil {
		rep.Reason = "shadow save failed: " + err.Error()
		m.rejections.Add(1)
		return rep, err
	}
	rep.Path = path
	if mutate != nil {
		if err := mutate(path); err != nil {
			rep.Reason = "shadow mutation hook failed: " + err.Error()
			m.rejections.Add(1)
			return rep, err
		}
	}
	version, err := promote(model, path)
	if err != nil {
		rep.Reason = "canary rejected: " + err.Error()
		m.rejections.Add(1)
		m.trace("shadow promotion rejected", "model", model, "err", err.Error())
		return rep, nil
	}
	rep.Promoted = true
	rep.Version = version
	m.promotions.Add(1)
	// Post-promotion cell gaps should measure the new model alone.
	m.drift.ResetCells()
	m.trace("shadow model promoted", "model", model, "version", version, "path", path)
	return rep, nil
}

// replayGap realizes one configuration on a holdout cell's job and
// returns its gap over the recorded exhaustive best.
func (m *Manager) replayGap(job machine.Job, chosen config.M, bestCost float64) float64 {
	if bestCost <= 0 {
		return 0
	}
	gap := m.realize(job, chosen)/bestCost - 1
	if gap < 0 {
		gap = 0
	}
	return gap
}

// LastReport returns the most recent retraining attempt, if any.
func (m *Manager) LastReport() *RetrainReport {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.last == nil {
		return nil
	}
	r := *m.last
	return &r
}

func (m *Manager) trace(msg string, args ...any) {
	if m.opts.Tracer != nil {
		m.opts.Tracer.Log(context.Background(), slog.LevelInfo, msg, args...)
	}
}
