package fault

import (
	"context"
	"fmt"

	"heteromap/internal/config"
	"heteromap/internal/feature"
	"heteromap/internal/obs"
	"heteromap/internal/predict"
)

// Selection is the outcome of consulting a fallback chain: the chosen
// configuration, which predictor produced it, and every degradation
// event on the way there.
type Selection struct {
	// M is the deployable (validated and clamped) configuration.
	M config.M
	// Used names the predictor that produced M — the first link of the
	// chain that returned a valid prediction.
	Used string
	// Fallbacks records each upstream predictor failure ("Deep.128:
	// non-finite output ...") in chain order; empty when the primary
	// predictor answered.
	Fallbacks []string
}

// Degraded reports whether the primary predictor had to be bypassed.
func (s Selection) Degraded() bool { return len(s.Fallbacks) > 0 }

// Chain is a graceful predictor degradation sequence: each predictor is
// tried in order (typically trained NN -> decision tree), and a
// prediction is accepted only if the predictor neither panics nor emits
// a non-finite/invalid M. When every predictor fails, the chain falls
// back to a fixed deployable default, so Select never returns garbage
// and never crashes the runtime.
//
// A Chain is immutable after construction and Select only reads it, so
// one chain may serve concurrent goroutines — provided every predictor's
// inference path is itself pure, which holds for all in-repo predictors
// (see TestChainSelectConcurrentlySafe).
type Chain struct {
	// Limits bound the deployable M ranges used for validation.
	Limits config.Limits
	// Predictors are tried in order; earlier entries are preferred.
	Predictors []predict.Predictor
	// DefaultLabel names the terminal fixed choice in reports.
	DefaultLabel string
	// Default is the safety-net configuration; NewChain initializes it
	// to the untuned multicore default (the conservative side: it always
	// fits and never needs GPU streaming).
	Default config.M
}

// NewChain assembles a degradation chain over the given predictors.
func NewChain(limits config.Limits, preds ...predict.Predictor) *Chain {
	return &Chain{
		Limits:       limits,
		Predictors:   preds,
		DefaultLabel: "FixedChoice",
		Default:      config.DefaultMulticore(limits),
	}
}

// Select walks the chain and returns the first valid prediction.
func (c *Chain) Select(f feature.Vector) Selection {
	return c.SelectCtx(context.Background(), f)
}

// SelectCtx is Select with per-link tracing: each predictor consult
// runs under an obs span recording the link and outcome, so chain
// degradation is visible stage-by-stage in a request trace, not just
// as the flattened Fallbacks list. Untraced contexts cost one context
// value lookup per link and nothing else.
func (c *Chain) SelectCtx(ctx context.Context, f feature.Vector) Selection {
	var events []string
	for _, p := range c.Predictors {
		if p == nil {
			continue
		}
		sp := consultSpan(ctx, p.Name())
		m, err := tryPredict(p, f)
		if err == nil {
			err = m.Validate(c.Limits)
		}
		if err != nil {
			sp.EndErr(err)
			events = append(events, fmt.Sprintf("%s: %v", p.Name(), err))
			continue
		}
		sp.End()
		return Selection{M: m.Clamp(c.Limits), Used: p.Name(), Fallbacks: events}
	}
	consultSpan(ctx, c.DefaultLabel).End()
	return Selection{M: c.Default.Clamp(c.Limits), Used: c.DefaultLabel, Fallbacks: events}
}

// consultSpan opens the span of one consult, "consult:" and the link's
// label, under the span ctx carries. The name is built only when ctx is
// traced, and no context is derived: a consult opens no spans of its
// own.
func consultSpan(ctx context.Context, label string) *obs.Span {
	if obs.TraceFromContext(ctx) == nil {
		return nil
	}
	return obs.NewSpan(ctx, "consult:"+label)
}

// SelectBatchCtx consults the chain for many rows at once, filling
// dst[i] with the selection for feats[i] (dst must hold len(feats)
// entries). When the primary predictor is batch-capable and every row of
// its single-pass answer validates, each selection is exactly what
// SelectCtx would have produced — same raw prediction bits, same
// validation, same clamp — under one consult span instead of one per
// row. Any batch error, panic or invalid row abandons the batch answer
// and re-derives every row through the per-item path, so batching can
// change latency but never results. A single row, or a chain whose
// primary is not batch-capable, goes through SelectCtx, so a one-row
// pass consults exactly as a single Select does.
func (c *Chain) SelectBatchCtx(ctx context.Context, feats []feature.Vector, dst []Selection) {
	var primary predict.Predictor
	for _, p := range c.Predictors {
		if p != nil {
			primary = p
			break
		}
	}
	if bp, ok := primary.(predict.BatchPredictor); ok && len(feats) > 1 {
		sp := consultSpan(ctx, primary.Name())
		ms := make([]config.M, len(feats))
		err := tryPredictBatch(bp, feats, ms)
		if err == nil {
			for i := range ms {
				if verr := ms[i].Validate(c.Limits); verr != nil {
					err = fmt.Errorf("row %d: %w", i, verr)
					break
				}
			}
		}
		if err == nil {
			sp.End()
			for i := range feats {
				dst[i] = Selection{M: ms[i].Clamp(c.Limits), Used: primary.Name()}
			}
			return
		}
		sp.EndErr(err)
	}
	for i := range feats {
		dst[i] = c.SelectCtx(ctx, feats[i])
	}
}

// tryPredictBatch consults the batch interface, converting panics into
// errors like tryPredict does for the per-item path.
func tryPredictBatch(bp predict.BatchPredictor, feats []feature.Vector, dst []config.M) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("predictor panicked: %v", r)
		}
	}()
	return bp.PredictBatchChecked(feats, dst)
}

// Name implements predict.Predictor, labelled by the primary link.
func (c *Chain) Name() string {
	for _, p := range c.Predictors {
		if p != nil {
			return p.Name()
		}
	}
	return c.DefaultLabel
}

// Predict implements predict.Predictor, so a chain can stand in
// anywhere a predictor is expected with the degradation behaviour
// attached (the per-fallback events are dropped on this path — use
// Select when they matter).
func (c *Chain) Predict(f feature.Vector) config.M { return c.Select(f).M }

// tryPredict consults one predictor, converting panics into errors and
// preferring the checked interface when the predictor implements it.
func tryPredict(p predict.Predictor, f feature.Vector) (m config.M, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("predictor panicked: %v", r)
		}
	}()
	if cp, ok := p.(predict.Checked); ok {
		return cp.PredictChecked(f)
	}
	return p.Predict(f), nil
}
