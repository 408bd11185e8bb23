// Package predict defines the predictor abstraction of the HeteroMap
// framework: a model that maps a 17-dimensional benchmark-input
// characterization (internal/feature) to a machine-choice vector
// (internal/config). Implementations live in the subpackages: dtree (the
// Section IV analytical decision tree), nn (the Section V-B deep
// learners), regress (the Section V-C linear and 7th-order regressions)
// and adaptive (the Rinnegan-style adaptive-library baseline of Table IV).
package predict

import (
	"heteromap/internal/config"
	"heteromap/internal/feature"
)

// Sample is one training example: a characterization paired with the
// normalized best-performing M vector found by the offline autotuner.
type Sample struct {
	Features feature.Vector
	Target   [config.NumVariables]float64
}

// Predictor maps characterizations to machine choices.
type Predictor interface {
	// Name identifies the predictor in Table IV rows.
	Name() string
	// Predict returns the machine configuration for one
	// benchmark-input characterization.
	Predict(f feature.Vector) config.M
}

// Trainable is implemented by predictors that learn from the offline
// database (everything except the hand-built decision tree).
type Trainable interface {
	Predictor
	// Train fits the model; it must be called before Predict.
	Train(samples []Sample) error
}

// Checked is implemented by predictors that can report prediction
// failure instead of silently sanitizing invalid raw model output
// (Predict must always return *some* M, so a network with NaN weights
// would otherwise launder garbage through the decode clamp). The
// fallback chain prefers PredictChecked when available.
type Checked interface {
	Predictor
	// PredictChecked returns the prediction, or an error when the raw
	// model output is unusable (non-finite, untrained, ...).
	PredictChecked(f feature.Vector) (config.M, error)
}

// BatchPredictor is implemented by predictors that can answer many rows
// in one preallocated pass instead of per-row loops — the serve layer
// sends a batch request's distinct misses through it.
type BatchPredictor interface {
	Checked
	// PredictBatchChecked fills dst[i] with the prediction for feats[i]
	// (dst must hold at least len(feats) rows). Every row must be
	// bit-identical to what PredictChecked would return for that row
	// alone — batching may change latency, never results; the serve
	// differential suite holds implementations to it. Any unanswerable
	// row fails the whole batch with an error rather than returning
	// partial results, and the caller re-derives per item.
	PredictBatchChecked(feats []feature.Vector, dst []config.M) error
}
