package conformance

import (
	"fmt"
	"sort"
	"strings"

	"heteromap/internal/config"
	"heteromap/internal/experiments"
	"heteromap/internal/machine"
	"heteromap/internal/predict"
	"heteromap/internal/train"
)

// OracleLearners lists every learner the differential oracle gates, in
// report order: the Table IV rows but the large Deep.128, whose larger
// database the oracle does not build.
func OracleLearners() []string {
	var names []string
	for _, name := range experiments.TableIVLearners() {
		if name != experiments.LearnerDeep128L {
			names = append(names, name)
		}
	}
	return names
}

// OracleConfig sizes one differential-oracle run. The zero value is not
// runnable; use ShortOracleConfig or FullOracleConfig.
type OracleConfig struct {
	// Seed fixes the synthetic grid, the training database and the
	// learner initializations, making the whole run reproducible.
	Seed int64
	// GridPoints is the synthetic (B, I) grid size.
	GridPoints int
	// TableIBenches selects which catalog benchmarks to pair with the
	// nine Table I inputs (nil: all nine; empty non-nil slice: none).
	TableIBenches []string
	// TrainSamples sizes the offline database the trained learners fit.
	TrainSamples int
	// NNEpochs bounds neural network training.
	NNEpochs int
	// Objective selects the optimization target of both the sweep and
	// the learners.
	Objective train.Objective
}

// ShortOracleConfig is the CI / -short configuration: small grid, three
// benchmark families, the fast training size.
func ShortOracleConfig() OracleConfig {
	return OracleConfig{
		Seed:          42,
		GridPoints:    32,
		TableIBenches: []string{"SSSP-BF", "BFS", "PageRank"},
		TrainSamples:  300,
		NNEpochs:      25,
	}
}

// FullOracleConfig is the full conformance run: a denser grid and all
// nine Table I benchmark families at the default training size.
func FullOracleConfig() OracleConfig {
	return OracleConfig{
		Seed:         42,
		GridPoints:   128,
		TrainSamples: 3000,
		NNEpochs:     0, // learner default
	}
}

// GapStats summarizes a cost-gap distribution. Gaps are relative:
// cost(predicted M) / cost(exhaustive best M) - 1, so 0 means the
// prediction deploys exactly as fast as the ideal sweep choice.
type GapStats struct {
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	Max  float64 `json:"max"`
}

// LearnerReport is one learner's agreement with the exhaustive oracle.
type LearnerReport struct {
	Learner string `json:"learner"`
	Points  int    `json:"points"`
	// AccelAgreement is the fraction of points whose inter-accelerator
	// choice (M1) matches the exhaustive best — the paper's headline
	// "choice selection" signal.
	AccelAgreement float64 `json:"accel_agreement"`
	// ChoiceAccuracy is the mean per-variable agreement over all twenty
	// choices (config.ChoiceAccuracy against the sweep winner).
	ChoiceAccuracy float64 `json:"choice_accuracy"`
	// CostGap is the distribution of deployed-cost excess over ideal.
	CostGap GapStats `json:"cost_gap"`
}

// OracleReport is the outcome of one differential-oracle run.
type OracleReport struct {
	SchemaVersion int             `json:"schema_version"`
	Seed          int64           `json:"seed"`
	GridPoints    int             `json:"grid_points"`
	TableIPoints  int             `json:"table1_points"`
	Pair          string          `json:"pair"`
	Objective     string          `json:"objective"`
	Learners      []LearnerReport `json:"learners"`
}

// OracleSchemaVersion tags serialized oracle reports.
const OracleSchemaVersion = 1

// Learner returns the report row for a learner name, or a zero row.
func (r OracleReport) Learner(name string) LearnerReport {
	for _, l := range r.Learners {
		if l.Learner == name {
			return l
		}
	}
	return LearnerReport{}
}

// String renders the report as the fixed-width table hmbench prints.
func (r OracleReport) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "differential oracle: %d grid + %d Table-I points, pair %s, objective %s\n",
		r.GridPoints, r.TableIPoints, r.Pair, r.Objective)
	fmt.Fprintf(&sb, "%-18s %8s %8s %8s %8s %8s %8s\n",
		"learner", "M1-agree", "choices", "gapMean", "gapP50", "gapP95", "gapMax")
	for _, l := range r.Learners {
		fmt.Fprintf(&sb, "%-18s %7.1f%% %7.1f%% %7.1f%% %7.1f%% %7.1f%% %7.1f%%\n",
			l.Learner, l.AccelAgreement*100, l.ChoiceAccuracy*100,
			l.CostGap.Mean*100, l.CostGap.P50*100, l.CostGap.P95*100, l.CostGap.Max*100)
	}
	return sb.String()
}

// RunOracle executes the differential oracle on an accelerator pair:
// for every seeded grid point and Table I analog it sweeps the full
// candidate space exhaustively (the "ideal" baseline that "manually
// optimizes by running all possible configurations"), then scores each
// learner's prediction against the sweep winner.
func RunOracle(pair machine.Pair, cfg OracleConfig) (OracleReport, error) {
	limits := pair.Limits()
	pts := GridPoints(cfg.Seed, cfg.GridPoints)
	gridN := len(pts)
	t1, err := TableIPoints(cfg.Seed+1, cfg.TableIBenches)
	if err != nil {
		return OracleReport{}, err
	}
	pts = append(pts, t1...)
	if len(pts) == 0 {
		return OracleReport{}, fmt.Errorf("conformance: oracle has no evaluation points")
	}

	// Exhaustive references, one sweep per point.
	sweep := train.NewSweep(pair, cfg.Objective, config.Enumerate(limits))
	refs := make([]train.Result, len(pts))
	sweep.Each(len(pts), func(i int, costs []machine.Cost) {
		refs[i] = sweep.Best(pts[i].Job, costs)
	})

	// One shared training database for every trained learner, exactly
	// as the experiment harness builds it.
	db := train.BuildDatabase(pair, train.Config{
		Samples: cfg.TrainSamples, Seed: cfg.Seed, Objective: cfg.Objective,
	})

	rep := OracleReport{
		SchemaVersion: OracleSchemaVersion,
		Seed:          cfg.Seed,
		GridPoints:    gridN,
		TableIPoints:  len(t1),
		Pair:          pair.Name(),
		Objective:     cfg.Objective.String(),
	}
	for _, name := range OracleLearners() {
		p, err := experiments.NewLearner(name, limits, cfg.NNEpochs, cfg.Seed)
		if err != nil {
			return rep, err
		}
		if trainable, ok := p.(predict.Trainable); ok {
			if err := trainable.Train(db.Samples); err != nil {
				return rep, fmt.Errorf("conformance: train %s: %w", name, err)
			}
		}
		rep.Learners = append(rep.Learners, scoreLearner(pair, cfg.Objective, p, pts, refs))
	}
	return rep, nil
}

// scoreLearner scores p's prediction at every point against refs, the
// points' exhaustive winners: how often it picks the winner's
// accelerator, how many of the twenty choices it shares, and how much
// more its choice costs.
func scoreLearner(pair machine.Pair, obj train.Objective, p predict.Predictor, pts []Point, refs []train.Result) LearnerReport {
	limits := pair.Limits()
	var agree, accSum float64
	gaps := make([]float64, len(pts))
	for i := range pts {
		m := p.Predict(pts[i].Features)
		if m.Accelerator == refs[i].Best.Accelerator {
			agree++
		}
		accSum += config.ChoiceAccuracy(m, refs[i].Best, limits)
		cost := train.Metric(pair, obj, pts[i].Job, m)
		if refs[i].Score > 0 {
			gaps[i] = cost/refs[i].Score - 1
		}
	}
	return LearnerReport{
		Learner:        p.Name(),
		Points:         len(pts),
		AccelAgreement: agree / float64(len(pts)),
		ChoiceAccuracy: accSum / float64(len(pts)),
		CostGap:        gapStats(gaps),
	}
}

// gapStats summarizes a gap sample (not mutated; sorted copy).
func gapStats(gaps []float64) GapStats {
	if len(gaps) == 0 {
		return GapStats{}
	}
	s := append([]float64(nil), gaps...)
	sort.Float64s(s)
	var sum float64
	for _, g := range s {
		sum += g
	}
	pct := func(p float64) float64 {
		if len(s) == 0 {
			return 0
		}
		i := int(p * float64(len(s)-1))
		return s[i]
	}
	return GapStats{
		Mean: sum / float64(len(s)),
		P50:  pct(0.50),
		P95:  pct(0.95),
		Max:  s[len(s)-1],
	}
}
