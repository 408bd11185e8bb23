package conformance

import (
	"reflect"
	"strings"
	"testing"

	"heteromap/internal/config"
	"heteromap/internal/experiments"
	"heteromap/internal/feature"
	"heteromap/internal/machine"
	"heteromap/internal/train"
)

// The CI conformance gate: the short differential-oracle run must stay
// within the thresholds recorded from the seed run. A predictor change
// that drops a learner's agreement with the exhaustive sweep below its
// recorded floor fails here, not in a quarterly reproduction run.
func TestOracleGatesAgainstSeedThresholds(t *testing.T) {
	rep, err := RunOracle(machine.PrimaryPair(), ShortOracleConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", rep)
	if err := rep.Gate(SeedThresholds); err != nil {
		t.Errorf("conformance gate violated:\n%v", err)
	}
	if len(rep.Learners) != len(OracleLearners()) {
		t.Fatalf("report covers %d learners, want %d", len(rep.Learners), len(OracleLearners()))
	}
	for _, l := range rep.Learners {
		if _, ok := SeedThresholds[l.Learner]; !ok {
			t.Errorf("learner %q has no recorded threshold — record one from a seed run", l.Learner)
		}
	}
}

// The oracle's evaluation points must be a pure function of the seed:
// same seed, same grid, same jobs — otherwise the gates drift between
// CI runs and threshold violations stop being attributable.
func TestOraclePointsDeterministic(t *testing.T) {
	a := GridPoints(7, 16)
	b := GridPoints(7, 16)
	if len(a) != 16 {
		t.Fatalf("got %d points", len(a))
	}
	for i := range a {
		if a[i].Features != b[i].Features {
			t.Fatalf("point %d features differ between identical seeds", i)
		}
		if a[i].Job.Work.Iterations != b[i].Job.Work.Iterations ||
			len(a[i].Job.Work.Phases) != len(b[i].Job.Work.Phases) {
			t.Fatalf("point %d job differs between identical seeds", i)
		}
	}
	c := GridPoints(8, 16)
	same := 0
	for i := range a {
		if a[i].Features == c[i].Features {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced an identical grid")
	}
}

// Table I points must cover benches x nine inputs with the catalog B
// rows attached unchanged.
func TestTableIPoints(t *testing.T) {
	pts, err := TableIPoints(1, []string{"BFS", "PageRank"})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 18 {
		t.Fatalf("got %d points, want 18", len(pts))
	}
	if !strings.HasPrefix(pts[0].Name, "BFS/") {
		t.Fatalf("unexpected point name %q", pts[0].Name)
	}
	if _, err := TableIPoints(1, []string{"no-such-bench"}); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

// winnerPredictor answers every point with its exhaustive winner.
type winnerPredictor map[feature.Vector]config.M

func (winnerPredictor) Name() string { return "exhaustive winner" }

func (w winnerPredictor) Predict(f feature.Vector) config.M { return w[f] }

// A learner that returns the exhaustive winner must score perfectly —
// the oracle's scoring itself is checked against a known-good subject.
func TestOracleScoresPerfectPredictorAtCeiling(t *testing.T) {
	pair := machine.PrimaryPair()
	pts := GridPoints(3, 8)
	t1, err := TableIPoints(4, []string{"BFS", "Tri.Cnt"})
	if err != nil {
		t.Fatal(err)
	}
	pts = append(pts, t1...)
	sweep := train.NewSweep(pair, train.Performance, config.Enumerate(pair.Limits()))
	refs := make([]train.Result, len(pts))
	winners := winnerPredictor{}
	for i := range pts {
		refs[i] = sweep.Best(pts[i].Job, nil)
		if _, dup := winners[pts[i].Features]; dup {
			t.Fatalf("point %d repeats another point's features", i)
		}
		winners[pts[i].Features] = refs[i].Best
	}
	rep := scoreLearner(pair, train.Performance, winners, pts, refs)
	if rep.Points != len(pts) || rep.AccelAgreement != 1 || rep.ChoiceAccuracy != 1 {
		t.Fatalf("perfect predictor scored %d points, M1 agreement %v, choice accuracy %v; want %d, 1, 1",
			rep.Points, rep.AccelAgreement, rep.ChoiceAccuracy, len(pts))
	}
	// No gap is negative (Max is 0) and they sum to 0 (Mean is 0), so
	// every point's gap is exactly 0.
	if rep.CostGap != (GapStats{}) {
		t.Fatalf("perfect predictor has cost gaps %+v, want all 0", rep.CostGap)
	}
}

// The oracle gates the Table IV learners but the large Deep.128, in
// Table IV order, and each Table IV name builds the predictor of that
// name.
func TestLearnerCatalog(t *testing.T) {
	var want []string
	for _, name := range experiments.TableIVLearners() {
		if name == experiments.LearnerDeep128L {
			continue
		}
		want = append(want, name)
		p, err := experiments.NewLearner(name, machine.PrimaryPair().Limits(), 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name() != name {
			t.Errorf("Table IV row %q builds a predictor named %q", name, p.Name())
		}
	}
	if got := OracleLearners(); !reflect.DeepEqual(got, want) {
		t.Fatalf("oracle learners %q, want %q", got, want)
	}
	if _, err := experiments.NewLearner("bogus", machine.PrimaryPair().Limits(), 0, 0); err == nil {
		t.Fatal("unknown learner accepted")
	}
}

// The seed thresholds are recorded values: moving the learner names
// must leave every key and floor where it was.
func TestSeedThresholdsRecorded(t *testing.T) {
	want := map[string]Threshold{
		"Decision Tree":     {MinAccelAgreement: 0.60, MinChoiceAccuracy: 0.68, MaxMeanGap: 0.70, MaxP95Gap: 1.20},
		"Linear Regression": {MinAccelAgreement: 0.60, MinChoiceAccuracy: 0.70, MaxMeanGap: 0.45, MaxP95Gap: 2.00},
		"Multi Regression":  {MinAccelAgreement: 0.70, MinChoiceAccuracy: 0.76, MaxMeanGap: 0.40, MaxP95Gap: 2.00},
		"Adaptive Library":  {MinAccelAgreement: 0.28, MinChoiceAccuracy: 0.68, MaxMeanGap: 0.95, MaxP95Gap: 2.00},
		"Deep.16":           {MinAccelAgreement: 0.65, MinChoiceAccuracy: 0.65, MaxMeanGap: 1.90, MaxP95Gap: 3.20},
		"Deep.32":           {MinAccelAgreement: 0.65, MinChoiceAccuracy: 0.72, MaxMeanGap: 0.45, MaxP95Gap: 2.00},
		"Deep.64":           {MinAccelAgreement: 0.70, MinChoiceAccuracy: 0.78, MaxMeanGap: 0.45, MaxP95Gap: 2.40},
		"Deep.128":          {MinAccelAgreement: 0.70, MinChoiceAccuracy: 0.78, MaxMeanGap: 0.50, MaxP95Gap: 1.20},
	}
	if !reflect.DeepEqual(SeedThresholds, want) {
		t.Fatalf("SeedThresholds = %+v, want %+v", SeedThresholds, want)
	}
}

func TestGateReportsViolations(t *testing.T) {
	rep := OracleReport{Learners: []LearnerReport{
		{Learner: experiments.LearnerDecisionTree, AccelAgreement: 0.10, ChoiceAccuracy: 0.10,
			CostGap: GapStats{Mean: 9, P95: 9}},
		{Learner: "unknown", AccelAgreement: 0},
	}}
	err := rep.Gate(SeedThresholds)
	if err == nil {
		t.Fatal("degenerate report passed the gate")
	}
	for _, want := range []string{"M1 agreement", "choice accuracy", "mean cost gap", "p95 cost gap"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("gate error missing %q violation:\n%v", want, err)
		}
	}
}
