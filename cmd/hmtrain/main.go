// Command hmtrain runs HeteroMap's offline training pipeline (Section V)
// and reports holdout quality for every trainable learner:
//
//	hmtrain [-samples 3000] [-seed 42] [-energy] [-pair primary|970|cpu40|970cpu40]
//
// It builds the synthetic (B, I) -> best-M database with the autotuner,
// splits a holdout, trains the regressions and the deep models, and
// prints per-learner holdout MSE-equivalents and choice accuracies — the
// offline half of Table IV.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"heteromap/internal/config"
	"heteromap/internal/machine"
	"heteromap/internal/predict"
	"heteromap/internal/predict/adaptive"
	"heteromap/internal/predict/nn"
	"heteromap/internal/predict/regress"
	"heteromap/internal/train"
)

func main() {
	samples := flag.Int("samples", 3000, "synthetic combinations to generate")
	seed := flag.Int64("seed", 42, "sampling seed")
	energy := flag.Bool("energy", false, "train for the energy objective")
	pairName := flag.String("pair", "primary", "accelerator pair: primary, 970, cpu40, 970cpu40")
	out := flag.String("out", "", "write the profiler database to this file (paper: the B,I,M tuples 'residing in the CPU file system')")
	flag.Parse()

	var pair machine.Pair
	switch *pairName {
	case "primary":
		pair = machine.PrimaryPair()
	case "970":
		pair = machine.StrongGPUPair()
	case "cpu40":
		pair = machine.CPU40Pair()
	case "970cpu40":
		pair = machine.StrongCPU40Pair()
	default:
		fmt.Fprintf(os.Stderr, "unknown pair %q\n", *pairName)
		os.Exit(2)
	}

	cfg := train.Config{Samples: *samples, Seed: *seed}
	if *energy {
		cfg.Objective = train.Energy
	}
	fmt.Printf("building database: pair=%s objective=%s samples=%d\n",
		pair.Name(), cfg.Objective, cfg.Samples)
	start := time.Now()
	db := train.BuildDatabase(pair, cfg)
	fmt.Printf("database built in %.1fs (%d samples)\n", time.Since(start).Seconds(), len(db.Samples))

	if *out != "" {
		// Atomic write-temp + rename: a crash mid-write can never leave a
		// torn database under the output name.
		if err := db.SaveFile(*out, nil); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("profiler database written to %s\n", *out)
	}

	trainSet, holdout := db.Split(0.2, *seed+1)
	limits := pair.Limits()
	learners := []predict.Trainable{
		regress.NewLinear(limits),
		regress.NewMulti(limits),
		adaptive.New(limits),
		nn.New(limits, nn.Options{Hidden: 16}),
		nn.New(limits, nn.Options{Hidden: 32}),
		nn.New(limits, nn.Options{Hidden: 64}),
		nn.New(limits, nn.Options{Hidden: 128}),
	}
	fmt.Printf("%-20s %10s %12s %10s\n", "learner", "train(s)", "holdout acc", "params")
	for _, l := range learners {
		t0 := time.Now()
		if err := l.Train(trainSet); err != nil {
			fmt.Fprintf(os.Stderr, "train %s: %v\n", l.Name(), err)
			os.Exit(1)
		}
		acc := holdoutAccuracy(l, holdout, limits)
		params := "-"
		if net, ok := l.(*nn.Network); ok {
			params = fmt.Sprint(net.ParamCount())
		}
		fmt.Printf("%-20s %10.1f %11.1f%% %10s\n", l.Name(), time.Since(t0).Seconds(), acc*100, params)
	}
}

// holdoutAccuracy measures mean choice accuracy of predictions against
// the tuned targets.
func holdoutAccuracy(p predict.Predictor, holdout []predict.Sample, limits config.Limits) float64 {
	if len(holdout) == 0 {
		return 0
	}
	sum := 0.0
	for i := range holdout {
		target := config.FromNormalized(holdout[i].Target, limits)
		sum += config.ChoiceAccuracy(p.Predict(holdout[i].Features), target, limits)
	}
	return sum / float64(len(holdout))
}
