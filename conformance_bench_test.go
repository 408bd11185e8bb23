package heteromap

// The Conformance* benchmarks expose cmd/hmbench's hot-path targets to
// the standard `go test -bench` harness, so benchstat workflows and the
// BENCH_*.json reports measure the same code:
//
//	go test -bench 'Conformance' -benchmem .
//	go run ./cmd/hmbench -short            # same bodies, JSON report

import (
	"testing"

	"heteromap/internal/conformance"
)

func conformanceTarget(b *testing.B, name string) {
	b.Helper()
	for _, t := range conformance.BenchTargets(testing.Short()) {
		if t.Name == name {
			t.Run(b)
			return
		}
	}
	b.Fatalf("no conformance bench target %q", name)
}

func BenchmarkConformanceFeatureDiscretize(b *testing.B) {
	conformanceTarget(b, "feature/discretize")
}

func BenchmarkConformanceFeatureKeyRoundTrip(b *testing.B) {
	conformanceTarget(b, "feature/key-roundtrip")
}

func BenchmarkConformanceMachineEvaluate(b *testing.B) {
	conformanceTarget(b, "machine/evaluate")
}

func BenchmarkConformancePredictTree(b *testing.B) {
	conformanceTarget(b, "predict/tree")
}

func BenchmarkConformancePredictDeep128(b *testing.B) {
	conformanceTarget(b, "predict/deep128")
}

func BenchmarkConformanceServePredictCacheHit(b *testing.B) {
	conformanceTarget(b, "serve/predict-cachehit")
}

func BenchmarkConformanceTrainBuildDB(b *testing.B) {
	conformanceTarget(b, "train/build-db")
}

func BenchmarkConformanceOnlineFeedbackIngest(b *testing.B) {
	conformanceTarget(b, "online/feedback-ingest")
}

func BenchmarkConformanceOnlineDriftCheck(b *testing.B) {
	conformanceTarget(b, "online/drift-check")
}
