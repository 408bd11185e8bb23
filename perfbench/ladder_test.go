package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"testing"
)

// residueTolerance is the share of the end-to-end p50 the ladder may
// leave unexplained, in percent.
const residueTolerance = 15

// TestLadderReconciles runs each workload's traced ladder and checks
// that its rungs sum to the untraced end-to-end p50 within the
// tolerance. A miss names where the missing rung sits.
func TestLadderReconciles(t *testing.T) {
	if testing.Short() {
		t.Skip("drives every workload for several seconds")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			rep, err := bench(runConfig{w: w, seed: 2, seconds: 8, trace: true}, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.problems) > 0 {
				t.Fatalf("run incorrect: %v", rep.problems)
			}
			if raceDetector {
				return // timings under -race say nothing about the ladder
			}
			if pct := rep.metrics["bench.residue_pct"]; math.Abs(pct) > residueTolerance {
				t.Errorf("%.1f%% of the end-to-end p50 is unexplained (tolerance %d%%): %s",
					pct, residueTolerance, missingRung(rep))
			}
		})
	}
}

// missingRung says which side of the in-process handler holds the
// unexplained time: inside it (handler time no in-handler rung covers)
// or around it (transport and GC against the round trip).
func missingRung(rep *report) string {
	m := rep.metrics
	var outside, inside float64
	var rungs []string
	for _, r := range rep.path {
		rungs = append(rungs, fmt.Sprintf("%s=%.1f", r.name, r.us))
		switch r.name {
		case "serve.loopback_us", "runtime.gc_beyond_http_us":
			outside += r.us
		default:
			inside += r.us
		}
	}
	handlerGap := m["serve.handler_us"] - inside
	aroundGap := m["bench.residue_us"] - handlerGap
	where := fmt.Sprintf("a rung inside serve.Handler is missing: the handler takes %.1fµs more than its rungs", handlerGap)
	if math.Abs(aroundGap) > math.Abs(handlerGap) {
		where = fmt.Sprintf("a rung between the client and serve.Handler is missing: %.1fµs of the round trip lies outside the handler, transport and GC rungs (%.1fµs)",
			aroundGap, outside)
	}
	return where + "; rungs " + strings.Join(rungs, " ")
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric and workload
// lists in step with what the benchmark prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metric) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark prints %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the benchmark %s", i, spec.Workloads[i].Name, w.name)
		}
	}
}

// TestCheckAnswer pins the answer check's classification of batch items.
func TestCheckAnswer(t *testing.T) {
	want := [][]byte{[]byte(`{"a":1}`), []byte(`{"a":2}`), []byte(`{"a":3}`)}
	body := []byte(`{"responses":[{"model":"t","m":{"a":1}},{"model":"t","m":{"a":9}},{"model":"","m":{"a":0},"error":"boom"}]}`)
	o := checkAnswer(body, want)
	if o.items != 1 || o.mismatches != 1 || o.itemErrors != 1 {
		t.Fatalf("got %+v, want 1 correct, 1 mismatch, 1 item error", o)
	}
	if o := checkAnswer([]byte(`{"error":"x"}`), want[:1]); o.itemErrors != 1 {
		t.Fatalf("an answer without m must count as an item error, got %+v", o)
	}
}
