package obs

import (
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// federateFixture is a deterministic three-nodes-plus-one-dead cluster
// scrape covering every merge rule: a bare counter, a labeled counter
// with an escaped label value, a gauge, a histogram, an untyped
// exemplar series, a node whose name itself needs label escaping, and
// an unreachable node that must degrade to a stale marker.
func federateFixture() []NodeMetrics {
	nodeA := `# HELP heteromap_requests_total Requests served.
# TYPE heteromap_requests_total counter
heteromap_requests_total 100
# TYPE heteromap_queue_depth gauge
heteromap_queue_depth 3
# HELP heteromap_request_duration_seconds Request latency.
# TYPE heteromap_request_duration_seconds histogram
heteromap_request_duration_seconds_bucket{le="0.005"} 90
heteromap_request_duration_seconds_bucket{le="+Inf"} 100
heteromap_request_duration_seconds_sum 0.5
heteromap_request_duration_seconds_count 100
# TYPE heteromap_model_requests_total counter
heteromap_model_requests_total{model="na\"ughty"} 7
heteromap_request_duration_seconds_exemplar{trace_id="aa-1"} 0.25
`
	nodeB := `# HELP heteromap_requests_total Requests served.
# TYPE heteromap_requests_total counter
heteromap_requests_total 150
# TYPE heteromap_queue_depth gauge
heteromap_queue_depth 5
# HELP heteromap_request_duration_seconds Request latency.
# TYPE heteromap_request_duration_seconds histogram
heteromap_request_duration_seconds_bucket{le="0.005"} 80
heteromap_request_duration_seconds_bucket{le="+Inf"} 120
heteromap_request_duration_seconds_sum 0.75
heteromap_request_duration_seconds_count 120
# TYPE heteromap_model_requests_total counter
heteromap_model_requests_total{model="na\"ughty"} 5
heteromap_model_requests_total{model="tree"} 11
`
	evil := `# TYPE heteromap_requests_total counter
heteromap_requests_total 1
`
	return []NodeMetrics{
		{Node: "127.0.0.1:9002", Text: nodeB},
		{Node: "127.0.0.1:9001", Text: nodeA},
		{Node: "127.0.0.1:9003", Err: errors.New("connection refused")},
		{Node: `evil"node`, Text: evil},
	}
}

func TestFederateGolden(t *testing.T) {
	var sb strings.Builder
	FederateMetrics(&sb, federateFixture())
	checkGolden(t, "federation_golden.txt", sb.String())
}

// checkGolden compares got with testdata/<name> byte for byte
// (regenerate with `go test ./internal/obs -run Golden -update`).
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("exposition drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", golden, got, want)
	}
}

func TestFederateMergeRules(t *testing.T) {
	var sb strings.Builder
	FederateMetrics(&sb, federateFixture())
	lines := strings.Split(sb.String(), "\n")
	has := func(line string) bool {
		for _, l := range lines {
			if l == line {
				return true
			}
		}
		return false
	}

	// Counters: cluster sum without node label plus per-node series.
	for _, want := range []string{
		`heteromap_requests_total 251`,
		`heteromap_requests_total{node="127.0.0.1:9001"} 100`,
		`heteromap_requests_total{node="127.0.0.1:9002"} 150`,
		`heteromap_requests_total{node="evil\"node"} 1`,
		`heteromap_model_requests_total{model="na\"ughty"} 12`,
		`heteromap_model_requests_total{node="127.0.0.1:9002",model="tree"} 11`,
	} {
		if !has(want) {
			t.Fatalf("missing %q in:\n%s", want, sb.String())
		}
	}

	// Histograms: buckets, sum and count merged across nodes.
	for _, want := range []string{
		`heteromap_request_duration_seconds_bucket{le="0.005"} 170`,
		`heteromap_request_duration_seconds_bucket{le="+Inf"} 220`,
		`heteromap_request_duration_seconds_sum 1.25`,
		`heteromap_request_duration_seconds_count 220`,
		`heteromap_request_duration_seconds_bucket{node="127.0.0.1:9001",le="+Inf"} 100`,
	} {
		if !has(want) {
			t.Fatalf("missing merged histogram series %q in:\n%s", want, sb.String())
		}
	}

	// Gauges stay per-node: a bare cluster-summed gauge would be a lie.
	if has(`heteromap_queue_depth 8`) {
		t.Fatalf("gauge was cluster-summed:\n%s", sb.String())
	}
	if !has(`heteromap_queue_depth{node="127.0.0.1:9001"} 3`) {
		t.Fatalf("per-node gauge missing:\n%s", sb.String())
	}

	// Untyped exemplar series stay per-node too.
	if !has(`heteromap_request_duration_seconds_exemplar{node="127.0.0.1:9001",trace_id="aa-1"} 0.25`) {
		t.Fatalf("exemplar series lost:\n%s", sb.String())
	}
	if has(`heteromap_request_duration_seconds_exemplar{trace_id="aa-1"} 0.25`) {
		t.Fatalf("exemplar series was cluster-merged:\n%s", sb.String())
	}
}

func TestFederateStaleNodeDegradesGracefully(t *testing.T) {
	var sb strings.Builder
	FederateMetrics(&sb, federateFixture())
	text := sb.String()
	if !strings.Contains(text, `heteromap_federation_stale{node="127.0.0.1:9003"} 1`) {
		t.Fatalf("dead peer lost its stale marker:\n%s", text)
	}
	if !strings.Contains(text, `heteromap_federation_stale{node="127.0.0.1:9001"} 0`) {
		t.Fatalf("healthy peer missing stale=0 coverage marker:\n%s", text)
	}
	if strings.Contains(text, `node="127.0.0.1:9003"} `) && strings.Contains(text, `heteromap_requests_total{node="127.0.0.1:9003"}`) {
		t.Fatalf("dead peer contributed series:\n%s", text)
	}
}
