package serve

import (
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"heteromap/internal/machine"
	"heteromap/internal/obs"
	"heteromap/internal/predict/dtree"
)

var update = flag.Bool("update", false, "rewrite golden files")

// nastyModelName exercises every label-escaping rule at once: an
// embedded quote, a backslash and a raw newline.
const nastyModelName = "na\"ughty\\mo\ndel"

// goldenMetrics builds a fully deterministic exposition fixture: every
// counter pinned, every histogram fed fixed durations, the cache warmed
// to known stats, and a model listing that needs escaping.
func goldenMetrics() (*Metrics, *Cache, []ModelInfo) {
	m := NewMetrics()
	m.Requests.Store(7)
	m.HTTPErrors.Store(1)
	m.QueueFull.Store(2)
	m.Batches.Store(3)
	m.BatchItems.Store(5)
	m.Fallbacks.Store(1)
	m.ReloadCount.Store(1)
	m.ReloadRejected.Store(1)
	m.CanaryRuns.Store(2)
	m.Hedges.Store(1)
	m.HedgeWins.Store(1)
	m.BreakerRouted.Store(1)
	m.SafeDefaults.Store(1)
	m.DeadlineDrops.Store(1)
	m.WorkerRestarts.Store(1)
	m.InFlight.Store(2)

	m.RequestLatency.ObserveTraced(10*time.Millisecond, "golden-1")
	m.RequestLatency.Observe(20 * time.Microsecond)
	m.QueueWait.Observe(50 * time.Microsecond)
	m.ShedWait.Observe(100 * time.Millisecond)
	m.BatchAssembly.Observe(5 * time.Microsecond)
	m.CacheLookup.Observe(5 * time.Microsecond)
	m.Inference.ObserveTraced(250*time.Microsecond, "golden-2")
	m.ObserveModel("tree", 25*time.Microsecond)
	m.ObserveModel(nastyModelName, time.Millisecond)

	c := NewCache(8, 2)
	c.Put(ck("k1"), cachedPrediction{})
	c.Get(ck("k1"))
	c.Get(ck("absent"))

	models := []ModelInfo{
		{Name: "tree", Version: 1, Breaker: "closed"},
		{Name: nastyModelName, Version: 3, Breaker: "open"},
	}
	return m, c, models
}

func goldenExposition() string {
	m, c, models := goldenMetrics()
	var sb strings.Builder
	obs.WriteText(&sb, m.Families(c, func() int { return 4 }, models))
	return sb.String()
}

// The full /metrics exposition is pinned byte for byte against a golden
// file (regenerate with `go test ./internal/serve -run Golden -update`),
// so any accidental format drift — family ordering, help text, label
// rendering, exemplar series — fails loudly.
func TestPrometheusExpositionGolden(t *testing.T) {
	checkGolden(t, "metrics_golden.txt", goldenExposition())
}

// The durability block appended to /metrics when a durable directory
// is configured is pinned the same way.
func TestDurableExpositionGolden(t *testing.T) {
	s := New(Options{Pair: machine.PrimaryPair()})
	s.dur.stats = ServeDurableStats{
		Enabled: true, CacheRestored: 5, SnapshotRestored: true, VersionFloor: 9,
		Snapshots: 3, SnapshotErrors: 1, Quarantines: 1,
	}
	var sb strings.Builder
	obs.WriteText(&sb, s.durableFamilies())
	checkGolden(t, "durable_metrics_golden.txt", sb.String())
}

// checkGolden compares got with testdata/<name> byte for byte and
// reports the first line that drifted.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("%s: exposition drift at line %d:\n got %q\nwant %q", name, i+1, g, w)
		}
	}
}

// Label values are escaped per the text-format rules (\" \\ \n), so a
// hostile model name can never break a scrape: every non-comment line
// still starts with a metric name.
func TestPrometheusLabelEscaping(t *testing.T) {
	out := goldenExposition()
	if want := `model="na\"ughty\\mo\ndel"`; !strings.Contains(out, want) {
		t.Fatalf("escaped model label %s missing from exposition", want)
	}
	for i, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.HasPrefix(line, "heteromap_") {
			t.Fatalf("line %d does not start with a metric name (broken escaping?): %q", i+1, line)
		}
	}
}

// A model name may carry any byte, since names arrive in /v1/reload
// bodies. /metrics escapes a label by the text format's three rules
// only, so a tab and a control byte stay raw; the obs parser reads back
// the exact name, and federation re-emits the label unchanged.
func TestMetricsLabelRoundTrip(t *testing.T) {
	name := nastyModelName + "\tand\x01"
	s, ts := newTestServer(t, Options{})
	if _, err := s.Registry().Register(name, "nasty", dtree.New(s.Registry().Pair().Limits())); err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, ts.URL+"/v1/predict", PredictRequest{
		Model: name, Bench: "BFS", Vertices: 1e6, Edges: 1e7, MaxDegree: 1e3, Diameter: 20,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict: %d %s", resp.StatusCode, body)
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	page := readAll(t, mresp)
	label := `model="na\"ughty\\mo\ndel` + "\tand\x01" + `"`
	var fed strings.Builder
	obs.FederateMetrics(&fed, []obs.NodeMetrics{{Node: "n1", Text: page}})
	for _, text := range []string{page, fed.String()} {
		fams, err := obs.ParseText(text)
		if err != nil {
			t.Fatal(err)
		}
		found := map[string]bool{}
		for _, f := range fams {
			for _, smp := range f.Samples {
				found[f.Name] = found[f.Name] || smp.Label("model") == name
			}
		}
		for _, fam := range []string{"heteromap_model_breaker_state", "heteromap_model_requests_total", "heteromap_model_duration_seconds"} {
			if !found[fam] {
				t.Errorf("%s: no series with the exact model name", fam)
			}
		}
		if !strings.Contains(text, label) {
			t.Errorf("label %q not written by the three escaping rules in:\n%s", label, text)
		}
	}
}

// Every histogram series emits its buckets with strictly ascending le
// bounds, nondecreasing cumulative counts, and +Inf last.
func TestPrometheusBucketOrdering(t *testing.T) {
	type bucket struct {
		le  float64 // -1 = +Inf
		cum uint64
	}
	series := map[string][]bucket{}
	var order []string
	for _, line := range strings.Split(goldenExposition(), "\n") {
		leIdx := strings.Index(line, `le="`)
		if !strings.Contains(line, "_bucket{") || leIdx < 0 {
			continue
		}
		key := line[:leIdx]
		rest := line[leIdx+len(`le="`):]
		end := strings.Index(rest, `"`)
		if end < 0 {
			t.Fatalf("unterminated le label: %q", line)
		}
		le := -1.0
		if rest[:end] != "+Inf" {
			var err error
			if le, err = strconv.ParseFloat(rest[:end], 64); err != nil {
				t.Fatalf("bad le %q in %q: %v", rest[:end], line, err)
			}
		}
		cum, err := strconv.ParseUint(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		if err != nil {
			t.Fatalf("bad bucket count in %q: %v", line, err)
		}
		if _, ok := series[key]; !ok {
			order = append(order, key)
		}
		series[key] = append(series[key], bucket{le: le, cum: cum})
	}
	if len(order) < 8 { // request + 6 stages + at least one per-model
		t.Fatalf("only %d bucket series found", len(order))
	}
	sort.Strings(order)
	for _, key := range order {
		bs := series[key]
		if bs[len(bs)-1].le != -1 {
			t.Fatalf("%s: last bucket is not +Inf", key)
		}
		for i := 1; i < len(bs); i++ {
			if bs[i].le != -1 && bs[i].le <= bs[i-1].le {
				t.Fatalf("%s: le not ascending at index %d (%g after %g)", key, i, bs[i].le, bs[i-1].le)
			}
			if bs[i].cum < bs[i-1].cum {
				t.Fatalf("%s: cumulative count decreased at index %d", key, i)
			}
		}
	}
}

// /metrics declares the exposition-format version so Prometheus content
// negotiation works (satellite fix: it previously served bare text/plain).
func TestMetricsContentType(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	const want = "text/plain; version=0.0.4; charset=utf-8"
	if got := resp.Header.Get("Content-Type"); got != want {
		t.Fatalf("Content-Type = %q, want %q", got, want)
	}
}
