package cluster

import (
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"heteromap/internal/machine"
	"heteromap/internal/obs"
	"heteromap/internal/online"
	"heteromap/internal/serve"
)

var update = flag.Bool("update", false, "rewrite golden files")

// The router's /metrics page is pinned byte for byte (regenerate with
// `go test ./internal/cluster -run Golden -update`).
func TestRouterExpositionGolden(t *testing.T) {
	m := NewRouterMetrics()
	m.Requests.Store(10)
	m.Forwards.Store(12)
	m.Failovers.Store(1)
	m.Hedges.Store(2)
	m.HedgeWins.Store(1)
	m.PeerErrors.Store(1)
	m.HTTPErrors.Store(1)
	m.Deregistered.Store(1)
	m.RouteLatency.Observe(40 * time.Microsecond)
	m.RouteLatency.Observe(3 * time.Millisecond)
	peers := []PeerInfo{
		{Addr: "127.0.0.1:9001", State: PeerLive.String(), OnRing: true},
		{Addr: "127.0.0.1:9002", State: PeerDraining.String()},
		{Addr: "127.0.0.1:9003", State: PeerDead.String()},
	}
	var sb strings.Builder
	obs.WriteText(&sb, m.Families(peers))
	got := sb.String()

	path := filepath.Join("testdata", "router_metrics_golden.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		t.Fatalf("router exposition drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// Every /metrics page follows the exposition rules: it parses cleanly
// with no family declared twice, and every sample belongs to a family
// declared with HELP and TYPE — except the documented
// <histogram>_exemplar series. The node page carries the online,
// durability and SLO blocks; the router page carries its SLO block.
func TestExpositionLint(t *testing.T) {
	lc := startLocalT(t, keepAllTracers(LocalOptions{
		Nodes: 1,
		NodeOptions: func(i int, so serve.Options) serve.Options {
			so.Online = online.New(online.Options{Pair: machine.PrimaryPair(), Model: "tree"})
			so.DurableDir = t.TempDir()
			so.SLO = obs.NewSLO(obs.SLOOptions{})
			return so
		},
		RouterOptions: func(ro RouterOptions) RouterOptions {
			ro.SLO = obs.NewSLO(obs.SLOOptions{})
			return ro
		},
	}))
	for i := 0; i < 4; i++ {
		if resp, body := postJSON(t, lc.URL()+"/v1/predict", clusterReq(i)); resp.StatusCode != http.StatusOK {
			t.Fatalf("predict: %d %s", resp.StatusCode, body)
		}
	}
	for _, page := range []struct{ name, url string }{
		{"node", "http://" + lc.NodeAddr(0) + "/metrics"},
		{"router", lc.URL() + "/metrics"},
	} {
		_, text := getText(t, page.url)
		fams, err := obs.ParseText(text)
		if err != nil {
			t.Fatalf("%s page: %v", page.name, err)
		}
		types := map[string]string{}
		for _, f := range fams {
			types[f.Name] = f.Type
		}
		for _, f := range fams {
			base, exemplar := strings.CutSuffix(f.Name, "_exemplar")
			if exemplar && types[base] == "histogram" && f.Type == "" {
				continue
			}
			if f.Help == "" || f.Type == "" {
				t.Errorf("%s page: family %s has no HELP or TYPE line", page.name, f.Name)
			}
		}
		for _, want := range []string{"heteromap_slo_burn_rate", "heteromap_online_ingested_total",
			"heteromap_serve_cache_restored", "heteromap_request_duration_seconds_exemplar"} {
			if _, ok := types[want]; !ok && page.name == "node" {
				t.Errorf("node page lacks %s", want)
			}
		}
	}
}
