package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"heteromap/internal/obs"
	"heteromap/internal/serve"
)

// keepAllTracers configures a local cluster whose router and nodes
// retain every trace (SampleRate 1), so stitching tests never race the
// sampling decision.
func keepAllTracers(opts LocalOptions) LocalOptions {
	prevNode := opts.NodeOptions
	opts.NodeOptions = func(i int, so serve.Options) serve.Options {
		so.Tracer = obs.NewTracer(obs.Options{SampleRate: 1})
		if prevNode != nil {
			so = prevNode(i, so)
		}
		return so
	}
	prevRouter := opts.RouterOptions
	opts.RouterOptions = func(ro RouterOptions) RouterOptions {
		ro.Tracer = obs.NewTracer(obs.Options{SampleRate: 1})
		if prevRouter != nil {
			ro = prevRouter(ro)
		}
		return ro
	}
	return opts
}

// fetchTimeline GETs /v1/trace/{id} from the router.
func fetchTimeline(t *testing.T, base, id string) (int, obs.StitchedTimeline) {
	t.Helper()
	resp, err := http.Get(base + "/v1/trace/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var tl obs.StitchedTimeline
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&tl); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, tl
}

// assertCausalTimeline checks the /v1/trace contract: every span's
// parent appears before it, and no child starts before its parent.
func assertCausalTimeline(t *testing.T, tl obs.StitchedTimeline) {
	t.Helper()
	pos := map[string]int{}
	for i, s := range tl.Spans {
		pos[s.ID] = i
	}
	for i, s := range tl.Spans {
		if s.Parent == "" {
			continue
		}
		pi, ok := pos[s.Parent]
		if !ok {
			t.Fatalf("span %s has unknown parent %s", s.ID, s.Parent)
		}
		if pi >= i {
			t.Fatalf("span %s emitted before its parent %s", s.ID, s.Parent)
		}
		if s.StartUS < tl.Spans[pi].StartUS {
			t.Fatalf("span %s starts at %.1fus before parent %s at %.1fus",
				s.ID, s.StartUS, s.Parent, tl.Spans[pi].StartUS)
		}
	}
}

// TestClusterTracePropagatesAcrossNodes is the happy-path propagation
// contract: the router's response names a trace id, the answering node
// joined that trace (same id, re-parented under the router's hop span),
// and /v1/trace/{id} returns one causally ordered timeline spanning
// both processes.
func TestClusterTracePropagatesAcrossNodes(t *testing.T) {
	lc := startLocalT(t, keepAllTracers(LocalOptions{Nodes: 3}))

	resp, body := postJSON(t, lc.URL()+"/v1/predict", clusterReq(1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	id := resp.Header.Get(obs.TraceHeader)
	if id == "" {
		t.Fatalf("router response carries no %s header", obs.TraceHeader)
	}
	peer := resp.Header.Get(PeerHeader)

	status, tl := fetchTimeline(t, lc.URL(), id)
	if status != http.StatusOK {
		t.Fatalf("/v1/trace/%s: status %d", id, status)
	}
	if tl.TraceID != id {
		t.Fatalf("timeline id %q, want %q", tl.TraceID, id)
	}
	if len(tl.Nodes) < 2 {
		t.Fatalf("timeline covers %v, want router and the answering node", tl.Nodes)
	}
	nodeSeen := map[string]bool{}
	var routerRoot, peerRoot, hop *obs.StitchedSpan
	for i := range tl.Spans {
		s := &tl.Spans[i]
		nodeSeen[s.Node] = true
		switch {
		case s.Parent == "" && s.Name == "route":
			routerRoot = s
		case s.Node == peer && s.Name == "predict":
			peerRoot = s
		case s.Name == "forward:primary":
			hop = s
		}
	}
	if !nodeSeen[peer] {
		t.Fatalf("answering node %s contributed no spans: %v", peer, tl.Spans)
	}
	if routerRoot == nil || hop == nil || peerRoot == nil {
		t.Fatalf("missing route/forward/predict spans in %+v", tl.Spans)
	}
	// The peer's root must be re-parented under the router's hop span —
	// that is what ParentSpanHeader exists for.
	if peerRoot.Parent != hop.ID {
		t.Fatalf("peer root parented under %q, want the hop span %q", peerRoot.Parent, hop.ID)
	}
	if len(tl.Gaps) != 0 {
		t.Fatalf("healthy request reported gaps: %+v", tl.Gaps)
	}
	assertCausalTimeline(t, tl)
}

// TestClusterTraceSurvivesChaosStorm drives the trace pipeline through
// the fault injectors: slow peers force hedges, partitions force
// failovers, and every single answered request must still produce a
// stitched, causally ordered timeline under its propagated id.
func TestClusterTraceSurvivesChaosStorm(t *testing.T) {
	lc := startLocalT(t, keepAllTracers(LocalOptions{
		Nodes:      3,
		Chaos:      true,
		HedgeAfter: 10 * time.Millisecond,
	}))
	// Arm the router-side forwarding faults: half the forwards crawl past
	// the hedge threshold (forcing hedges), a quarter die instantly with a
	// refused connection (forcing failover rungs).
	resp, body := postJSON(t, lc.URL()+"/v1/chaos", clusterChaosRequest{
		SlowPeerRate: 0.5,
		SlowPeerMS:   40,
		NodeKillRate: 0.25,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("arming chaos: status %d: %s", resp.StatusCode, body)
	}

	hedged, failedOver := false, false
	for i := 0; i < 40; i++ {
		resp, body := postJSON(t, lc.URL()+"/v1/predict", clusterReq(i))
		id := resp.Header.Get(obs.TraceHeader)
		if id == "" {
			t.Fatalf("request %d: no trace id on status %d: %s", i, resp.StatusCode, body)
		}
		if resp.StatusCode != http.StatusOK {
			continue // ladder exhausted under chaos: legal, separately traced
		}
		status, tl := fetchTimeline(t, lc.URL(), id)
		if status != http.StatusOK {
			t.Fatalf("request %d: /v1/trace/%s status %d", i, id, status)
		}
		assertCausalTimeline(t, tl)
		for _, s := range tl.Spans {
			switch s.Name {
			case "forward:hedge":
				hedged = true
			case "forward:failover":
				failedOver = true
			}
		}
		switch resp.Header.Get(RouteHeader) {
		case "hedge-win":
			if !containsFlag(tl.Flags, "hedge-win") {
				t.Fatalf("request %d hedge-win not flagged: %v", i, tl.Flags)
			}
		case "failover":
			if !containsFlag(tl.Flags, "failover") {
				t.Fatalf("request %d failover not flagged: %v", i, tl.Flags)
			}
		}
	}
	// The profile makes both paths near-certain over 40 requests; their
	// absence means the spans are not being recorded, not bad luck.
	if !hedged || !failedOver {
		t.Fatalf("chaos storm exercised hedge=%v failover=%v, want both", hedged, failedOver)
	}
	if lc.Router.Metrics().Hedges.Load() == 0 {
		t.Fatal("no hedges recorded by the router under a slow-peer storm")
	}
}

func containsFlag(flags []string, want string) bool {
	for _, f := range flags {
		if f == want {
			return true
		}
	}
	return false
}

// TestClusterFailoverAndBreakerTracesAlwaysRetained is the retention
// contract: with probabilistic sampling fully disabled (SampleRate<0),
// a clean trace vanishes but failover and breaker-open traces are in
// the always-retain flag set and survive.
func TestClusterFailoverAndBreakerTracesAlwaysRetained(t *testing.T) {
	bad := stubPeer(t, func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprint(w, `{"error":"stub: wedged"}`)
	})
	good := stubPeer(t, func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, `{"model":"tree","key":"stub"}`)
	})
	tracer := obs.NewTracer(obs.Options{SampleRate: -1}) // flagged traces only
	rt, err := NewRouter(RouterOptions{
		Addr:             "127.0.0.1:0",
		Peers:            []string{bad, good},
		Tracer:           tracer,
		BreakerThreshold: 1,
		ProbeInterval:    time.Hour, // keep the prober out of the breaker's way
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		rt.Shutdown(ctx)
	})
	srv := httptest.NewServer(rt.Handler())
	t.Cleanup(srv.Close)

	// Find one request sharded to each stub.
	target := map[string]int{}
	for i := 0; i < 200 && len(target) < 2; i++ {
		req := clusterReq(i)
		feat, err := serve.ResolveFeatures(&req, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		primary := rt.Ring().Lookup(feat.ShardHash(), 1)[0]
		if _, seen := target[primary]; !seen {
			target[primary] = i
		}
	}
	if len(target) < 2 {
		t.Fatal("requests did not spread over both stub peers")
	}

	traceOf := func(i int, wantStatus int) string {
		t.Helper()
		resp, body := postJSON(t, srv.URL+"/v1/predict", clusterReq(i))
		if resp.StatusCode != wantStatus {
			t.Fatalf("request %d: status %d, want %d: %s", i, resp.StatusCode, wantStatus, body)
		}
		id := resp.Header.Get(obs.TraceHeader)
		if id == "" {
			t.Fatalf("request %d: no trace header", i)
		}
		return id
	}
	retained := func(id string) []obs.TraceRecord {
		return tracer.Ring().Snapshot(obs.TraceFilter{ID: id, Limit: 1})
	}

	// 1. A clean request through the healthy primary: unflagged, and with
	// sampling disabled it must NOT be retained.
	clean := traceOf(target[good], http.StatusOK)
	if recs := retained(clean); len(recs) != 0 {
		t.Fatalf("unflagged trace %s retained despite SampleRate<0: %+v", clean, recs)
	}

	// 2. The wedged primary hard-fails, the ladder fails over: the trace
	// must be retained with the failover flag.
	fo := traceOf(target[bad], http.StatusOK)
	recs := retained(fo)
	if len(recs) == 0 {
		t.Fatalf("failover trace %s was not retained", fo)
	}
	if !containsFlag(recs[0].Flags, "failover") {
		t.Fatalf("failover trace flags %v missing failover", recs[0].Flags)
	}

	// 3. That hard failure opened the peer's breaker (threshold 1): the
	// next request skips it, and the breaker-open trace is retained too.
	br := traceOf(target[bad], http.StatusOK)
	recs = retained(br)
	if len(recs) == 0 {
		t.Fatalf("breaker-open trace %s was not retained", br)
	}
	if !containsFlag(recs[0].Flags, "peer-breaker") {
		t.Fatalf("breaker trace flags %v missing peer-breaker", recs[0].Flags)
	}
	foundSkip := false
	for _, sp := range recs[0].Spans {
		if sp.Name == "peer:breaker-open" && sp.Attrs["peer"] == bad {
			foundSkip = true
		}
	}
	if !foundSkip {
		t.Fatalf("no peer:breaker-open span naming %s in %+v", bad, recs[0].Spans)
	}
}

// TestClusterTraceMarksDeadPeerGap kills the answering node after its
// request completes: the stitched timeline must still assemble from the
// router's spans and mark the unreachable peer as an explicit gap
// rather than silently shrinking.
func TestClusterTraceMarksDeadPeerGap(t *testing.T) {
	lc := startLocalT(t, keepAllTracers(LocalOptions{Nodes: 3, ProbeInterval: time.Hour}))

	resp, body := postJSON(t, lc.URL()+"/v1/predict", clusterReq(2))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	id := resp.Header.Get(obs.TraceHeader)
	peer := resp.Header.Get(PeerHeader)
	for i := range lc.Nodes {
		if lc.NodeAddr(i) == peer {
			lc.KillNode(i)
		}
	}

	status, tl := fetchTimeline(t, lc.URL(), id)
	if status != http.StatusOK {
		t.Fatalf("/v1/trace/%s after peer kill: status %d", id, status)
	}
	assertCausalTimeline(t, tl)
	foundGap := false
	for _, g := range tl.Gaps {
		if g.Node == peer && g.Reason == "peer-unreachable" {
			foundGap = true
		}
	}
	if !foundGap {
		t.Fatalf("dead peer %s not marked as a gap: %+v", peer, tl.Gaps)
	}
}

// promLine finds the first sample line with the given prefix and
// returns its value field.
func promLine(t *testing.T, text, prefix string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, prefix) {
			var v float64
			if _, err := fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%g", &v); err != nil {
				t.Fatalf("bad sample %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("no series with prefix %q in:\n%s", prefix, text)
	return 0
}

func getText(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(data)
}

// TestClusterMetricsFederation checks the /metrics/cluster contract:
// the cluster-summed counter equals the sum of the per-node scrapes,
// per-node series carry the node label, and a dead peer degrades to a
// stale marker — never a 5xx.
func TestClusterMetricsFederation(t *testing.T) {
	lc := startLocalT(t, LocalOptions{Nodes: 3, ProbeInterval: time.Hour})
	for i := 0; i < 12; i++ {
		resp, _ := postJSON(t, lc.URL()+"/v1/predict", clusterReq(i))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("warm request %d: status %d", i, resp.StatusCode)
		}
	}

	var perNodeSum float64
	victimIdx := -1 // a node that served requests, so losing it must show
	for i := range lc.Nodes {
		code, text := getText(t, "http://"+lc.NodeAddr(i)+"/metrics")
		if code != http.StatusOK {
			t.Fatalf("node %d /metrics: status %d", i, code)
		}
		n := promLine(t, text, "heteromap_requests_total ")
		if n > 0 && victimIdx < 0 {
			victimIdx = i
		}
		perNodeSum += n
	}
	if victimIdx < 0 {
		t.Fatal("no node served any of the warm requests")
	}

	code, fed := getText(t, lc.URL()+"/metrics/cluster")
	if code != http.StatusOK {
		t.Fatalf("/metrics/cluster: status %d", code)
	}
	if got := promLine(t, fed, "heteromap_requests_total "); got != perNodeSum {
		t.Fatalf("cluster-summed requests_total %g != per-node sum %g\n%s", got, perNodeSum, fed)
	}
	for i := range lc.Nodes {
		nodePrefix := fmt.Sprintf("heteromap_requests_total{node=%q}", lc.NodeAddr(i))
		promLine(t, fed, nodePrefix) // must exist
		stale := fmt.Sprintf("heteromap_federation_stale{node=%q} 0", lc.NodeAddr(i))
		if !strings.Contains(fed, stale) {
			t.Fatalf("healthy node %s missing stale=0 marker:\n%s", lc.NodeAddr(i), fed)
		}
	}

	// Kill one node: federation stays 200, the victim flips to stale=1
	// and its series disappear while the others keep reporting.
	victim := lc.NodeAddr(victimIdx)
	lc.KillNode(victimIdx)
	code, fed = getText(t, lc.URL()+"/metrics/cluster")
	if code != http.StatusOK {
		t.Fatalf("/metrics/cluster with dead peer: status %d", code)
	}
	if !strings.Contains(fed, fmt.Sprintf("heteromap_federation_stale{node=%q} 1", victim)) {
		t.Fatalf("dead peer %s not marked stale:\n%s", victim, fed)
	}
	if strings.Contains(fed, fmt.Sprintf("heteromap_requests_total{node=%q}", victim)) {
		t.Fatalf("dead peer %s still contributes series", victim)
	}
	if got := promLine(t, fed, "heteromap_requests_total "); got >= perNodeSum {
		t.Fatalf("cluster sum %g did not drop after losing a node (was %g)", got, perNodeSum)
	}
}

// TestClusterSLOEndpointAndGauges checks the router-side SLO surface:
// /v1/slo reports the objectives, /metrics carries the gauges, and a
// healthy cluster burns no budget.
func TestClusterSLOEndpointAndGauges(t *testing.T) {
	lc := startLocalT(t, LocalOptions{Nodes: 2, RouterOptions: func(ro RouterOptions) RouterOptions {
		ro.SLO = obs.NewSLO(obs.SLOOptions{Availability: 0.99})
		return ro
	}})
	for i := 0; i < 8; i++ {
		resp, _ := postJSON(t, lc.URL()+"/v1/predict", clusterReq(i))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
	}
	code, body := getText(t, lc.URL()+"/v1/slo")
	if code != http.StatusOK {
		t.Fatalf("/v1/slo status %d", code)
	}
	var snap obs.SLOSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Objectives) != 2 || snap.Exhausted || snap.AlertActive {
		t.Fatalf("healthy cluster SLO snapshot: %+v", snap)
	}
	if snap.Objectives[0].Requests < 8 {
		t.Fatalf("SLO saw %d requests, want >= 8", snap.Objectives[0].Requests)
	}
	code, metrics := getText(t, lc.URL()+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		`heteromap_slo_budget_remaining{objective="availability"} 1`,
		`heteromap_slo_alert_active{objective="availability"} 0`,
		`heteromap_slo_burn_rate{objective="p99_latency",window="fast"}`,
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("router /metrics missing %q:\n%s", want, metrics)
		}
	}
}
