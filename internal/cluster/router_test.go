package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"heteromap/internal/fault"
	"heteromap/internal/serve"
)

// clusterReq fabricates a distinct (benchmark, input) combination per
// index so requests spread across shards.
// clusterReq spreads requests over the keyspace: the 0.1-step
// discretization collapses nearby graph shapes onto the same shard key,
// so cycling the benchmark multiplies the distinct-hash count enough
// that every node owns some request in any window of ~30 values of i.
func clusterReq(i int) serve.PredictRequest {
	benches := []string{"BFS", "PageRank", "SSSP-Delta", "DFS", "Tri.Cnt", "Conn.Comp"}
	return serve.PredictRequest{
		Bench:     benches[i%len(benches)],
		Vertices:  int64(1e5 + i*7919),
		Edges:     int64(2e6 + i*104729),
		MaxDegree: int64(100 + i*31),
		Diameter:  int64(10 + i%40),
	}
}

func postJSON(t *testing.T, url string, v any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func startLocalT(t *testing.T, opts LocalOptions) *Local {
	t.Helper()
	lc, err := StartLocal(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.Stop)
	return lc
}

// waitFor polls until the condition holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestClusterRoutesDeterministicallyByShard(t *testing.T) {
	lc := startLocalT(t, LocalOptions{Nodes: 3})
	rt := lc.Router

	peerFor := map[int]string{}
	for i := 0; i < 30; i++ {
		req := clusterReq(i)
		resp, body := postJSON(t, lc.URL()+"/v1/predict", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, body)
		}
		peer := resp.Header.Get(PeerHeader)
		if peer == "" {
			t.Fatalf("request %d: no %s header", i, PeerHeader)
		}
		if route := resp.Header.Get(RouteHeader); route != "primary" {
			t.Fatalf("request %d: route %q, want primary (healthy cluster)", i, route)
		}
		var pr serve.PredictResponse
		if err := json.Unmarshal(body, &pr); err != nil {
			t.Fatalf("request %d: bad body %s: %v", i, body, err)
		}
		if pr.Model != "tree" || pr.Key == "" {
			t.Fatalf("request %d: unexpected response %+v", i, pr)
		}
		// Placement must match the ring's primary for the response's own
		// discretized key — routing and caching agree by construction.
		feat, err := serve.ResolveFeatures(&req, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		if want := rt.Ring().Lookup(feat.ShardHash(), 1)[0]; peer != want {
			t.Fatalf("request %d landed on %s, ring primary is %s", i, peer, want)
		}
		peerFor[i] = peer
	}
	// Repeats land on the same peer (and hit its warm cache).
	for i := 0; i < 30; i += 5 {
		resp, body := postJSON(t, lc.URL()+"/v1/predict", clusterReq(i))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("repeat %d: status %d", i, resp.StatusCode)
		}
		if got := resp.Header.Get(PeerHeader); got != peerFor[i] {
			t.Fatalf("repeat %d moved peers: %s -> %s", i, peerFor[i], got)
		}
		var pr serve.PredictResponse
		if err := json.Unmarshal(body, &pr); err != nil {
			t.Fatal(err)
		}
		if !pr.Cached {
			t.Fatalf("repeat %d missed the shard-local cache", i)
		}
	}
	// Every node should own some share of 30 spread-out requests.
	owners := map[string]int{}
	for _, p := range peerFor {
		owners[p]++
	}
	if len(owners) < 2 {
		t.Fatalf("placement did not spread: %v", owners)
	}
}

func TestClusterFailoverOnKilledNode(t *testing.T) {
	lc := startLocalT(t, LocalOptions{Nodes: 3, ProbeInterval: 25 * time.Millisecond})
	rt := lc.Router

	// Find a request whose primary is node 0 so the kill is observable.
	victim := lc.NodeAddr(0)
	target := -1
	for i := 0; i < 200; i++ {
		req := clusterReq(i)
		feat, err := serve.ResolveFeatures(&req, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		if rt.Ring().Lookup(feat.ShardHash(), 1)[0] == victim {
			target = i
			break
		}
	}
	if target < 0 {
		t.Fatal("no request shards to node 0")
	}

	lc.KillNode(0)

	// The very first request after the kill must already succeed: the
	// failover ladder covers the probe detection window, with the replica
	// serving the dead node's keys (no cold-start 5xx burst).
	for i := 0; i < 10; i++ {
		resp, body := postJSON(t, lc.URL()+"/v1/predict", clusterReq(target))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("post-kill request %d: status %d: %s", i, resp.StatusCode, body)
		}
		if peer := resp.Header.Get(PeerHeader); peer == victim {
			t.Fatalf("post-kill request %d answered by the dead node %s", i, peer)
		}
	}
	if rt.Metrics().Failovers.Load() == 0 {
		t.Fatal("no failover was recorded for the dead primary")
	}

	// The prober deregisters the dead peer from the ring.
	waitFor(t, 3*time.Second, "dead peer deregistration", func() bool {
		p := rt.peers[victim]
		return p.State() == PeerDead && !rt.Ring().Has(victim)
	})
	if rt.Metrics().Deregistered.Load() == 0 {
		t.Fatal("deregistration not counted")
	}
	// Post-deregistration, the replica is the new ring primary.
	resp, _ := postJSON(t, lc.URL()+"/v1/predict", clusterReq(target))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-deregistration status %d", resp.StatusCode)
	}
	if route := resp.Header.Get(RouteHeader); route != "primary" {
		t.Fatalf("post-deregistration route %q, want primary", route)
	}
}

func TestClusterReadmitsRecoveredPeer(t *testing.T) {
	lc := startLocalT(t, LocalOptions{Nodes: 3, ProbeInterval: 20 * time.Millisecond})
	rt := lc.Router
	victim := lc.NodeAddr(1)

	lc.KillNode(1)
	waitFor(t, 3*time.Second, "dead peer deregistration", func() bool {
		return !rt.Ring().Has(victim)
	})

	// Restart a fresh node on the same address — the recovery the
	// health-probe half-open path exists for.
	replacement, err := startNode(serve.Options{Addr: victim})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		replacement.Shutdown(ctx)
	})

	waitFor(t, 3*time.Second, "peer readmission", func() bool {
		p := rt.peers[victim]
		return p.State() == PeerLive && rt.Ring().Has(victim)
	})
	if rt.Metrics().Readmitted.Load() == 0 {
		t.Fatal("readmission not counted")
	}
	// The readmitted peer serves its keyspace again.
	for i := 0; i < 100; i++ {
		req := clusterReq(i)
		feat, err := serve.ResolveFeatures(&req, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		if rt.Ring().Lookup(feat.ShardHash(), 1)[0] != victim {
			continue
		}
		resp, body := postJSON(t, lc.URL()+"/v1/predict", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("readmitted-peer request: status %d: %s", resp.StatusCode, body)
		}
		if peer := resp.Header.Get(PeerHeader); peer != victim {
			t.Fatalf("request owned by readmitted peer answered by %s", peer)
		}
		return
	}
	t.Fatal("no request sharded to the readmitted peer")
}

func TestClusterBatchFansOutAcrossShards(t *testing.T) {
	lc := startLocalT(t, LocalOptions{Nodes: 3})
	var batch serve.BatchRequest
	for i := 0; i < 24; i++ {
		batch.Requests = append(batch.Requests, clusterReq(i))
	}
	resp, body := postJSON(t, lc.URL()+"/v1/predict/batch", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, body)
	}
	var br serve.BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Responses) != len(batch.Requests) {
		t.Fatalf("batch returned %d responses for %d items", len(br.Responses), len(batch.Requests))
	}
	// The router writes its answer through serve's wire codec: the bytes
	// must be what a json.Encoder writes for the same value.
	var enc bytes.Buffer
	if err := json.NewEncoder(&enc).Encode(br); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, enc.Bytes()) {
		t.Fatalf("batch body differs from json.Encoder:\n got %s\nwant %s", body, enc.Bytes())
	}
	for i, pr := range br.Responses {
		if pr.Error != "" {
			t.Fatalf("batch item %d errored: %s", i, pr.Error)
		}
		if pr.Model != "tree" {
			t.Fatalf("batch item %d answered by model %q", i, pr.Model)
		}
	}
	// Positional agreement with single-shot routing, item by item; only
	// cached and trace_id may differ.
	for i, item := range br.Responses {
		single, sbody := postJSON(t, lc.URL()+"/v1/predict", batch.Requests[i])
		if single.StatusCode != http.StatusOK {
			t.Fatalf("item %d: single status %d: %s", i, single.StatusCode, sbody)
		}
		var pr serve.PredictResponse
		if err := json.Unmarshal(sbody, &pr); err != nil {
			t.Fatal(err)
		}
		if item.Key != pr.Key || item.M != pr.M || item.Model != pr.Model ||
			item.Version != pr.Version || item.PredictorUsed != pr.PredictorUsed {
			t.Fatalf("batch item %d differs from single-shot routing:\n batch  %+v\n single %+v", i, item, pr)
		}
	}
}

// stubPeer is an httptest-backed fake node for passthrough tests.
func stubPeer(t *testing.T, handler http.HandlerFunc) string {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, `{"status":"ok","registry_version":1}`)
	})
	mux.HandleFunc("/v1/predict", handler)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return strings.TrimPrefix(ts.URL, "http://")
}

func TestClusterPassesRetryAfterThroughOnShed(t *testing.T) {
	shed := func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Retry-After", "1")
		w.Header().Set(serve.RetryAfterMSHeader, "12")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprint(w, `{"error":"serve: request queue full"}`)
	}
	a, b := stubPeer(t, shed), stubPeer(t, shed)
	rt, err := NewRouter(RouterOptions{Addr: "127.0.0.1:0", Peers: []string{a, b}})
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

	resp, body := postJSON(t, srv.URL+"/v1/predict", clusterReq(1))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	// Both replicas shed, so the ladder is exhausted and the node's
	// backpressure hint must reach the client intact.
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want 1", got)
	}
	if got := resp.Header.Get(serve.RetryAfterMSHeader); got != "12" {
		t.Fatalf("%s = %q, want 12", serve.RetryAfterMSHeader, got)
	}
	if route := resp.Header.Get(RouteHeader); route != "exhausted" {
		t.Fatalf("route %q, want exhausted", route)
	}
	// Shedding is not a peer failure: neither breaker may have opened.
	for _, addr := range []string{a, b} {
		if _, fails := rt.peers[addr].breaker.Stats(); fails != 0 {
			t.Fatalf("shed 503 fed peer %s breaker (%d failures)", addr, fails)
		}
	}
}

func TestClusterNoLiveReplica(t *testing.T) {
	lc := startLocalT(t, LocalOptions{Nodes: 2, ProbeInterval: 20 * time.Millisecond})
	lc.KillNode(0)
	lc.KillNode(1)
	waitFor(t, 3*time.Second, "all peers deregistered", func() bool {
		return lc.Router.Ring().Len() == 0
	})
	resp, body := postJSON(t, lc.URL()+"/v1/predict", clusterReq(0))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "no live replica") {
		t.Fatalf("body %q does not name the condition", body)
	}
	var health struct {
		Status string `json:"status"`
	}
	hresp, err := http.Get(lc.URL() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "no-live-peers" {
		t.Fatalf("router healthz status %q", health.Status)
	}
}

// Both predict endpoints refuse a body over MaxBodyBytes with 413 and a
// serve node's error text, before decoding it.
func TestClusterRejectsOversizedBodies(t *testing.T) {
	lc := startLocalT(t, LocalOptions{Nodes: 1, RouterOptions: func(o RouterOptions) RouterOptions {
		o.MaxBodyBytes = 256
		return o
	}})
	huge := `{"requests":[{"bench":"` + strings.Repeat("x", 4096) + `"}]}`
	for _, path := range []string{"/v1/predict", "/v1/predict/batch"} {
		resp, err := http.Post(lc.URL()+path, "application/json", strings.NewReader(huge))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d, want 413: %s", path, resp.StatusCode, body)
			continue
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Error != "request body exceeds 256 bytes" {
			t.Errorf("%s: body %q, want the node's body-limit error", path, body)
		}
	}
}

func TestClusterEndpointsExposeMembership(t *testing.T) {
	lc := startLocalT(t, LocalOptions{Nodes: 3, ProbeInterval: 20 * time.Millisecond})
	lc.KillNode(2)
	victim := lc.NodeAddr(2)
	waitFor(t, 3*time.Second, "dead peer visible", func() bool {
		return !lc.Router.Ring().Has(victim)
	})

	resp, err := http.Get(lc.URL() + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	var view struct {
		Peers    []PeerInfo `json:"peers"`
		Ring     []string   `json:"ring"`
		Replicas int        `json:"replicas"`
		Events   []string   `json:"events"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(view.Peers) != 3 || len(view.Ring) != 2 || view.Replicas != 2 {
		t.Fatalf("cluster view: %+v", view)
	}
	foundDead := false
	for _, p := range view.Peers {
		if p.Addr == victim {
			foundDead = p.State == "dead" && !p.OnRing
		}
	}
	if !foundDead {
		t.Fatalf("dead peer not reported: %+v", view.Peers)
	}
	if len(view.Events) == 0 || !strings.Contains(view.Events[len(view.Events)-1], "deregistered") {
		t.Fatalf("membership events missing: %v", view.Events)
	}

	mresp, err := http.Get(lc.URL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		"heteromap_router_requests_total",
		"heteromap_router_deregistered_total 1",
		fmt.Sprintf("heteromap_router_peer_state{peer=%q} 2", victim),
		fmt.Sprintf("heteromap_router_peer_on_ring{peer=%q} 0", victim),
		"heteromap_router_route_latency_seconds_bucket",
	} {
		if !strings.Contains(string(mbody), want) {
			t.Fatalf("router metrics missing %q:\n%s", want, mbody)
		}
	}
}

// TestClusterHealsUnusedHalfOpenTrial covers a replica whose breaker
// went half-open because routeOne admitted it as a hedge candidate that
// was never sent: the prober must take it off and readmit it closed,
// not leave a live peer that refuses every request.
func TestClusterHealsUnusedHalfOpenTrial(t *testing.T) {
	lc := startLocalT(t, LocalOptions{Nodes: 2, ProbeInterval: 20 * time.Millisecond,
		RouterOptions: func(ro RouterOptions) RouterOptions {
			ro.BreakerThreshold, ro.BreakerCooldown = 1, 1
			return ro
		}})
	rt := lc.Router
	replica := rt.peers[lc.NodeAddr(1)]
	replica.breaker.RecordFailure() // opens it (threshold 1)
	for i, served := 0, 0; served < 3; i++ {
		req := clusterReq(i)
		feat, err := serve.ResolveFeatures(&req, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		if rt.Ring().Lookup(feat.ShardHash(), 1)[0] != lc.NodeAddr(0) {
			continue
		}
		// Node 0 answers first try; the replica was admitted, unused.
		if resp, body := postJSON(t, lc.URL()+"/v1/predict", req); resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		served++
	}
	waitFor(t, 3*time.Second, "the replica back on the ring with a closed breaker", func() bool {
		return replica.State() == PeerLive && rt.Ring().Has(replica.Addr) &&
			replica.breaker.State() == fault.BreakerClosed
	})
}
