package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The cluster chaos harness: a 3-node cluster under a storm of traffic
// with forwarding-layer faults armed (slow peers, partitions, synthetic
// dead nodes) takes a real node kill mid-storm — and availability must
// stay at or above 99%, with the replica picking up the dead node's
// keyspace instead of a cold-start 5xx burst.
func TestClusterChaosStormSurvivesNodeKill(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos storm takes ~1.5s of wall clock")
	}
	lc := startLocalT(t, LocalOptions{
		Nodes:         3,
		ProbeInterval: 25 * time.Millisecond,
		Chaos:         true,
	})
	rt := lc.Router

	// Arm forwarding-layer chaos through the public endpoint, as the
	// scenario test and `loadtest -cluster -chaos` do.
	profile := map[string]float64{
		"slow_peer_rate": 0.3,
		"slow_peer_ms":   10,
		"partition_rate": 0.01,
		"node_kill_rate": 0.04,
	}
	presp, pbody := postJSON(t, lc.URL()+"/v1/chaos", profile)
	if presp.StatusCode != http.StatusOK {
		t.Fatalf("arming chaos: %d: %s", presp.StatusCode, pbody)
	}

	const storm = 1200 * time.Millisecond
	var (
		total, ok atomic.Uint64
		mu        sync.Mutex
		samples   []string
	)
	deadline := time.Now().Add(storm)
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := &http.Client{Timeout: 3 * time.Second}
			for i := w; time.Now().Before(deadline); i += 6 {
				data, _ := json.Marshal(clusterReq(i % 200))
				resp, err := client.Post(lc.URL()+"/v1/predict", "application/json",
					bytes.NewReader(data))
				total.Add(1)
				if err != nil {
					mu.Lock()
					if len(samples) < 5 {
						samples = append(samples, "transport: "+err.Error())
					}
					mu.Unlock()
					continue
				}
				if resp.StatusCode == http.StatusOK {
					ok.Add(1)
				} else {
					mu.Lock()
					if len(samples) < 5 {
						samples = append(samples, resp.Status+" route="+resp.Header.Get(RouteHeader))
					}
					mu.Unlock()
				}
				resp.Body.Close()
			}
		}(w)
	}

	// Mid-storm, hard-kill a node — no drain, no warning.
	time.Sleep(storm / 2)
	victim := lc.NodeAddr(2)
	lc.KillNode(2)

	wg.Wait()

	if total.Load() < 200 {
		t.Fatalf("storm too small to be meaningful: %d requests", total.Load())
	}
	avail := float64(ok.Load()) / float64(total.Load())
	t.Logf("storm: %d requests, availability %.4f, failovers=%d hedges=%d chaos(kill=%d partition=%d slow=%d)",
		total.Load(), avail, rt.Metrics().Failovers.Load(), rt.Metrics().Hedges.Load(),
		rt.Metrics().ChaosNodeKills.Load(), rt.Metrics().ChaosPartitions.Load(),
		rt.Metrics().ChaosSlowPeers.Load())
	if avail < 0.99 {
		t.Fatalf("availability %.4f below the 0.99 floor; failure samples: %v", avail, samples)
	}
	// The storm must actually have exercised the fault paths.
	if rt.Metrics().ChaosSlowPeers.Load() == 0 || rt.Metrics().ChaosNodeKills.Load() == 0 {
		t.Fatal("chaos profile never fired; storm proved nothing")
	}
	if rt.Metrics().Failovers.Load() == 0 {
		t.Fatal("no failovers recorded despite a killed node and chaos kills")
	}

	// Post-storm: the dead node is off the ring, survivors are healthy.
	waitFor(t, 3*time.Second, "dead node deregistration", func() bool {
		return !rt.Ring().Has(victim)
	})
	for i := 0; i < 2; i++ {
		resp, err := http.Get("http://" + lc.NodeAddr(i) + "/healthz")
		if err != nil {
			t.Fatalf("survivor %d unhealthy: %v", i, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("survivor %d /healthz: %d", i, resp.StatusCode)
		}
	}
	// Calm the profile and confirm the replica now serves the dead
	// node's keyspace first-try.
	postJSON(t, lc.URL()+"/v1/chaos", map[string]float64{})
	for i := 0; i < 20; i++ {
		resp, body := postJSON(t, lc.URL()+"/v1/predict", clusterReq(i%200))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("post-storm request %d failed: %d: %s", i, resp.StatusCode, body)
		}
		if peer := resp.Header.Get(PeerHeader); peer == victim {
			t.Fatalf("post-storm request answered by the dead node")
		}
		if route := resp.Header.Get(RouteHeader); route != "primary" {
			t.Fatalf("post-storm request %d routed %q, want primary", i, route)
		}
	}
	// The chaos counters surface on /metrics for the smoke job to check.
	mresp, err := http.Get(lc.URL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if !strings.Contains(string(mbody), "heteromap_router_chaos_node_kills_total") {
		t.Fatal("chaos counters missing from router metrics")
	}
}
