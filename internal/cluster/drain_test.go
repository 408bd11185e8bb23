package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// A planned shutdown must be invisible to clients: the draining node
// announces via /healthz, the router deregisters it from the ring, and
// only then does the node stop — so with traffic flowing the whole time,
// not a single request may see a 5xx or a transport error.
func TestClusterGracefulDrainZeroFiveHundreds(t *testing.T) {
	lc := startLocalT(t, LocalOptions{Nodes: 3, ProbeInterval: 15 * time.Millisecond})
	rt := lc.Router
	victim := lc.NodeAddr(1)

	var (
		stop     atomic.Bool
		total    atomic.Uint64
		failures atomic.Uint64
		mu       sync.Mutex
		samples  []string
	)
	noteFailure := func(s string) {
		failures.Add(1)
		mu.Lock()
		if len(samples) < 5 {
			samples = append(samples, s)
		}
		mu.Unlock()
	}

	var wg sync.WaitGroup
	stopLoad := func() {
		stop.Store(true)
		wg.Wait()
	}
	defer stopLoad() // a timed-out wait must not leave the clients running
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := &http.Client{Timeout: 2 * time.Second}
			for i := 0; !stop.Load(); i++ {
				req := clusterReq(w*1000 + i%50)
				data, _ := json.Marshal(req)
				resp, err := client.Post(lc.URL()+"/v1/predict", "application/json",
					bytes.NewReader(data))
				total.Add(1)
				if err != nil {
					noteFailure("transport: " + err.Error())
					continue
				}
				if resp.StatusCode >= 500 {
					noteFailure(resp.Status + " route=" + resp.Header.Get(RouteHeader))
				}
				resp.Body.Close()
			}
		}(w)
	}

	// The load, not the clock, decides when each step comes: each waits
	// until requests in all reach a count, under a cap that fails the
	// test. The three waits add up to the floor of 100 checked below.
	sent := func(what string, n uint64) {
		t.Helper()
		waitFor(t, 10*time.Second, what, func() bool { return total.Load() >= n })
	}

	// Let traffic settle, then drain the victim under load.
	sent("40 requests before the drain", 40)
	lc.DrainNode(1)
	draining := total.Load()

	// The router notices the drain announcement and takes the node off
	// the ring; the node keeps answering during this detection window.
	waitFor(t, 3*time.Second, "drain deregistration", func() bool {
		p := rt.peers[victim]
		return p.State() == PeerDraining && !rt.Ring().Has(victim)
	})
	sent("20 requests from the drain on", draining+20)

	// Only now does the node actually stop — the drain protocol's whole
	// point. Traffic keeps flowing for 40 more requests to catch
	// stragglers.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := lc.ShutdownNode(ctx, 1); err != nil {
		t.Fatalf("drained node shutdown: %v", err)
	}
	sent("40 requests after the shutdown", total.Load()+40)
	stopLoad()

	if total.Load() < 100 {
		t.Fatalf("only %d requests flowed; the drain window was not exercised", total.Load())
	}
	if failures.Load() != 0 {
		t.Fatalf("%d/%d requests failed during a planned drain; samples: %v",
			failures.Load(), total.Load(), samples)
	}

	// The drained peer eventually reads dead (its process is gone), and
	// the survivors own the whole ring.
	waitFor(t, 3*time.Second, "drained peer marked dead", func() bool {
		return rt.peers[victim].State() == PeerDead
	})
	if rt.Ring().Len() != 2 {
		t.Fatalf("ring has %d nodes after drain, want 2", rt.Ring().Len())
	}
}

// The draining node itself must answer /healthz with "draining" while
// still serving predictions — that contract is what the router's
// detection window leans on.
func TestServeNodeDrainingHealthzStillServes(t *testing.T) {
	lc := startLocalT(t, LocalOptions{Nodes: 1, ProbeInterval: time.Hour})
	node := lc.Nodes[0]
	addr := lc.NodeAddr(0)

	node.BeginDrain()

	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hv struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hv); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hv.Status != "draining" {
		t.Fatalf("draining node healthz status %q", hv.Status)
	}
	// Predictions still succeed mid-drain.
	presp, body := postJSON(t, "http://"+addr+"/v1/predict", clusterReq(0))
	if presp.StatusCode != http.StatusOK {
		t.Fatalf("draining node refused a predict: %d: %s", presp.StatusCode, body)
	}
}
