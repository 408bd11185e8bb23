package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"heteromap/internal/fault"
	"heteromap/internal/machine"
	"heteromap/internal/predict/dtree"
	"heteromap/internal/serve"
)

// Rolling reloads must never mix model versions inside one hedged pair.
// Node A is pinned at registry version 1 and made slow (so the router
// wants to hedge every request toward the replica); node B's registry is
// reloaded continuously, racing its version past A's. The invariant:
// every answer served for A's keyspace carries version 1 — a hedge
// answer from B at any later version must be suppressed up front (the
// version gate) or discarded post hoc, never served. Run under -race,
// this also drives the reload/probe/hedge interleaving data-race free.
func TestClusterHedgeNeverMixesVersionsUnderReloadChurn(t *testing.T) {
	injectors := make([]*fault.ServeInjector, 2)
	lc := startLocalT(t, LocalOptions{
		Nodes:         2,
		ProbeInterval: 10 * time.Millisecond,
		HedgeAfter:    5 * time.Millisecond,
		NodeOptions: func(i int, opts serve.Options) serve.Options {
			injectors[i] = fault.NewServeInjector(int64(100 + i))
			opts.Chaos = injectors[i]
			return opts
		},
	})
	rt := lc.Router

	// Pick the "pinned" node A: primary owner of our request stream.
	// With two nodes, B is always the hedge replica.
	var reqs []serve.PredictRequest
	aIdx := -1
	for i := 0; i < 4000 && len(reqs) < 400; i++ {
		req := clusterReq(i)
		feat, err := serve.ResolveFeatures(&req, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		primary := rt.Ring().Lookup(feat.ShardHash(), 1)[0]
		if aIdx < 0 {
			for n := range lc.Nodes {
				if lc.NodeAddr(n) == primary {
					aIdx = n
				}
			}
		}
		if primary == lc.NodeAddr(aIdx) {
			reqs = append(reqs, req)
		}
	}
	if len(reqs) < 100 {
		t.Fatalf("only %d requests shard to the pinned node", len(reqs))
	}
	bIdx := 1 - aIdx

	// Slow every inference on A past HedgeAfter so the router reaches
	// for the hedge on each fresh key.
	injectors[aIdx].SetServeProfile(fault.ServeProfile{
		SlowModelRate:  1,
		SlowModelDelay: 15 * time.Millisecond,
	})

	// Wait until the router has observed both peers' versions at least
	// once, so early hedges aren't all suppressed by version 0.
	waitFor(t, 3*time.Second, "router observes peer versions", func() bool {
		return rt.peers[lc.NodeAddr(aIdx)].Version() != 0 &&
			rt.peers[lc.NodeAddr(bIdx)].Version() != 0
	})

	// Churn B's registry: every Register bumps its version, racing the
	// probe loop and in-flight hedges.
	var stop atomic.Bool
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		pair := machine.PrimaryPair()
		for !stop.Load() {
			if _, err := lc.Nodes[bIdx].Registry().Register(
				"tree", "reload churn", dtree.New(pair.Limits())); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(3 * time.Millisecond)
		}
	}()

	var wg sync.WaitGroup
	var served atomic.Uint64
	var wrongVersion atomic.Uint64
	deadline := time.Now().Add(800 * time.Millisecond)
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := &http.Client{Timeout: 2 * time.Second}
			for i := w; time.Now().Before(deadline); i += 3 {
				req := reqs[i%len(reqs)]
				data, _ := json.Marshal(req)
				resp, err := client.Post(lc.URL()+"/v1/predict", "application/json",
					bytes.NewReader(data))
				if err != nil {
					continue
				}
				ver := resp.Header.Get(serve.VersionHeader)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					continue
				}
				served.Add(1)
				// A is pinned at version 1; any other served version
				// means a hedged pair mixed versions.
				if ver != "1" {
					wrongVersion.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	stop.Store(true)
	churn.Wait()

	if served.Load() < 30 {
		t.Fatalf("only %d requests served; churn window too small", served.Load())
	}
	if wrongVersion.Load() != 0 {
		t.Fatalf("%d/%d answers served with a non-pinned version: hedged pair mixed model versions",
			wrongVersion.Load(), served.Load())
	}
	// The gate must actually have engaged: with B's version racing ahead
	// of A's, hedges get suppressed up front and/or discarded post hoc.
	skips := rt.Metrics().HedgeVersionSkips.Load()
	discards := rt.Metrics().HedgeMixedDiscards.Load()
	if skips+discards == 0 {
		t.Fatalf("version gate never engaged (hedges=%d wins=%d): test exerted no skew pressure",
			rt.Metrics().Hedges.Load(), rt.Metrics().HedgeWins.Load())
	}
	t.Logf("served=%d hedges=%d wins=%d version-skips=%d mixed-discards=%d",
		served.Load(), rt.Metrics().Hedges.Load(), rt.Metrics().HedgeWins.Load(), skips, discards)
}
