package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"heteromap/internal/serve"
)

// The restart half of the durability story, end to end: a cluster node
// with a durable cache is hard-killed mid-storm and restarted on the
// same address. The router must keep availability at or above 99%
// through the whole episode, readmit the reborn node through half-open,
// and — the point of the exercise — the restarted node must answer its
// keyspace from the restored cache (warm hit-rate at least half the
// pre-kill rate on the same probe set), never serving a corrupt model.
func TestClusterRestartUnderLoadWarmCache(t *testing.T) {
	if testing.Short() {
		t.Skip("restart storm takes ~2s of wall clock")
	}
	base := t.TempDir()
	lc := startLocalT(t, LocalOptions{
		Nodes:         3,
		ProbeInterval: 20 * time.Millisecond,
		NodeOptions: func(i int, opts serve.Options) serve.Options {
			opts.DurableDir = filepath.Join(base, fmt.Sprintf("node-%d", i))
			opts.CacheSnapshotEvery = 40 * time.Millisecond
			return opts
		},
	})
	rt := lc.Router
	const victimIdx = 2
	victim := lc.NodeAddr(victimIdx)

	// Probe set: requests whose ring primary is the victim, so cache
	// warmth on the reborn node is observable through the router.
	var probes []serve.PredictRequest
	for i := 0; i < 300 && len(probes) < 12; i++ {
		req := clusterReq(i)
		feat, err := serve.ResolveFeatures(&req, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		if rt.Ring().Lookup(feat.ShardHash(), 1)[0] == victim {
			probes = append(probes, req)
		}
	}
	if len(probes) < 4 {
		t.Fatalf("only %d probe requests shard to the victim", len(probes))
	}

	// sendProbes posts the probe set once and returns how many answers
	// came from the shard-local cache, failing on any corrupt serve.
	sendProbes := func(stage string) int {
		t.Helper()
		cached := 0
		for i, req := range probes {
			resp, body := postJSON(t, lc.URL()+"/v1/predict", req)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s probe %d: status %d: %s", stage, i, resp.StatusCode, body)
			}
			var pr serve.PredictResponse
			if err := json.Unmarshal(body, &pr); err != nil {
				t.Fatalf("%s probe %d: bad body %s: %v", stage, i, body, err)
			}
			if pr.Model != "tree" || pr.Key == "" {
				t.Fatalf("%s probe %d: corrupt serve %+v", stage, i, pr)
			}
			if pr.Cached {
				cached++
			}
		}
		return cached
	}

	// Warm the victim's cache, then measure the pre-kill hit-rate.
	sendProbes("warmup")
	preHits := sendProbes("pre-kill")
	if preHits == 0 {
		t.Fatal("warmup produced no cache hits; the warm-restart floor would be vacuous")
	}
	// The periodic snapshot loop must persist the warm entries before the
	// power cut: wait for a snapshot taken after the warmup completed.
	warmSnaps := lc.Nodes[victimIdx].DurableStats().Snapshots
	waitFor(t, 3*time.Second, "a post-warmup cache snapshot on the victim", func() bool {
		return lc.Nodes[victimIdx].DurableStats().Snapshots > warmSnaps
	})

	// Storm, with the kill and the restart both landing mid-flight.
	const storm = 1400 * time.Millisecond
	var total, okCount, corrupt atomic.Uint64
	deadline := time.Now().Add(storm)
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := &http.Client{Timeout: 3 * time.Second}
			for i := w; time.Now().Before(deadline); i += 6 {
				data, _ := json.Marshal(clusterReq(i % 120))
				resp, err := client.Post(lc.URL()+"/v1/predict", "application/json",
					bytes.NewReader(data))
				total.Add(1)
				if err != nil {
					continue
				}
				if resp.StatusCode == http.StatusOK {
					var pr serve.PredictResponse
					if jerr := json.NewDecoder(resp.Body).Decode(&pr); jerr != nil || pr.Model != "tree" {
						corrupt.Add(1)
					} else {
						okCount.Add(1)
					}
				}
				resp.Body.Close()
			}
		}(w)
	}

	time.Sleep(storm / 4)
	lc.KillNode(victimIdx)
	time.Sleep(storm / 8)
	if err := lc.RestartNode(victimIdx); err != nil {
		t.Fatalf("restart: %v", err)
	}
	waitFor(t, 5*time.Second, "reborn node readmission", func() bool {
		p := rt.peers[victim]
		return p.State() == PeerLive && rt.Ring().Has(victim)
	})
	wg.Wait()

	if total.Load() < 200 {
		t.Fatalf("storm too small to be meaningful: %d requests", total.Load())
	}
	if corrupt.Load() != 0 {
		t.Fatalf("%d corrupt serves during the restart storm", corrupt.Load())
	}
	avail := float64(okCount.Load()) / float64(total.Load())
	t.Logf("restart storm: %d requests, availability %.4f, failovers=%d readmitted=%d",
		total.Load(), avail, rt.Metrics().Failovers.Load(), rt.Metrics().Readmitted.Load())
	if avail < 0.99 {
		t.Fatalf("availability %.4f below the 0.99 floor across kill+restart", avail)
	}
	if rt.Metrics().Readmitted.Load() == 0 {
		t.Fatal("the reborn node was never readmitted through half-open")
	}

	// The reborn node came back warm, not cold: the recovery ladder
	// restored cache entries, and the same probe set hits at least half
	// its pre-kill rate on the first post-restart pass.
	st := lc.Nodes[victimIdx].DurableStats()
	if !st.SnapshotRestored || st.CacheRestored == 0 {
		t.Fatalf("reborn node restored nothing: %+v", st)
	}
	if st.Quarantines != 0 {
		t.Fatalf("reborn node quarantined %d artifacts from a clean crash", st.Quarantines)
	}
	postHits := sendProbes("post-restart")
	t.Logf("warm restart: probe hits %d/%d pre-kill, %d/%d post-restart (restored %d entries)",
		preHits, len(probes), postHits, len(probes), st.CacheRestored)
	if 2*postHits < preHits {
		t.Fatalf("post-restart hit-rate %d/%d below half the pre-kill %d/%d",
			postHits, len(probes), preHits, len(probes))
	}
}
