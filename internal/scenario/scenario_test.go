// Package scenario builds cmd/heteromap, starts real `heteromap serve`
// nodes and routers on loopback ports, and drives them through seeded
// timelines of load, SIGKILLs, restarts, drains and fault storms,
// checking one set of invariants after every step. A failure prints the
// -run pattern that replays its timeline and seed. -short skips it.
package scenario

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"heteromap/internal/cluster"
	"heteromap/internal/fault"
	"heteromap/internal/feature"
	"heteromap/internal/machine"
	"heteromap/internal/obs"
	"heteromap/internal/online"
	"heteromap/internal/predict/dtree"
	"heteromap/internal/serve"
)

// timelines is the seed table: each row is one subtest,
// TestScenario/<timeline>/seed=<n>. The seed fixes the load mixes, the
// chaos injectors, the kill victim and the kill moment.
var timelines = []struct {
	name string
	seed int64
	run  func(h *harness)
}{
	{"node", 1, nodeTimeline},
	{"online", 3, onlineTimeline},
	{"crash", 7, crashTimeline},
	{"cluster", 11, clusterTimeline},
}

// probe is the fixed request every invariant pass sends to every live
// process; a decision-tree answer must equal the in-process tree's M.
var probe = serve.PredictRequest{Bench: "BFS", Vertices: 4000000, Edges: 90000000, MaxDegree: 5000, Diameter: 10}

func TestScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("builds cmd/heteromap and runs it as real processes")
	}
	bin := filepath.Join(t.TempDir(), "heteromap")
	build := exec.Command(filepath.Join(runtime.GOROOT(), "bin", "go"), "build", "-o", bin, "heteromap/cmd/heteromap")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build cmd/heteromap: %v\n%s", err, out)
	}
	pair := machine.PrimaryPair()
	tree, err := serve.NewRegistry(pair).Register("tree", "builtin decision tree", dtree.New(pair.Limits()))
	feat, ferr := serve.ResolveFeatures(&probe, feature.DiscretizationStep)
	if err != nil || ferr != nil {
		t.Fatal(err, ferr)
	}
	for _, tl := range timelines {
		t.Run(fmt.Sprintf("%s/seed=%d", tl.name, tl.seed), func(t *testing.T) {
			h := &harness{t: t, bin: bin, dir: t.TempDir(), seed: tl.seed,
				rng: rand.New(rand.NewSource(tl.seed)), want: tree.Select(feat)}
			t.Cleanup(h.stopAll)
			tl.run(h)
		})
	}
}

// nodeTimeline runs one node with its debug surface and the serve-path
// chaos injector armed: a profile, a bad reload and a chaos storm.
func nodeTimeline(h *harness) {
	debug := freeAddr(h.t)
	var n *proc
	h.step("start", func() {
		n = h.spawn("node", true, "-debug-addr", debug, "-chaos-serve", "-chaos-seed", fmt.Sprint(h.seed))
	})
	h.step("pprof", func() {
		if _, err := gzip.NewReader(bytes.NewReader(h.call("http://"+debug+"/debug/pprof/profile?seconds=1", nil, 200))); err != nil {
			h.fatalf("CPU profile from -debug-addr is not gzipped: %v", err)
		}
	})
	h.step("chaos-storm", func() {
		h.call(n.url("/v1/chaos"), map[string]float64{"corrupt_reload_rate": 1}, 200)
		h.call(n.url("/v1/reload"), map[string]string{"model": "tree", "path": "missing.hmdb"}, 422)
		n.quarantines++
		h.load(n, serve.LoadGenOptions{Duration: 3 * time.Second, Chaos: true}, nil)
		slow, rejected := h.metric(n, "heteromap_chaos_slow_model_total"), h.metric(n, "heteromap_reload_rejected_total")
		if slow == 0 || rejected != 1 {
			h.fatalf("storm injected %g slow models; %g reloads rejected, want the one bad reload", slow, rejected)
		}
	})
}

// onlineTimeline runs a learning node through a drift storm whose
// uncertain requests reach the probe and which ends in a promotion.
func onlineTimeline(h *harness) {
	var n *proc
	h.step("start", func() {
		n = h.spawn("node", true, "-online", "-shadow-dir", h.dir, "-drift-window", "4",
			"-drift-threshold", "0.25", "-uncertainty-floor", "0.3", "-retrain-min", "64")
	})
	h.step("drift", func() {
		// A retrain needs the signal still armed at a collector tick's
		// end, which one storm does not always leave; storm again, bounded.
		var snap online.Snapshot
		for storm := 1; snap.Promotions == 0; storm++ {
			if storm > 4 {
				h.fatalf("no shadow promotion after four drift storms: %+v", snap)
			}
			h.load(n, serve.LoadGenOptions{Duration: 3 * time.Second, DriftAfter: time.Second, Concurrency: 4, Drift: true}, nil)
			time.Sleep(time.Second) // the collector drains what is still pending
			h.decode(n.url("/v1/online"), nil, &snap)
		}
		n.observe(h)
		if snap.Processed == 0 || snap.Probes == 0 || len(snap.Families) == 0 || snap.Families[0].Signals == 0 || n.version < 2 {
			h.fatalf("after a promotion: registry_version %d, online snapshot %+v", n.version, snap)
		}
	})
}

// crashTimeline runs durable online nodes behind a router, SIGKILLs one
// mid-storm and restarts it on the same port and -durable-dir.
func crashTimeline(h *harness) {
	var nodes []*proc
	h.step("start", func() {
		nodes = h.cluster(func(i int) []string {
			return []string{"-online", "-durable-dir", filepath.Join(h.dir, fmt.Sprint("durable", i)), "-snapshot-interval", "200ms"}
		})
	})
	victim := nodes[h.rng.Intn(len(nodes))]
	h.step("kill-mid-storm", func() {
		h.load(h.router, serve.LoadGenOptions{Duration: 3 * time.Second, Concurrency: 4, Cluster: true}, func() {
			time.Sleep(time.Second + time.Duration(h.rng.Intn(1000))*time.Millisecond)
			victim.observe(h)
			victim.kill()
		})
	})
	h.step("restart", func() {
		// The restamp above the version floor and the readmitted cache
		// both come from the serve tier's -durable-dir state.
		preKill := victim.version
		h.start(victim)
		victim.observe(h)
		restored, quarantined := h.metric(victim, "heteromap_serve_cache_restored"), h.metric(victim, "heteromap_serve_durable_quarantines_total")
		if victim.version <= preKill || restored == 0 || quarantined > 0 {
			h.fatalf("restart: registry_version %d (pre-kill %d), %g cache entries restored, %g artifacts quarantined",
				victim.version, preKill, restored, quarantined)
		}
		h.waitPeer(victim, "live", 5*time.Second)
		h.load(h.router, serve.LoadGenOptions{Duration: 2 * time.Second, Concurrency: 4, Cluster: true}, nil)
	})
}

// clusterTimeline runs -cluster nodes behind a tracing, chaos-armed
// router whose SLO windows are sized to the run.
func clusterTimeline(h *harness) {
	var nodes []*proc
	h.step("start", func() {
		nodes = h.cluster(func(int) []string { return []string{"-cluster", "-trace-sample", "1"} },
			"-hedge-after", "15ms", "-chaos-serve", "-chaos-seed", fmt.Sprint(h.seed), "-trace-sample", "1",
			"-slo-availability", "0.999", "-slo-p99", "250ms", "-slo-fast-window", "1s", "-slo-slow-window", "4s")
	})
	victim := nodes[h.rng.Intn(len(nodes))]
	h.step("storm-kill", func() {
		h.load(h.router, serve.LoadGenOptions{Duration: 4 * time.Second, Cluster: true, Chaos: true}, func() {
			time.Sleep(time.Second + time.Duration(h.rng.Intn(1000))*time.Millisecond)
			victim.kill()
		})
		h.waitPeer(victim, "dead", 5*time.Second)
		h.waitLive()
	})
	h.step("routed-trace", func() {
		// The answering node adopted the router's trace id, so both
		// processes' spans stitch into one timeline; only the killed
		// peer may be a gap.
		var pr serve.PredictResponse
		var tl obs.StitchedTimeline
		h.decode(h.router.url("/v1/predict"), probe, &pr)
		h.decode(h.router.url("/v1/trace/"+pr.TraceID), nil, &tl)
		if len(tl.Nodes) < 2 || len(tl.Gaps) > 1 || len(tl.Gaps) == 1 && tl.Gaps[0].Node != victim.addr {
			h.fatalf("routed trace is not one timeline over the router and a node, gapped at most at %s: %+v", victim.addr, tl)
		}
	})
	h.step("slo-storm", func() {
		h.call(h.router.url("/v1/chaos"), map[string]float64{"node_kill_rate": 0.6}, 200)
		h.waitFor(10*time.Second, "the burn-rate alert", func() bool {
			for i := 0; i < 20; i++ {
				h.call(h.router.url("/v1/predict"), probe, 0)
			}
			return h.sloAlert()
		})
		h.call(h.router.url("/v1/chaos"), map[string]float64{}, 200)
		h.waitLive() // once the synthetic kills' breaker trips heal
	})
	h.step("slo-clear", func() {
		// Clean load longer than the 1s fast window clears the alert.
		h.load(h.router, serve.LoadGenOptions{Duration: 2 * time.Second, Concurrency: 4, Cluster: true}, nil)
		if h.sloAlert() {
			h.fatalf("burn-rate alert still firing after the storm")
		}
	})
	h.step("drain", func() {
		p := nodes[(slices.Index(nodes, victim)+1)%len(nodes)]
		p.cmd.Process.Signal(syscall.SIGTERM)            // an error means p exited; waitPeer reports it
		h.waitPeer(p, "draining", 1500*time.Millisecond) // inside the 2s -drain-grace
		if res := h.load(h.router, serve.LoadGenOptions{Duration: time.Second, Concurrency: 4, Cluster: true}, nil); res.Errors > 0 {
			h.fatalf("load during the drain saw errors:\n%s", res)
		}
		<-p.exited // after the grace window; runServe bounds its shutdown at 10s
		if p.down = true; p.waitErr != nil {
			h.fatalf("%s exited after its drain with %v", p.name, p.waitErr)
		}
	})
}

// harness runs one timeline at one seed.
type harness struct {
	t        *testing.T
	bin, dir string
	seed     int64
	rng      *rand.Rand
	want     fault.Selection // the in-process decision tree's answer to probe
	stepName string
	procs    []*proc
	router   *proc // nil unless the timeline runs a cluster
}

// proc is one `heteromap serve` process and what the invariants have
// seen of it so far.
type proc struct {
	name, addr   string
	node, online bool // a serve node (not a router); one run with -online
	args         []string
	cmd          *exec.Cmd
	exited       chan struct{} // closed once cmd.Wait returns
	waitErr      error
	down         bool   // killed or drained by the timeline
	version      uint64 // highest registry_version seen
	processed    uint64 // highest online processed count seen
	quarantines  int    // bad reloads the timeline injected
}

func (p *proc) url(path string) string { return "http://" + p.addr + path }

func (h *harness) fatalf(format string, args ...any) {
	h.t.Helper()
	h.t.Fatalf("%s, step %s: %s\nreplay: go test -run '%s' ./internal/scenario/",
		h.t.Name(), h.stepName, fmt.Sprintf(format, args...), h.t.Name())
}

// step runs one step of the timeline, then checks every invariant.
func (h *harness) step(name string, do func()) {
	h.t.Helper()
	h.stepName = name
	do()
	for _, p := range h.procs {
		if p.down {
			continue
		}
		if h.call(p.url("/healthz"), nil, 200); p.node {
			p.observe(h)
		}
		var pr serve.PredictResponse
		h.decode(p.url("/v1/predict"), probe, &pr)
		tree := pr.PredictorUsed == h.want.Used
		if tree && pr.M != h.want.M || !tree && !p.online {
			h.fatalf("%s answered the probe with %v from %q; the decision tree picks %v", p.name, pr.M, pr.PredictorUsed, h.want.M)
		}
	}
	if h.router != nil {
		h.checkFederation()
	}
}

// observe holds p's registry_version and online processed count
// monotone, and its quarantine count to the bad reloads injected.
func (p *proc) observe(h *harness) {
	var hz struct {
		Version     uint64 `json:"registry_version"`
		Quarantined int
	}
	var snap online.Snapshot
	h.decode(p.url("/healthz"), nil, &hz)
	if p.online {
		h.decode(p.url("/v1/online"), nil, &snap)
	}
	if hz.Version < p.version || snap.Processed < p.processed || hz.Quarantined != p.quarantines {
		h.fatalf("%s: registry_version %d -> %d, online processed %d -> %d, quarantined %d (want %d)",
			p.name, p.version, hz.Version, p.processed, snap.Processed, hz.Quarantined, p.quarantines)
	}
	p.version, p.processed = hz.Version, snap.Processed
}

// checkFederation holds /metrics/cluster to its merge rules: every
// summed counter or histogram series equals the sum of its node-labelled
// series, and every node has one stale marker, set exactly when down.
func (h *harness) checkFederation() {
	fams, err := obs.ParseText(string(h.call(h.router.url("/metrics/cluster"), nil, 200)))
	if err != nil {
		h.fatalf("/metrics/cluster: %v", err)
	}
	for _, f := range fams {
		// residual: each series' cluster sum minus its node series.
		byNode, residual := map[string][]float64{}, map[string]float64{}
		for _, s := range f.Samples {
			node, labels := s.Label("node"), s.Labels
			if node != "" {
				labels = labels[1:] // federation puts the node label first
			}
			key := fmt.Sprint(s.Name, labels)
			byNode[node] = append(byNode[node], s.Value)
			if node == "" {
				residual[key] += s.Value
			} else {
				residual[key] -= s.Value
			}
		}
		for key, r := range residual {
			if (f.Type == "counter" || f.Type == "histogram") && math.Abs(r) > 1e-6 {
				h.fatalf("/metrics/cluster %s: cluster sum minus node series is %g", key, r)
			}
		}
		for _, p := range h.procs {
			if m := byNode[p.addr]; f.Name == "heteromap_federation_stale" && p.node && (len(m) != 1 || (m[0] == 1) != p.down) {
				h.fatalf("%s (down %v) has stale markers %v", p.name, p.down, m)
			}
		}
	}
}

// spawn starts a `heteromap serve` process on a free loopback port.
func (h *harness) spawn(name string, node bool, args ...string) *proc {
	p := &proc{name: name, addr: freeAddr(h.t), node: node, online: slices.Contains(args, "-online"), args: args}
	h.procs = append(h.procs, p)
	h.start(p)
	return p
}

// cluster starts three nodes, node i with nodeArgs(i), and h.router
// over them with routerArgs, and waits until it sees every node live.
func (h *harness) cluster(nodeArgs func(i int) []string, routerArgs ...string) []*proc {
	var nodes []*proc
	var addrs []string
	for i := 0; i < 3; i++ {
		nodes = append(nodes, h.spawn(fmt.Sprint("node", i), true, nodeArgs(i)...))
		addrs = append(addrs, nodes[i].addr)
	}
	h.router = h.spawn("router", false, append([]string{"-peers", strings.Join(addrs, ","), "-probe-interval", "100ms"}, routerArgs...)...)
	h.waitLive()
	return nodes
}

// waitLive waits until the router sees every node that is up as live.
func (h *harness) waitLive() {
	for _, p := range h.procs {
		if p.node && !p.down {
			h.waitPeer(p, "live", 5*time.Second)
		}
	}
}

// start (re)starts p's process on its address with its arguments,
// appending its output to <dir>/<name>.log, and waits until it listens.
func (h *harness) start(p *proc) {
	logf, err := os.OpenFile(filepath.Join(h.dir, p.name+".log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		h.fatalf("%v", err)
	}
	defer logf.Close()
	cmd := exec.Command(h.bin, append([]string{"serve", "-addr", p.addr}, p.args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		h.fatalf("start %s: %v", p.name, err)
	}
	exited := make(chan struct{})
	p.cmd, p.exited, p.down = cmd, exited, false
	go func() {
		p.waitErr = cmd.Wait()
		close(exited)
	}()
	h.waitFor(10*time.Second, p.name+" to listen", func() bool {
		select {
		case <-p.exited:
			h.fatalf("%s exited during start-up: %v", p.name, p.waitErr)
		default:
		}
		c, err := net.Dial("tcp", p.addr)
		if err == nil {
			c.Close()
		}
		return err == nil
	})
}

// kill SIGKILLs p and waits for it to exit.
func (p *proc) kill() {
	if p.cmd != nil { // nil when its first start failed
		p.cmd.Process.Kill() // an error means p has already exited
		<-p.exited
	}
	p.down = true
}

// stopAll kills every process still running and, when the test failed,
// logs the tail of each process's output.
func (h *harness) stopAll() {
	for _, p := range h.procs {
		p.kill()
		if h.t.Failed() {
			out, _ := os.ReadFile(filepath.Join(h.dir, p.name+".log"))
			h.t.Logf("%s output (tail):\n%s", p.name, out[max(0, len(out)-2000):])
		}
	}
}

// waitPeer waits until the router's /v1/cluster lists p in state, and
// on the ring with a closed breaker exactly when live.
func (h *harness) waitPeer(p *proc, state string, within time.Duration) {
	h.waitFor(within, fmt.Sprintf("router to see %s %s", p.name, state), func() bool {
		var view struct{ Peers []cluster.PeerInfo }
		h.decode(h.router.url("/v1/cluster"), nil, &view)
		for _, pi := range view.Peers {
			if pi.Addr == p.addr {
				routable := pi.OnRing && pi.Breaker == "closed"
				return pi.State == state && routable == (state == "live")
			}
		}
		return false
	})
}

// load runs the load generator against p, its mix drawn from the
// timeline's seeded rng, calls during (when set) while the run is in
// flight, and holds the run to the 0.99 availability floor.
func (h *harness) load(p *proc, o serve.LoadGenOptions, during func()) (res serve.LoadGenResult) {
	o.URL, o.Seed = p.url(""), h.rng.Int63()
	var err error
	done := make(chan struct{})
	go func() {
		defer close(done)
		res, err = serve.RunLoadGen(o)
	}()
	if during != nil {
		during()
	}
	<-done
	if err != nil || res.Requests == 0 || res.Availability < 0.99 {
		h.fatalf("load on %s (err %v):\n%s", p.name, err, res)
	}
	return res
}

// sloAlert reports the router's availability burn-rate alert.
func (h *harness) sloAlert() bool {
	var snap obs.SLOSnapshot
	h.decode(h.router.url("/v1/slo"), nil, &snap)
	return snap.Objectives[0].AlertActive // availability is listed first
}

// metric reads the first sample of family name on p's /metrics page.
func (h *harness) metric(p *proc, name string) float64 {
	fams, err := obs.ParseText(string(h.call(p.url("/metrics"), nil, 200)))
	for _, f := range fams {
		if f.Name == name && len(f.Samples) > 0 {
			return f.Samples[0].Value
		}
	}
	h.fatalf("%s /metrics has no %s (parse error %v)", p.name, name, err)
	return 0
}

func (h *harness) waitFor(within time.Duration, what string, cond func() bool) {
	for deadline := time.Now().Add(within); !cond(); time.Sleep(50 * time.Millisecond) {
		if time.Now().After(deadline) {
			h.fatalf("timed out after %v waiting for %s", within, what)
		}
	}
}

// call GETs url, or POSTs body to it as JSON when body is not nil, and
// fails the timeline unless the answer has status want. want 0 takes
// any answer, and any transport error.
func (h *harness) call(url string, body any, want int) []byte {
	h.t.Helper()
	client := &http.Client{Timeout: 10 * time.Second}
	var resp *http.Response
	var err error
	if body == nil {
		resp, err = client.Get(url)
	} else {
		b, _ := json.Marshal(body) // the fixed request shapes always marshal
		resp, err = client.Post(url, "application/json", bytes.NewReader(b))
	}
	status, data := 0, []byte(nil)
	if err == nil {
		status = resp.StatusCode
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	if want != 0 && (err != nil || status != want) {
		h.fatalf("%s: status %d, err %v, want %d: %s", url, status, err, want, data)
	}
	return data
}

// decode is call for a 200 whose JSON body fills v.
func (h *harness) decode(url string, body, v any) {
	h.t.Helper()
	if err := json.Unmarshal(h.call(url, body, 200), v); err != nil {
		h.fatalf("%s: %v", url, err)
	}
}

// freeAddr returns a loopback address whose port was free a moment ago.
func freeAddr(t *testing.T) string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}
