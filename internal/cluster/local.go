package cluster

import (
	"context"
	"fmt"
	"net"
	"time"

	"heteromap/internal/fault"
	"heteromap/internal/machine"
	"heteromap/internal/predict/dtree"
	"heteromap/internal/serve"
)

// LocalOptions size an in-process cluster (see StartLocal).
type LocalOptions struct {
	// Nodes is the serve-node count (3).
	Nodes int
	// Replicas is the per-shard replica-group size (2).
	Replicas int
	// ProbeInterval is the router's health-probe cadence (50ms — local
	// clusters exist to exercise failover fast).
	ProbeInterval time.Duration
	// HedgeAfter is the router's hedge threshold (25ms).
	HedgeAfter time.Duration
	// Seed seeds the chaos injectors when Chaos is set (42).
	Seed int64
	// Chaos arms fault injectors on the router (forwarding-layer
	// profiles) and every node (serve-path profiles).
	Chaos bool
	// NodeOptions, when set, adapts each node's serve options before the
	// node starts (the addr and chaos injector are already filled in).
	NodeOptions func(i int, opts serve.Options) serve.Options
	// RouterOptions, when set, adapts the router's options before it
	// starts (peers and chaos injector are already filled in) — how
	// tests install a keep-everything tracer or a tight SLO.
	RouterOptions func(opts RouterOptions) RouterOptions
}

func (o LocalOptions) withDefaults() LocalOptions {
	if o.Nodes <= 0 {
		o.Nodes = 3
	}
	if o.Replicas <= 0 {
		o.Replicas = 2
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = 50 * time.Millisecond
	}
	if o.HedgeAfter <= 0 {
		o.HedgeAfter = 25 * time.Millisecond
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	return o
}

// Local is an in-process cluster: N serve nodes on ephemeral ports
// behind one router, each node carrying the builtin decision-tree model.
// It backs the cluster tests and `loadtest -cluster`, and doubles as the
// kill -9 stand-in: KillNode closes a node's listener and connections
// without any drain, exactly what the chaos harness needs.
type Local struct {
	Router *Router
	Nodes  []*serve.Server

	// Per-node base options and bound addresses, recorded at StartLocal
	// so RestartNode can bring a killed node back as the same node: same
	// address (the prober readmits it through half-open), same durable
	// directory (the recovery ladder warms it back up).
	nodeOpts  []serve.Options
	nodeAddrs []string
}

// startNode starts a serve node with the builtin decision-tree model.
// A node with a durable directory runs the recovery ladder before its
// listener accepts traffic, so the first probe already sees the warmed
// cache.
func startNode(opts serve.Options) (*serve.Server, error) {
	srv := serve.New(opts)
	pair := machine.PrimaryPair()
	if _, err := srv.Registry().Register("tree", "builtin decision tree", dtree.New(pair.Limits())); err != nil {
		return nil, err
	}
	if opts.DurableDir != "" {
		srv.RecoverDurable()
	}
	if err := listenAndWait(srv.Start, srv.Addr); err != nil {
		srv.Kill() // stops the snapshot loop RecoverDurable started
		return nil, fmt.Errorf("cluster: node: %w", err)
	}
	return srv, nil
}

// listenAndWait runs start (a blocking Start) in the background and
// waits until addr accepts connections. Before the bind, addr reports
// the configured address; an ephemeral ":0" accepts none.
func listenAndWait(start func() error, addr func() string) error {
	errCh := make(chan error, 1)
	go func() { errCh <- start() }()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case err := <-errCh:
			return fmt.Errorf("failed to start: %w", err)
		default:
		}
		if c, err := net.Dial("tcp", addr()); err == nil {
			c.Close()
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("did not bind %s within 2s", addr())
}

// StartLocal boots an in-process cluster and blocks until every node and
// the router are listening. Callers own Stop.
func StartLocal(opts LocalOptions) (*Local, error) {
	opts = opts.withDefaults()
	lc := &Local{}
	for i := 0; i < opts.Nodes; i++ {
		sopts := serve.Options{Addr: "127.0.0.1:0"}
		if opts.Chaos {
			sopts.Chaos = fault.NewServeInjector(opts.Seed + int64(i))
		}
		if opts.NodeOptions != nil {
			sopts = opts.NodeOptions(i, sopts)
		}
		srv, err := startNode(sopts)
		if err != nil {
			lc.Stop()
			return nil, err
		}
		lc.Nodes = append(lc.Nodes, srv)
		lc.nodeOpts = append(lc.nodeOpts, sopts)
		lc.nodeAddrs = append(lc.nodeAddrs, srv.Addr())
	}

	ropts := RouterOptions{
		Addr:          "127.0.0.1:0",
		Peers:         lc.nodeAddrs,
		Replicas:      opts.Replicas,
		ProbeInterval: opts.ProbeInterval,
		HedgeAfter:    opts.HedgeAfter,
	}
	if opts.Chaos {
		ropts.Chaos = fault.NewServeInjector(opts.Seed - 1)
	}
	if opts.RouterOptions != nil {
		ropts = opts.RouterOptions(ropts)
	}
	rt, err := NewRouter(ropts)
	if err != nil {
		lc.Stop()
		return nil, err
	}
	lc.Router = rt
	if err := listenAndWait(rt.Start, rt.Addr); err != nil {
		lc.Stop()
		return nil, fmt.Errorf("cluster: router: %w", err)
	}
	return lc, nil
}

// URL returns the router's base URL.
func (lc *Local) URL() string { return "http://" + lc.Router.Addr() }

// NodeAddr returns node i's listen address.
func (lc *Local) NodeAddr(i int) string { return lc.Nodes[i].Addr() }

// KillNode hard-kills node i: listener and live connections close
// immediately, with no drain — the in-process kill -9.
func (lc *Local) KillNode(i int) { lc.Nodes[i].Kill() }

// RestartNode replaces a killed node i with a fresh server on the same
// address and the same base options, so the router's half-open prober
// readmits it as the node it knew. A node started with a durable
// directory comes back through the recovery ladder — cache warmed,
// registry version floor raised — before the listener accepts traffic.
// The freed port can linger briefly after a hard kill, so the bind is
// retried for a short window.
func (lc *Local) RestartNode(i int) error {
	if i < 0 || i >= len(lc.Nodes) {
		return fmt.Errorf("cluster: no node %d", i)
	}
	opts := lc.nodeOpts[i]
	opts.Addr = lc.nodeAddrs[i]
	var srv *serve.Server
	var err error
	deadline := time.Now().Add(3 * time.Second)
	for {
		srv, err = startNode(opts)
		if err == nil || time.Now().After(deadline) {
			break
		}
		time.Sleep(25 * time.Millisecond)
	}
	if err != nil {
		return fmt.Errorf("cluster: restart node %d: %w", i, err)
	}
	lc.Nodes[i] = srv
	return nil
}

// DrainNode starts a graceful drain on node i: its /healthz flips to
// draining so the router deregisters it, while in-flight (and
// detection-window) requests keep succeeding. Call ShutdownNode once the
// router has moved on.
func (lc *Local) DrainNode(i int) { lc.Nodes[i].BeginDrain() }

// ShutdownNode gracefully stops node i.
func (lc *Local) ShutdownNode(ctx context.Context, i int) error {
	return lc.Nodes[i].Shutdown(ctx)
}

// Stop tears the cluster down, router first.
func (lc *Local) Stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if lc.Router != nil {
		lc.Router.Shutdown(ctx)
	}
	for _, n := range lc.Nodes {
		n.Shutdown(ctx)
	}
}
