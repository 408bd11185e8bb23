package cluster

import (
	"sync"
	"sync/atomic"

	"heteromap/internal/obs"
)

// RouterMetrics counts the router's routing decisions. Counters are
// monotonic and lock-free; the exposition format mirrors the serve
// node's (Prometheus text, heteromap_router_* namespace) so the same
// scrape pipeline covers both tiers.
type RouterMetrics struct {
	// Requests is client requests accepted for routing (batch items
	// count individually).
	Requests atomic.Uint64
	// Forwards is attempts dispatched to peers (includes hedges,
	// failovers and chaos-killed attempts).
	Forwards atomic.Uint64
	// Failovers is requests answered by a non-primary rung of the
	// ladder after the primary failed hard or shed.
	Failovers atomic.Uint64
	// Hedges is hedge attempts launched against a slow primary.
	Hedges atomic.Uint64
	// HedgeWins is hedges whose answer was served.
	HedgeWins atomic.Uint64
	// HedgeVersionSkips is hedges suppressed because the replica's last
	// observed model version differed from (or was unknown relative to)
	// the primary's — the rolling-reload safety gate engaging.
	HedgeVersionSkips atomic.Uint64
	// HedgeMixedDiscards is hedge answers thrown away post hoc because
	// the actual answering version differed from the expected one.
	HedgeMixedDiscards atomic.Uint64
	// NoReplica is requests refused because no live peer owned the
	// shard.
	NoReplica atomic.Uint64
	// PeerErrors is hard peer failures (transport error or non-shed
	// 5xx) fed to breakers.
	PeerErrors atomic.Uint64
	// HTTPErrors is >=400 responses the router returned to clients.
	HTTPErrors atomic.Uint64
	// Deregistered / Readmitted count ring membership transitions.
	Deregistered atomic.Uint64
	Readmitted   atomic.Uint64
	// Chaos* count injected forwarding-layer faults.
	ChaosNodeKills  atomic.Uint64
	ChaosPartitions atomic.Uint64
	ChaosSlowPeers  atomic.Uint64

	// RouteLatency is end-to-end routed-request latency (same bucket
	// layout as the serve node's histograms).
	RouteLatency *obs.Histogram

	mu     sync.Mutex
	events []string // recent membership events, newest last
}

// NewRouterMetrics builds an empty metrics set.
func NewRouterMetrics() *RouterMetrics {
	return &RouterMetrics{RouteLatency: obs.NewHistogram()}
}

// maxEvents bounds the membership event log kept for /v1/cluster.
const maxEvents = 32

func (m *RouterMetrics) noteEvent(e string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.events = append(m.events, e)
	if len(m.events) > maxEvents {
		m.events = m.events[len(m.events)-maxEvents:]
	}
}

// Events returns the recent membership events, oldest first.
func (m *RouterMetrics) Events() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, len(m.events))
	copy(out, m.events)
	return out
}

// Families returns the router's /metrics families, including a
// per-peer state gauge (0 live, 1 draining, 2 dead) and ring-membership
// gauge derived from the given peer snapshot.
func (m *RouterMetrics) Families(peers []PeerInfo) []obs.Family {
	fams := []obs.Family{
		obs.Counter("heteromap_router_requests_total", "Client requests accepted for routing.", m.Requests.Load()),
		obs.Counter("heteromap_router_forwards_total", "Attempts dispatched to peers.", m.Forwards.Load()),
		obs.Counter("heteromap_router_failovers_total", "Requests answered by a failover replica.", m.Failovers.Load()),
		obs.Counter("heteromap_router_hedges_total", "Hedge attempts launched.", m.Hedges.Load()),
		obs.Counter("heteromap_router_hedge_wins_total", "Hedge answers served.", m.HedgeWins.Load()),
		obs.Counter("heteromap_router_hedge_version_skips_total", "Hedges suppressed by the version gate.", m.HedgeVersionSkips.Load()),
		obs.Counter("heteromap_router_hedge_mixed_discards_total", "Hedge answers discarded for version mismatch.", m.HedgeMixedDiscards.Load()),
		obs.Counter("heteromap_router_no_replica_total", "Requests refused with no live replica.", m.NoReplica.Load()),
		obs.Counter("heteromap_router_peer_errors_total", "Hard peer failures fed to breakers.", m.PeerErrors.Load()),
		obs.Counter("heteromap_router_http_errors_total", "Error responses returned to clients.", m.HTTPErrors.Load()),
		obs.Counter("heteromap_router_deregistered_total", "Peers taken off the ring.", m.Deregistered.Load()),
		obs.Counter("heteromap_router_readmitted_total", "Peers readmitted to the ring.", m.Readmitted.Load()),
		obs.Counter("heteromap_router_chaos_node_kills_total", "Chaos-injected dead-node attempts.", m.ChaosNodeKills.Load()),
		obs.Counter("heteromap_router_chaos_partitions_total", "Chaos-injected partitioned attempts.", m.ChaosPartitions.Load()),
		obs.Counter("heteromap_router_chaos_slow_peers_total", "Chaos-injected slow-link attempts.", m.ChaosSlowPeers.Load()),
	}
	state := obs.Family{Name: "heteromap_router_peer_state", Help: "Peer lifecycle state (0 live, 1 draining, 2 dead).", Type: "gauge"}
	onRing := obs.Family{Name: "heteromap_router_peer_on_ring", Help: "Whether the peer currently owns ring keyspace.", Type: "gauge"}
	for _, p := range peers {
		var code int64
		switch p.State {
		case PeerDraining.String():
			code = 1
		case PeerDead.String():
			code = 2
		}
		peer := obs.Label{Name: "peer", Value: p.Addr}
		state.Int(code, peer)
		onRing.Bool(p.OnRing, peer)
	}
	latency := obs.Family{Name: "heteromap_router_route_latency_seconds", Help: "End-to-end routed-request latency.", Type: "histogram"}
	latency.Histogram(m.RouteLatency)
	return append(fams, state, onRing, latency)
}
