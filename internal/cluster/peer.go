package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"heteromap/internal/fault"
	"heteromap/internal/serve"
)

// PeerState is a peer's position in the router's failover ladder.
type PeerState int32

const (
	// PeerLive: on the ring, receiving traffic.
	PeerLive PeerState = iota
	// PeerDraining: announced a planned shutdown via /healthz; off the
	// ring (no new traffic) but still answering in-flight requests.
	PeerDraining
	// PeerDead: deregistered after sustained breaker-open or a failed
	// probe ladder; off the ring until a health probe readmits it.
	PeerDead
)

// String implements fmt.Stringer.
func (s PeerState) String() string {
	switch s {
	case PeerLive:
		return "live"
	case PeerDraining:
		return "draining"
	case PeerDead:
		return "dead"
	}
	return fmt.Sprintf("PeerState(%d)", int32(s))
}

// Peer is one serve node as the router sees it: its address, a circuit
// breaker fed by forwarded-request outcomes (the existing fault.Breaker,
// reused per *peer* rather than per model version), its lifecycle state
// and the model registry version it last reported. All fields are safe
// for concurrent use.
type Peer struct {
	Addr string

	breaker *fault.Breaker
	state   atomic.Int32
	// version is the peer's last observed default-model registry
	// version, learned from predict response headers and health probes.
	// 0 means "not yet observed" and disables hedging toward the peer —
	// a hedge must never be launched blind on version identity.
	version atomic.Uint64
}

func newPeer(addr string, threshold, cooldown int) *Peer {
	return &Peer{Addr: addr, breaker: fault.NewBreaker(threshold, cooldown)}
}

// State returns the peer's lifecycle state.
func (p *Peer) State() PeerState { return PeerState(p.state.Load()) }

func (p *Peer) setState(s PeerState) { p.state.Store(int32(s)) }

// Version returns the peer's last observed registry version (0: never
// observed).
func (p *Peer) Version() uint64 { return p.version.Load() }

// observeVersion records a version seen on a response or probe.
func (p *Peer) observeVersion(v uint64) {
	if v > 0 {
		p.version.Store(v)
	}
}

// PeerInfo is the /v1/cluster wire representation of one peer.
type PeerInfo struct {
	Addr    string `json:"addr"`
	State   string `json:"state"`
	Breaker string `json:"breaker"`
	Version uint64 `json:"version"`
	OnRing  bool   `json:"on_ring"`
}

// healthzView is the slice of a node's /healthz body the prober reads.
type healthzView struct {
	Status          string `json:"status"`
	RegistryVersion uint64 `json:"registry_version"`
}

// probe performs one health check against a peer and classifies the
// outcome: ok (healthy), draining (planned shutdown announced), or an
// error (unreachable or unhealthy).
func probe(client *http.Client, addr string) (healthzView, error) {
	resp, err := client.Get("http://" + addr + "/healthz")
	if err != nil {
		return healthzView{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return healthzView{}, fmt.Errorf("cluster: %s /healthz returned %d", addr, resp.StatusCode)
	}
	var hv healthzView
	if err := json.NewDecoder(resp.Body).Decode(&hv); err != nil {
		return healthzView{}, fmt.Errorf("cluster: %s /healthz: %w", addr, err)
	}
	if hv.RegistryVersion == 0 {
		// Fall back to the version header for nodes that answer healthz
		// through a proxy that strips unknown JSON fields.
		if v := resp.Header.Get(serve.VersionHeader); v != "" {
			fmt.Sscanf(v, "%d", &hv.RegistryVersion)
		}
	}
	return hv, nil
}

// probeTimeout bounds one health check; probes must stay cheap enough to
// run every ProbeInterval against every peer.
const probeTimeout = time.Second
