package fault

import (
	"fmt"
	"hash/fnv"
	"sync/atomic"
	"time"
)

// ServeProfile describes the serve-path failure modes the serving chaos
// harness can inject, mirroring what takes real prediction services
// down: a pathologically slow model, a corrupt model snapshot arriving
// through reload, and admission saturation. The zero value injects
// nothing.
type ServeProfile struct {
	// SlowModelRate is the per-inference probability that the model
	// stalls for SlowModelDelay before answering.
	SlowModelRate  float64
	SlowModelDelay time.Duration
	// CorruptReloadRate is the per-reload probability that the candidate
	// snapshot is treated as corrupt and must be rejected.
	CorruptReloadRate float64
	// QueueRejectRate is the per-miss probability that admission behaves
	// as if every slot were taken.
	QueueRejectRate float64

	// Cluster fault modes, injected at the router's forwarding layer
	// rather than inside one node. SlowPeerRate is the per-forward
	// probability that the network path to the target peer adds
	// SlowPeerDelay before the request goes out (a congested or
	// throttled link); PeerPartitionRate the per-forward probability
	// that the request blackholes — it hangs until the caller's
	// deadline, the signature of a network partition; NodeKillRate the
	// per-forward probability that the target behaves dead and the
	// connection is refused immediately, the signature of a crashed
	// process.
	SlowPeerRate      float64
	SlowPeerDelay     time.Duration
	PeerPartitionRate float64
	NodeKillRate      float64
}

// Active reports whether the profile injects any serve fault at all.
func (p ServeProfile) Active() bool {
	return p.SlowModelRate > 0 || p.CorruptReloadRate > 0 || p.QueueRejectRate > 0 ||
		p.SlowPeerRate > 0 || p.PeerPartitionRate > 0 || p.NodeKillRate > 0
}

// String implements fmt.Stringer.
func (p ServeProfile) String() string {
	s := fmt.Sprintf("slow=%.2f@%v corrupt-reload=%.2f queue-reject=%.2f",
		p.SlowModelRate, p.SlowModelDelay, p.CorruptReloadRate, p.QueueRejectRate)
	if p.SlowPeerRate > 0 || p.PeerPartitionRate > 0 || p.NodeKillRate > 0 {
		s += fmt.Sprintf(" slow-peer=%.2f@%v partition=%.2f node-kill=%.2f",
			p.SlowPeerRate, p.SlowPeerDelay, p.PeerPartitionRate, p.NodeKillRate)
	}
	return s
}

// serve-injection draw kinds, also the per-kind sequence-counter index.
// Index 1 is unused, so every kind keeps the fault schedule its seed has
// always produced.
const (
	serveKindSlowModel = iota
	_
	serveKindCorruptReload
	serveKindQueueReject
	serveKindSlowPeer
	serveKindPeerPartition
	serveKindNodeKill
	numServeKinds
)

// ServeInjector injects ServeProfile faults into the serving pipeline.
// Like Injector, every decision is a deterministic hash — here of
// (seed, fault kind, per-kind draw sequence number) — so a seeded run
// replays the same fault schedule. Unlike Injector, the profile is
// swappable mid-run (chaos loadgen flips modes while traffic flows), so
// it lives behind an atomic pointer. A nil *ServeInjector is valid and
// injects nothing.
type ServeInjector struct {
	seed    int64
	profile atomic.Pointer[ServeProfile]
	seq     [numServeKinds]atomic.Uint64
}

// NewServeInjector returns an injector with an empty profile; the seed
// fixes every future fault decision.
func NewServeInjector(seed int64) *ServeInjector {
	in := &ServeInjector{seed: seed}
	in.profile.Store(&ServeProfile{})
	return in
}

// SetServeProfile swaps the active profile; in-flight draws see either
// the old or the new profile, never a mix.
func (in *ServeInjector) SetServeProfile(p ServeProfile) {
	if in == nil {
		return
	}
	in.profile.Store(&p)
}

// ServeProfile returns the active profile.
func (in *ServeInjector) ServeProfile() ServeProfile {
	if in == nil {
		return ServeProfile{}
	}
	return *in.profile.Load()
}

// Enabled reports whether the injector currently injects anything.
func (in *ServeInjector) Enabled() bool {
	return in != nil && in.ServeProfile().Active()
}

// draw consumes the kind's next sequence number and returns the
// deterministic uniform value in [0,1) for it.
func (in *ServeInjector) draw(kind int) float64 {
	n := in.seq[kind].Add(1)
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|serve|%d|%d", in.seed, kind, n)
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}

// SlowModel decides whether the next inference stalls, and for how long.
func (in *ServeInjector) SlowModel() (time.Duration, bool) {
	if in == nil {
		return 0, false
	}
	p := in.ServeProfile()
	if p.SlowModelRate <= 0 || p.SlowModelDelay <= 0 {
		return 0, false
	}
	if in.draw(serveKindSlowModel) < p.SlowModelRate {
		return p.SlowModelDelay, true
	}
	return 0, false
}

// CorruptReload decides whether the next reload's candidate snapshot is
// treated as corrupt.
func (in *ServeInjector) CorruptReload() bool {
	if in == nil {
		return false
	}
	p := in.ServeProfile()
	return p.CorruptReloadRate > 0 && in.draw(serveKindCorruptReload) < p.CorruptReloadRate
}

// RejectQueue decides whether the next submission is shed as if the
// queue were saturated.
func (in *ServeInjector) RejectQueue() bool {
	if in == nil {
		return false
	}
	p := in.ServeProfile()
	return p.QueueRejectRate > 0 && in.draw(serveKindQueueReject) < p.QueueRejectRate
}

// SlowPeer decides whether the next forwarded request's network path
// stalls, and for how long.
func (in *ServeInjector) SlowPeer() (time.Duration, bool) {
	if in == nil {
		return 0, false
	}
	p := in.ServeProfile()
	if p.SlowPeerRate <= 0 || p.SlowPeerDelay <= 0 {
		return 0, false
	}
	if in.draw(serveKindSlowPeer) < p.SlowPeerRate {
		return p.SlowPeerDelay, true
	}
	return 0, false
}

// PartitionPeer decides whether the next forwarded request blackholes:
// it hangs until the caller's deadline instead of ever reaching the peer.
func (in *ServeInjector) PartitionPeer() bool {
	if in == nil {
		return false
	}
	p := in.ServeProfile()
	return p.PeerPartitionRate > 0 && in.draw(serveKindPeerPartition) < p.PeerPartitionRate
}

// KillNode decides whether the next forwarded request finds the target
// dead: the connection is refused immediately, as to a crashed process.
func (in *ServeInjector) KillNode() bool {
	if in == nil {
		return false
	}
	p := in.ServeProfile()
	return p.NodeKillRate > 0 && in.draw(serveKindNodeKill) < p.NodeKillRate
}
