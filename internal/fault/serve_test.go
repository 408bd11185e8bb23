package fault

import (
	"testing"
	"time"
)

func TestServeProfileActive(t *testing.T) {
	if (ServeProfile{}).Active() {
		t.Fatal("zero profile active")
	}
	if !(ServeProfile{SlowModelRate: 0.3, SlowModelDelay: time.Millisecond}).Active() {
		t.Fatal("slow-model profile inactive")
	}
}

// Same seed, same draw order => same fault schedule; that is what makes
// chaos serving tests reproducible.
func TestServeInjectorDeterministic(t *testing.T) {
	run := func() []bool {
		in := NewServeInjector(99)
		in.SetServeProfile(ServeProfile{
			SlowModelRate: 0.5, SlowModelDelay: time.Millisecond,
			CorruptReloadRate: 0.5,
		})
		var out []bool
		for i := 0; i < 64; i++ {
			_, slow := in.SlowModel()
			out = append(out, slow, in.CorruptReload())
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs between identical seeded runs", i)
		}
	}
	any := false
	for _, v := range a {
		any = any || v
	}
	if !any {
		t.Fatal("rate 0.5 never fired in 128 draws")
	}
}

func TestServeInjectorNilAndEmpty(t *testing.T) {
	var in *ServeInjector
	if _, ok := in.SlowModel(); ok || in.CorruptReload() || in.RejectQueue() || in.Enabled() {
		t.Fatal("nil injector injected a fault")
	}
	in.SetServeProfile(ServeProfile{SlowModelRate: 1}) // must not panic
	live := NewServeInjector(1)
	if live.Enabled() {
		t.Fatal("fresh injector enabled")
	}
	if _, ok := live.SlowModel(); ok {
		t.Fatal("empty profile injected")
	}
}

// Flipping the profile mid-run changes behaviour immediately: off means
// no faults, on at rate 1 means every draw fires.
func TestServeInjectorProfileFlip(t *testing.T) {
	in := NewServeInjector(7)
	in.SetServeProfile(ServeProfile{SlowModelRate: 1, SlowModelDelay: time.Millisecond})
	if _, ok := in.SlowModel(); !ok {
		t.Fatal("rate-1 slow model did not fire")
	}
	in.SetServeProfile(ServeProfile{})
	if _, ok := in.SlowModel(); ok {
		t.Fatal("cleared profile still fired")
	}
	in.SetServeProfile(ServeProfile{QueueRejectRate: 1})
	if !in.RejectQueue() {
		t.Fatal("rate-1 queue reject did not fire")
	}
	if got := in.ServeProfile().QueueRejectRate; got != 1 {
		t.Fatalf("profile readback = %v", got)
	}
}

func TestClusterProfileDraws(t *testing.T) {
	if (ServeProfile{SlowPeerRate: 0.2, SlowPeerDelay: time.Millisecond}).Active() == false {
		t.Fatal("slow-peer profile inactive")
	}

	var nilIn *ServeInjector
	if _, ok := nilIn.SlowPeer(); ok || nilIn.PartitionPeer() || nilIn.KillNode() {
		t.Fatal("nil injector injected a cluster fault")
	}

	in := NewServeInjector(11)
	in.SetServeProfile(ServeProfile{
		SlowPeerRate: 1, SlowPeerDelay: time.Millisecond,
		PeerPartitionRate: 1, NodeKillRate: 1,
	})
	if d, ok := in.SlowPeer(); !ok || d != time.Millisecond {
		t.Fatalf("rate-1 slow peer: %v %v", d, ok)
	}
	if !in.PartitionPeer() || !in.KillNode() {
		t.Fatal("rate-1 partition/node-kill did not fire")
	}
	in.SetServeProfile(ServeProfile{})
	if _, ok := in.SlowPeer(); ok || in.PartitionPeer() || in.KillNode() {
		t.Fatal("cleared profile still fired a cluster fault")
	}
}

// Cluster draws are deterministic per seed, like every other kind.
func TestClusterDrawsDeterministic(t *testing.T) {
	run := func() []bool {
		in := NewServeInjector(17)
		in.SetServeProfile(ServeProfile{
			SlowPeerRate: 0.5, SlowPeerDelay: time.Millisecond,
			PeerPartitionRate: 0.5, NodeKillRate: 0.5,
		})
		var out []bool
		for i := 0; i < 48; i++ {
			_, slow := in.SlowPeer()
			out = append(out, slow, in.PartitionPeer(), in.KillNode())
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("cluster draw %d differs between identical seeded runs", i)
		}
	}
}
