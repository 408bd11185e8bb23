package fault

// Write kill-points: deterministic crash injection for the durability
// layer. A kill-point arms one named write target ("store", "wal",
// "snapshot", "cache", ...) with a byte offset; the durable writer dies
// with durable.ErrKilled after emitting exactly that many bytes, so a
// test can place a simulated power cut at any byte of any artifact and
// then prove recovery. WriteKill has the
// exact shape of durable.KillFunc — pass in.WriteKill as the Kill
// option of any durable-aware component.
//
// Unlike the probabilistic serve faults, kill-points are not drawn:
// a crash at byte 17 of the WAL either is the scenario under test or
// it is not. Determinism comes from the caller choosing the offset.

// ArmWriteKill arms the named write target: the next durable write to
// it dies after offset bytes. Re-arming replaces the previous offset;
// the kill stays armed until DisarmWriteKill (a real crash takes the
// process with it, so repeated firing is the honest default).
func (in *ServeInjector) ArmWriteKill(target string, offset int64) {
	if in == nil {
		return
	}
	in.killMu.Lock()
	if in.kills == nil {
		in.kills = make(map[string]int64)
	}
	in.kills[target] = offset
	in.killMu.Unlock()
}

// DisarmWriteKill removes the named target's kill-point.
func (in *ServeInjector) DisarmWriteKill(target string) {
	if in == nil {
		return
	}
	in.killMu.Lock()
	delete(in.kills, target)
	in.killMu.Unlock()
}

// WriteKill reports whether the named target is armed and at which byte
// offset the write must die. It satisfies durable.KillFunc.
func (in *ServeInjector) WriteKill(target string) (int64, bool) {
	if in == nil {
		return 0, false
	}
	in.killMu.Lock()
	off, ok := in.kills[target]
	in.killMu.Unlock()
	return off, ok
}

// ArmedWriteKills returns a copy of the currently armed kill-points,
// for logging the crash schedule a run was exposed to.
func (in *ServeInjector) ArmedWriteKills() map[string]int64 {
	if in == nil {
		return nil
	}
	in.killMu.Lock()
	defer in.killMu.Unlock()
	if len(in.kills) == 0 {
		return nil
	}
	out := make(map[string]int64, len(in.kills))
	for k, v := range in.kills {
		out[k] = v
	}
	return out
}
