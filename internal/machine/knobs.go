package machine

import (
	"math"

	"heteromap/internal/config"
	"heteromap/internal/profile"
)

// This file models the soft intra-accelerator knobs (thread placement,
// affinity, blocktime, OpenMP runtime switches, GPU work-group sizing).
// Each knob has a profile-derived ideal value; deviation from the ideal
// multiplies completion time. The aggregate sensitivity is calibrated so
// that an entirely mis-set configuration costs tens of percent — matching
// the ~15% selected-vs-optimal gap the paper reports for its heuristic
// (Fig 7) — while a correct configuration costs nothing.

// KnobIdeals are the profile-derived optimal soft-knob settings for one
// accelerator. The decision-tree predictor and the cost model share this
// derivation, which is exactly the paper's premise: the linear M
// equations of Section IV approximate these relationships.
type KnobIdeals struct {
	Contention float64 // normalized lock/barrier pressure (drives M4, M15, M9)
	Placement  float64 // placement looseness (drives M5-M7)
	Affinity   float64 // pinning strength (drives M8)
	RWShare    float64 // read-write share of touched data (drives M11)
	WantDyn    bool    // dynamic scheduling preferred (M11)
	LocalFrac  float64 // GPU work-group fraction (drives M20)
}

// IdealsFor derives the soft-knob ideals from a work profile.
func IdealsFor(w *profile.Work, avgWork float64) KnobIdeals {
	var ro, rw, local float64
	var atomics, ops, chain int64
	for i := range w.Phases {
		p := &w.Phases[i]
		ro += float64(p.ReadOnlyBytes)
		rw += float64(p.ReadWriteBytes)
		local += float64(p.LocalBytes)
		atomics += p.Atomics
		ops += p.Ops()
		if p.ChainLength > chain {
			chain = p.ChainLength
		}
	}
	totalBytes := ro + rw + local
	rwShare := 0.0
	if totalBytes > 0 {
		rwShare = rw / totalBytes
	}
	contention := 0.0
	if ops > 0 {
		contention = clamp01(float64(atomics) / float64(ops) * 20)
	}
	contention = clamp01(contention + math.Min(0.3, float64(w.Barriers)/1e4))
	chainNorm := clamp01(float64(chain) / 5000)
	placement := clamp01(0.5*w.Skew + 0.5*chainNorm)
	affinity := clamp01(0.5*placement + 0.5*rwShare)
	wantDyn := w.Skew > 0.5 || rwShare > 0.5
	localFrac := clamp01(avgWork / 64)
	return KnobIdeals{
		Contention: contention,
		Placement:  placement,
		Affinity:   affinity,
		RWShare:    rwShare,
		WantDyn:    wantDyn,
		LocalFrac:  localFrac,
	}
}

// knobFactor returns the multiplicative penalty for the soft knobs of m
// against the job's profile ideals.
func (a *Accel) knobFactor(m *config.M, t *jobTerms) float64 {
	ideals, avgWork := &t.ideals, t.avgWork
	var penalty float64

	if a.Kind == KindGPU {
		// Work-group size: dense inputs want large groups, sparse ones
		// small (Fig 1's intermediate-threading optimum).
		actual := float64(m.LocalThreads) / float64(maxI(a.MaxLocalThreads, 1))
		penalty += 0.5 * math.Abs(actual-ideals.LocalFrac)
	} else {
		// Blocktime (M4): should track contention.
		bt := float64(m.BlocktimeMS) / 1000
		penalty += 0.25 * math.Abs(bt-ideals.Contention)

		// Placement (M5-M7): looseness should track skew + chain depth.
		place := (m.PlaceCore + m.PlaceThread + m.PlaceOffset) / 3
		penalty += 0.35 * math.Abs(place-ideals.Placement)

		// Affinity (M8): pinning should track shared read-write data.
		penalty += 0.25 * math.Abs(m.Affinity-ideals.Affinity)

		// Wait policy (M9) and spin count (M15): active waiting helps
		// under contention, wastes pipeline otherwise.
		active := 0.0
		if m.ActiveWait {
			active = 1
		}
		penalty += 0.10 * math.Abs(active-step(ideals.Contention, 0.3))
		spin := float64(m.SpinCount) / float64(1<<20)
		penalty += 0.10 * math.Abs(spin-ideals.Contention)

		// Schedule kind (M11) beyond the load-imbalance term: mismatched
		// kind costs a little extra dispatch/locality churn.
		wantDyn := 0.0
		if ideals.WantDyn {
			wantDyn = 1
		}
		isDyn := 0.0
		if m.Schedule == config.ScheduleDynamic || m.Schedule == config.ScheduleGuided {
			isDyn = 1
		}
		penalty += 0.20 * math.Abs(isDyn-wantDyn)

		// Nested parallelism (M13/M14): profitable only for two-level
		// loops with very wide inner work; otherwise pure overhead.
		if m.Nested {
			if avgWork < 32 {
				penalty += 0.08
			}
		} else if avgWork >= 256 {
			penalty += 0.05
		}

		// Proc bind (M16) follows affinity; dynamic adjust (M17) hurts
		// steady kernels; work stealing (M18) helps only heavy skew.
		bind := 0.0
		if m.ProcBind {
			bind = 1
		}
		penalty += 0.05 * math.Abs(bind-step(ideals.Affinity, 0.5))
		if m.DynamicAdjust {
			penalty += 0.04
		}
		steal := 0.0
		if m.WorkStealing {
			steal = 1
		}
		penalty += 0.05 * math.Abs(steal-step(t.skew, 0.7))
	}

	f := 1 + a.Cost.KnobSensitivity*penalty
	if f > 1.6 {
		f = 1.6
	}
	return f
}

func step(x, threshold float64) float64 {
	if x > threshold {
		return 1
	}
	return 0
}
