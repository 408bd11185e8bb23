// Package config defines the paper's machine-choice vector M (Fig 3): the
// inter-accelerator selection M1 plus the nineteen intra-accelerator
// concurrency knobs M2-M20, with their deployable ranges, normalization
// for learners, and discretized sweep spaces for the autotuner.
package config

import (
	"fmt"
	"math"
)

// Accel is the inter-accelerator choice (M1).
type Accel int

const (
	// GPU selects the GPU accelerator of the pair.
	GPU Accel = iota
	// Multicore selects the multicore accelerator of the pair.
	Multicore
)

// String implements fmt.Stringer.
func (a Accel) String() string {
	if a == GPU {
		return "GPU"
	}
	return "Multicore"
}

// Schedule is the OpenMP `omp for schedule` kind (M11).
type Schedule int

const (
	ScheduleStatic Schedule = iota
	ScheduleDynamic
	ScheduleGuided
	ScheduleAuto

	numSchedules = 4
)

// String implements fmt.Stringer.
func (s Schedule) String() string {
	switch s {
	case ScheduleStatic:
		return "static"
	case ScheduleDynamic:
		return "dynamic"
	case ScheduleGuided:
		return "guided"
	case ScheduleAuto:
		return "auto"
	}
	return fmt.Sprintf("Schedule(%d)", int(s))
}

// NumVariables is the dimensionality of the M vector.
const NumVariables = 20

// M is one complete machine configuration. Field comments give the paper's
// variable number.
type M struct {
	Accelerator Accel // M1: GPU or multicore

	// Multicore hardware choices.
	Cores          int     // M2: cores used
	ThreadsPerCore int     // M3: hardware threads per core
	BlocktimeMS    int     // M4: KMP blocktime, 1..1000 ms
	PlaceCore      float64 // M5: core-id placement looseness, 0 compact .. 1 loose
	PlaceThread    float64 // M6: thread-id placement looseness
	PlaceOffset    float64 // M7: thread offset looseness
	Affinity       float64 // M8: 0 movable .. 1 strictly pinned
	ActiveWait     bool    // M9: OMP_WAIT_POLICY active vs passive
	SIMDWidth      int     // M10: #pragma simd lanes, 1..max

	// OpenMP runtime choices.
	Schedule        Schedule // M11: omp for schedule kind
	ChunkSize       int      // M12: schedule chunk size, 1..max
	Nested          bool     // M13: OMP_NESTED
	MaxActiveLevels int      // M14: OMP_MAX_ACTIVE_LEVELS, 1..4
	SpinCount       int      // M15: GOMP_SPINCOUNT, 0..max
	ProcBind        bool     // M16: OMP_PROC_BIND
	DynamicAdjust   bool     // M17: OMP_DYNAMIC thread adjustment
	WorkStealing    bool     // M18: runtime task/work stealing

	// GPU hardware choices.
	GlobalThreads int // M19: total global work items
	LocalThreads  int // M20: work-group size (threads per GPU core)
}

// Limits bounds the deployable M ranges for one accelerator pair; the
// machine package derives them from the pair's Table II parameters.
type Limits struct {
	MaxCores          int // multicore cores
	MaxThreadsPerCore int // multicore hw threads per core
	MaxSIMD           int // multicore SIMD lanes
	MaxBlocktimeMS    int // paper: max_thread_wait_time = 1000ms
	MaxChunk          int
	MaxActiveLevels   int
	MaxSpin           int
	MaxGlobalThreads  int // GPU
	MaxLocalThreads   int // GPU work-group limit (CL_KERNEL_WORK_GROUP_SIZE)
}

// DefaultSoftLimits fills the ranges that do not depend on the hardware.
func (l Limits) withDefaults() Limits {
	if l.MaxBlocktimeMS == 0 {
		l.MaxBlocktimeMS = 1000
	}
	if l.MaxChunk == 0 {
		l.MaxChunk = 4096
	}
	if l.MaxActiveLevels == 0 {
		l.MaxActiveLevels = 4
	}
	if l.MaxSpin == 0 {
		l.MaxSpin = 1 << 20
	}
	return l
}

// Clamp returns a copy of m with every knob forced into the deployable
// range for the given limits; the paper applies the same ceiling function
// when an equation resolves beyond a variable's maximum.
func (m M) Clamp(l Limits) M {
	l = l.withDefaults()
	m.Cores = clampInt(m.Cores, 1, l.MaxCores)
	m.ThreadsPerCore = clampInt(m.ThreadsPerCore, 1, l.MaxThreadsPerCore)
	m.BlocktimeMS = clampInt(m.BlocktimeMS, 1, l.MaxBlocktimeMS)
	m.PlaceCore = clampF(m.PlaceCore, 0, 1)
	m.PlaceThread = clampF(m.PlaceThread, 0, 1)
	m.PlaceOffset = clampF(m.PlaceOffset, 0, 1)
	m.Affinity = clampF(m.Affinity, 0, 1)
	m.SIMDWidth = clampInt(m.SIMDWidth, 1, l.MaxSIMD)
	if m.Schedule < 0 || m.Schedule >= numSchedules {
		m.Schedule = ScheduleStatic
	}
	m.ChunkSize = clampInt(m.ChunkSize, 1, l.MaxChunk)
	m.MaxActiveLevels = clampInt(m.MaxActiveLevels, 1, l.MaxActiveLevels)
	m.SpinCount = clampInt(m.SpinCount, 0, l.MaxSpin)
	m.GlobalThreads = clampInt(m.GlobalThreads, 1, l.MaxGlobalThreads)
	m.LocalThreads = clampInt(m.LocalThreads, 1, l.MaxLocalThreads)
	return m
}

// Validate reports whether the configuration is sane enough to deploy:
// every float knob must be finite and the enumerated choices must name
// real alternatives. Clamp silently repairs out-of-range values (the
// paper's ceiling rule), but a non-finite or out-of-enum value signals a
// broken predictor (NaN weights from an undertrained network), and the
// fallback chain uses this check to reject the prediction instead of
// laundering it through the clamp.
func (m M) Validate(l Limits) error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"PlaceCore", m.PlaceCore},
		{"PlaceThread", m.PlaceThread},
		{"PlaceOffset", m.PlaceOffset},
		{"Affinity", m.Affinity},
	} {
		if math.IsNaN(f.v) {
			return fmt.Errorf("config: %s is NaN", f.name)
		}
		if math.IsInf(f.v, 0) {
			return fmt.Errorf("config: %s is infinite", f.name)
		}
	}
	if m.Accelerator != GPU && m.Accelerator != Multicore {
		return fmt.Errorf("config: invalid accelerator choice %d", int(m.Accelerator))
	}
	if m.Schedule < 0 || m.Schedule >= numSchedules {
		return fmt.Errorf("config: invalid schedule kind %d", int(m.Schedule))
	}
	return nil
}

// ForceAccelerator retargets m onto the given accelerator. When the
// prediction configured the other side, the newly selected side's
// hardware knobs are filled with deployable defaults — the completion
// rule that batch scheduling, phased planning and failover share.
func (m M) ForceAccelerator(side Accel, l Limits) M {
	l = l.withDefaults()
	out := m
	out.Accelerator = side
	if m.Accelerator != side {
		if side == Multicore {
			d := DefaultMulticore(l)
			out.Cores, out.ThreadsPerCore, out.SIMDWidth = d.Cores, d.ThreadsPerCore, d.SIMDWidth
		} else {
			d := DefaultGPU(l)
			out.GlobalThreads, out.LocalThreads = d.GlobalThreads, d.LocalThreads
		}
	}
	return out.Clamp(l)
}

// Other returns the opposite accelerator choice.
func (a Accel) Other() Accel {
	if a == GPU {
		return Multicore
	}
	return GPU
}

// Normalize encodes the configuration as a NumVariables-long vector with
// every component in [0,1]; this is the output representation the
// learners are trained on.
func (m M) Normalize(l Limits) [NumVariables]float64 {
	l = l.withDefaults()
	var v [NumVariables]float64
	v[0] = float64(m.Accelerator)
	v[1] = ratio(m.Cores, l.MaxCores)
	v[2] = ratio(m.ThreadsPerCore, l.MaxThreadsPerCore)
	v[3] = ratio(m.BlocktimeMS, l.MaxBlocktimeMS)
	v[4] = clampF(m.PlaceCore, 0, 1)
	v[5] = clampF(m.PlaceThread, 0, 1)
	v[6] = clampF(m.PlaceOffset, 0, 1)
	v[7] = clampF(m.Affinity, 0, 1)
	v[8] = boolF(m.ActiveWait)
	v[9] = ratio(m.SIMDWidth, l.MaxSIMD)
	v[10] = float64(m.Schedule) / float64(numSchedules-1)
	v[11] = ratio(m.ChunkSize, l.MaxChunk)
	v[12] = boolF(m.Nested)
	v[13] = ratio(m.MaxActiveLevels, l.MaxActiveLevels)
	v[14] = ratio(m.SpinCount, l.MaxSpin)
	v[15] = boolF(m.ProcBind)
	v[16] = boolF(m.DynamicAdjust)
	v[17] = boolF(m.WorkStealing)
	v[18] = ratio(m.GlobalThreads, l.MaxGlobalThreads)
	v[19] = ratio(m.LocalThreads, l.MaxLocalThreads)
	return v
}

// FromNormalized decodes a learner output vector back into a deployable
// configuration, clamping every component.
func FromNormalized(v [NumVariables]float64, l Limits) M {
	l = l.withDefaults()
	m := M{
		Accelerator:     Accel(roundBool(v[0])),
		Cores:           scaleInt(v[1], l.MaxCores),
		ThreadsPerCore:  scaleInt(v[2], l.MaxThreadsPerCore),
		BlocktimeMS:     scaleInt(v[3], l.MaxBlocktimeMS),
		PlaceCore:       clampF(v[4], 0, 1),
		PlaceThread:     clampF(v[5], 0, 1),
		PlaceOffset:     clampF(v[6], 0, 1),
		Affinity:        clampF(v[7], 0, 1),
		ActiveWait:      v[8] >= 0.5,
		SIMDWidth:       scaleInt(v[9], l.MaxSIMD),
		Schedule:        Schedule(clampInt(int(math.Round(v[10]*float64(numSchedules-1))), 0, numSchedules-1)),
		ChunkSize:       scaleInt(v[11], l.MaxChunk),
		Nested:          v[12] >= 0.5,
		MaxActiveLevels: scaleInt(v[13], l.MaxActiveLevels),
		SpinCount:       scaleInt(v[14], l.MaxSpin),
		ProcBind:        v[15] >= 0.5,
		DynamicAdjust:   v[16] >= 0.5,
		WorkStealing:    v[17] >= 0.5,
		GlobalThreads:   scaleInt(v[18], l.MaxGlobalThreads),
		LocalThreads:    scaleInt(v[19], l.MaxLocalThreads),
	}
	return m.Clamp(l)
}

// DiscretizeChoices maps the configuration to the integer "choice
// selections" the paper compares for learner accuracy: each variable is
// binned to its 0.1-step discretization (booleans and enums keep their
// integer identity).
func (m M) DiscretizeChoices(l Limits) [NumVariables]int {
	v := m.Normalize(l)
	var out [NumVariables]int
	for i, x := range v {
		out[i] = int(math.Round(clampF(x, 0, 1) * 10))
	}
	// Enums keep exact identity rather than a 0.1 bin.
	out[0] = int(m.Accelerator)
	out[10] = int(m.Schedule)
	return out
}

// ChoiceAccuracy returns the fraction of discretized choice selections on
// which a and b agree — the paper's accuracy metric ("comparing the
// integer outputs constituting choice selections"). Enumerated choices
// (accelerator, schedule kind, booleans) must match exactly; scaled
// choices count as matching within one 0.1 bin, because adjacent grid
// levels deploy indistinguishably.
func ChoiceAccuracy(a, b M, l Limits) float64 {
	da, db := a.DiscretizeChoices(l), b.DiscretizeChoices(l)
	matches := 0
	for i := range da {
		d := da[i] - db[i]
		if d < 0 {
			d = -d
		}
		exact := i == 0 || i == 8 || i == 10 || i == 12 || i == 15 || i == 16 || i == 17
		if (exact && d == 0) || (!exact && d <= 1) {
			matches++
		}
	}
	return float64(matches) / float64(NumVariables)
}

// String renders a compact single-line summary of the deployed choices.
func (m M) String() string {
	if m.Accelerator == GPU {
		return fmt.Sprintf("GPU{global=%d local=%d}", m.GlobalThreads, m.LocalThreads)
	}
	return fmt.Sprintf("MC{cores=%d tpc=%d simd=%d sched=%s chunk=%d aff=%.1f place=%.1f blocktime=%dms}",
		m.Cores, m.ThreadsPerCore, m.SIMDWidth, m.Schedule, m.ChunkSize, m.Affinity, m.PlaceCore, m.BlocktimeMS)
}

func clampInt(x, lo, hi int) int {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

func clampF(x, lo, hi float64) float64 {
	// NaN compares false against everything, so without this guard a
	// non-finite predictor output would pass through the clamp unchanged
	// and poison the machine model downstream.
	if math.IsNaN(x) {
		return lo
	}
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

func ratio(x, maxV int) float64 {
	if maxV <= 0 {
		return 0
	}
	return clampF(float64(x)/float64(maxV), 0, 1)
}

func boolF(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func roundBool(x float64) int {
	if x >= 0.5 {
		return 1
	}
	return 0
}

func scaleInt(x float64, maxV int) int {
	v := int(math.Round(clampF(x, 0, 1) * float64(maxV)))
	if v < 1 {
		v = 1
	}
	if v > maxV {
		v = maxV
	}
	return v
}
