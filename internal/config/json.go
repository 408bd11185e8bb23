package config

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
)

// JSON encoding of the machine-choice vector. API responses serialize M
// with the paper's knob names rather than bare struct-field or index
// positions, and enumerated choices (accelerator, schedule kind) as their
// symbolic names, so a serialized mapping is self-describing and stable
// across refactors of the in-memory layout.

// MarshalJSON implements json.Marshaler, emitting "GPU" / "Multicore".
func (a Accel) MarshalJSON() ([]byte, error) {
	return json.Marshal(a.String())
}

// UnmarshalJSON implements json.Unmarshaler.
func (a *Accel) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	switch s {
	case "GPU":
		*a = GPU
	case "Multicore":
		*a = Multicore
	default:
		return fmt.Errorf("config: unknown accelerator %q", s)
	}
	return nil
}

// MarshalJSON implements json.Marshaler, emitting the schedule kind name.
func (s Schedule) MarshalJSON() ([]byte, error) {
	if s < 0 || s >= numSchedules {
		return nil, fmt.Errorf("config: invalid schedule kind %d", int(s))
	}
	return json.Marshal(s.String())
}

// UnmarshalJSON implements json.Unmarshaler.
func (s *Schedule) UnmarshalJSON(data []byte) error {
	var name string
	if err := json.Unmarshal(data, &name); err != nil {
		return err
	}
	for k := Schedule(0); k < numSchedules; k++ {
		if k.String() == name {
			*s = k
			return nil
		}
	}
	return fmt.Errorf("config: unknown schedule kind %q", name)
}

// mJSON is the wire shape of M: every knob under its paper name (the
// comment trail M1..M20 fixes the correspondence). encoding/json emits
// struct fields in declaration order, so the serialization is
// deterministic and golden-testable. AppendJSON writes the same bytes by
// hand; mJSON stays as the decoder and as the reference its tests
// compare against.
type mJSON struct {
	Accelerator     Accel    `json:"accelerator"`       // M1
	Cores           int      `json:"cores"`             // M2
	ThreadsPerCore  int      `json:"threads_per_core"`  // M3
	BlocktimeMS     int      `json:"blocktime_ms"`      // M4
	PlaceCore       float64  `json:"place_core"`        // M5
	PlaceThread     float64  `json:"place_thread"`      // M6
	PlaceOffset     float64  `json:"place_offset"`      // M7
	Affinity        float64  `json:"affinity"`          // M8
	ActiveWait      bool     `json:"active_wait"`       // M9
	SIMDWidth       int      `json:"simd_width"`        // M10
	Schedule        Schedule `json:"schedule"`          // M11
	ChunkSize       int      `json:"chunk_size"`        // M12
	Nested          bool     `json:"nested"`            // M13
	MaxActiveLevels int      `json:"max_active_levels"` // M14
	SpinCount       int      `json:"spin_count"`        // M15
	ProcBind        bool     `json:"proc_bind"`         // M16
	DynamicAdjust   bool     `json:"dynamic_adjust"`    // M17
	WorkStealing    bool     `json:"work_stealing"`     // M18
	GlobalThreads   int      `json:"global_threads"`    // M19
	LocalThreads    int      `json:"local_threads"`     // M20
}

// mJSONLen is a capacity that holds a typical encoded M.
const mJSONLen = 512

// MarshalJSON implements json.Marshaler.
func (m M) MarshalJSON() ([]byte, error) {
	return m.AppendJSON(make([]byte, 0, mJSONLen))
}

// AppendJSON appends the JSON encoding of m to b: byte for byte what
// json.Marshal writes for mJSON(m), without reflection. Like json.Marshal
// it refuses an out-of-range Schedule and a non-finite float, returning b
// unchanged with the error.
func (m M) AppendJSON(b []byte) ([]byte, error) {
	if m.Schedule < 0 || m.Schedule >= numSchedules {
		return b, fmt.Errorf("config: invalid schedule kind %d", int(m.Schedule))
	}
	for _, f := range [...]float64{m.PlaceCore, m.PlaceThread, m.PlaceOffset, m.Affinity} {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return b, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
	}
	// The knob names, accelerator and schedule names are plain ASCII, so
	// none needs escaping.
	b = append(b, `{"accelerator":"`...)
	b = append(b, m.Accelerator.String()...)
	b = appendInt(append(b, `","cores":`...), m.Cores)
	b = appendInt(append(b, `,"threads_per_core":`...), m.ThreadsPerCore)
	b = appendInt(append(b, `,"blocktime_ms":`...), m.BlocktimeMS)
	b = appendFloat(append(b, `,"place_core":`...), m.PlaceCore)
	b = appendFloat(append(b, `,"place_thread":`...), m.PlaceThread)
	b = appendFloat(append(b, `,"place_offset":`...), m.PlaceOffset)
	b = appendFloat(append(b, `,"affinity":`...), m.Affinity)
	b = strconv.AppendBool(append(b, `,"active_wait":`...), m.ActiveWait)
	b = appendInt(append(b, `,"simd_width":`...), m.SIMDWidth)
	b = append(append(b, `,"schedule":"`...), m.Schedule.String()...)
	b = appendInt(append(b, `","chunk_size":`...), m.ChunkSize)
	b = strconv.AppendBool(append(b, `,"nested":`...), m.Nested)
	b = appendInt(append(b, `,"max_active_levels":`...), m.MaxActiveLevels)
	b = appendInt(append(b, `,"spin_count":`...), m.SpinCount)
	b = strconv.AppendBool(append(b, `,"proc_bind":`...), m.ProcBind)
	b = strconv.AppendBool(append(b, `,"dynamic_adjust":`...), m.DynamicAdjust)
	b = strconv.AppendBool(append(b, `,"work_stealing":`...), m.WorkStealing)
	b = appendInt(append(b, `,"global_threads":`...), m.GlobalThreads)
	b = appendInt(append(b, `,"local_threads":`...), m.LocalThreads)
	return append(b, '}'), nil
}

func appendInt(b []byte, n int) []byte { return strconv.AppendInt(b, int64(n), 10) }

// appendFloat appends a finite f the way encoding/json does: the shortest
// representation that round-trips, in fixed notation unless its magnitude
// is below 1e-6 or at least 1e21, and then with a one-digit negative
// exponent unpadded ("1e-7", not "1e-07").
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// UnmarshalJSON implements json.Unmarshaler.
func (m *M) UnmarshalJSON(data []byte) error {
	var w mJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*m = M(w)
	return nil
}
