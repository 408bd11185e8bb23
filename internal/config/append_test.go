package config_test

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"heteromap/internal/config"
	"heteromap/internal/machine"
)

// floatEdges take encoding/json's exponent form, sit at its cut-offs or
// one ulp beside a value, or are negative zero.
var floatEdges = []float64{
	1e-7, 1e21, 1e-6, 1e20, 1.5e-300, 5e-324, math.MaxFloat64, -1e21,
	math.Nextafter(1e-6, 0), math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)),
	math.Copysign(0, -1), math.Nextafter(0, 1), math.Nextafter(0.5, 1), math.Nextafter(0.5, 0),
	math.Nextafter(1, 2), 0.1, 0.30000000000000004, 123456789.125, -3.5,
}

// withFloat returns m with its field-th float knob (M5..M8) set to f.
func withFloat(m config.M, field int, f float64) config.M {
	knobs := [...]*float64{&m.PlaceCore, &m.PlaceThread, &m.PlaceOffset, &m.Affinity}
	*knobs[field] = f
	return m
}

// AppendJSON writes M without reflection; it must produce exactly the
// bytes json.Marshal writes for M's reflected wire shape, for every M
// the primary pair's sweep enumerates and at the float edge cases, and
// MarshalJSON (which json.Marshal of an M calls) must agree.
func TestAppendJSONMatchesReflection(t *testing.T) {
	ms := config.Enumerate(machine.PrimaryPair().Limits())
	if len(ms) == 0 {
		t.Fatal("empty sweep")
	}
	base := ms[len(ms)-1]
	for _, f := range floatEdges {
		for field := 0; field < 4; field++ {
			ms = append(ms, withFloat(base, field, f))
		}
	}
	odd := base
	odd.Accelerator = config.Accel(7) // any non-GPU value names Multicore
	odd.Cores, odd.ChunkSize, odd.SpinCount = math.MinInt, math.MaxInt, -1
	ms = append(ms, odd)

	prefix := []byte(`{"m":`)
	for _, m := range ms {
		want, err := config.MarshalReference(m)
		if err != nil {
			t.Fatalf("reference marshal of %+v: %v", m, err)
		}
		got, err := m.AppendJSON(append([]byte(nil), prefix...))
		if err != nil {
			t.Fatalf("AppendJSON(%+v): %v", m, err)
		}
		if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("AppendJSON:\n got %s\nwant %s%s", got, prefix, want)
		}
		if viaMarshal, err := json.Marshal(m); err != nil || !bytes.Equal(viaMarshal, want) {
			t.Fatalf("json.Marshal(M) = %s, %v; want %s", viaMarshal, err, want)
		}
	}
}

// An out-of-range Schedule and a non-finite float are errors, as under
// json.Marshal, and leave the buffer as it was.
func TestAppendJSONRejectsUnencodable(t *testing.T) {
	base := config.DefaultMulticore(machine.PrimaryPair().Limits())
	var bad []config.M
	for _, s := range []config.Schedule{-1, 4, 9} {
		m := base
		m.Schedule = s
		bad = append(bad, m)
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for field := 0; field < 4; field++ {
			bad = append(bad, withFloat(base, field, f))
		}
	}
	for _, m := range bad {
		if _, err := config.MarshalReference(m); err == nil {
			t.Fatalf("reference marshal accepted %+v", m)
		}
		got, err := m.AppendJSON([]byte("x"))
		if err == nil {
			t.Fatalf("AppendJSON accepted %+v: %s", m, got)
		}
		if string(got) != "x" {
			t.Fatalf("AppendJSON wrote %q on error", got)
		}
		if _, err := json.Marshal(m); err == nil {
			t.Fatalf("json.Marshal accepted %+v", m)
		}
	}
}
