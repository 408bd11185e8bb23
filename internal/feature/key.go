package feature

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"heteromap/internal/stats"
)

// Key renders the vector as a stable, comparable cache key. The paper's
// 0.1-step discretization makes the characterization space finite, so
// equal (B, I) characterizations — and only those — produce equal keys,
// which is what lets a prediction cache front the predictor stack.
// Components are formatted with the shortest exact float representation,
// so ParseKey round-trips bit-for-bit. The key is built in a stack buffer,
// so rendering it costs the one allocation of the returned string.
func (v Vector) Key() string {
	var buf [maxKeyLen]byte
	return string(v.appendKey(buf[:0]))
}

// maxKeyLen bounds a rendered key: the longest shortest-exact float64 is
// 24 bytes ("-2.2250738585072014e-308"), plus a comma between components.
const maxKeyLen = NumFeatures*25 - 1

// gridPoints is the number of values on the default discretization grid:
// 0, DiscretizationStep, ..., 1.
const gridPoints = int(1/DiscretizationStep) + 1

// gridText renders each default grid value float64(k)*DiscretizationStep,
// which is exactly what stats.Discretize produces for that step. The text
// comes from the FormatFloat call appendComponent makes off the grid, so
// both paths write identical bytes.
var gridText = func() (t [gridPoints]string) {
	for k := range t {
		t[k] = strconv.FormatFloat(float64(k)*DiscretizationStep, 'g', -1, 64)
	}
	return t
}()

// GridValue returns the default grid value whose text in Key is exactly
// text, without parsing it. The value is exact, because that text is the
// value's shortest round-trip form; any other text, such as "1.0",
// "-0" or a digit more or less, reports false.
func GridValue(text []byte) (float64, bool) {
	// On the tenths grid the index is the first digit after "0.". The
	// comparison below keeps any other step correct, only never fast.
	var k int
	switch {
	case len(text) == 1 && (text[0] == '0' || text[0] == '1'):
		k = int(text[0]-'0') * (gridPoints - 1)
	case len(text) > 2 && text[0] == '0' && text[1] == '.' && text[2] >= '1' && text[2] <= '9':
		k = int(text[2] - '0')
	default:
		return 0, false
	}
	if k >= gridPoints || string(text) != gridText[k] {
		return 0, false
	}
	return float64(k) * DiscretizationStep, true
}

// appendKey appends the canonical key text: every component's shortest
// exact float representation, comma-separated.
func (v Vector) appendKey(b []byte) []byte {
	for i, x := range v {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendComponent(b, x)
	}
	return b
}

// appendComponent appends strconv.FormatFloat(x, 'g', -1, 64), taking the
// text from gridText when x is bitwise a default grid value (so -0 and
// values a rounding step away from the grid are formatted).
func appendComponent(b []byte, x float64) []byte {
	if x >= 0 && x <= 1 {
		k := int(x/DiscretizationStep + 0.5)
		if math.Float64bits(float64(k)*DiscretizationStep) == math.Float64bits(x) {
			return append(b, gridText[k]...)
		}
	}
	return strconv.AppendFloat(b, x, 'g', -1, 64)
}

// ParseKey inverts Key, recovering the exact vector. Keys come in over
// the wire (cache dumps, golden sets), so beyond shape it validates that
// every component is a finite normalized value: strconv accepts "NaN",
// "Inf" and huge magnitudes, none of which a Key ever produces.
func ParseKey(key string) (Vector, error) {
	parts := strings.Split(key, ",")
	if len(parts) != NumFeatures {
		return Vector{}, fmt.Errorf("feature: key has %d components, want %d", len(parts), NumFeatures)
	}
	var v Vector
	for i, p := range parts {
		x, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return Vector{}, fmt.Errorf("feature: key component %d: %w", i, err)
		}
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return Vector{}, fmt.Errorf("feature: key component %d is not finite", i)
		}
		if x < 0 || x > 1 {
			return Vector{}, fmt.Errorf("feature: key component %d = %g outside [0,1]", i, x)
		}
		v[i] = x
	}
	return v, nil
}

// ShardHash reduces the canonical Key to a stable 64-bit FNV-1a hash —
// the cluster tier's shard key. Equal (B, I) characterizations (and only
// those) hash equally, so a consistent-hash ring over ShardHash keeps
// each node's prediction cache hot on its own slice of the discretized
// keyspace. The hash is a pure function of Key(), never of process
// state, so every router instance places a key identically.
//
// The value is exactly fnv64a(Key()) — ring placement, the online
// loop's deterministic job seeding and persisted layouts all depend on
// it — but hashed from the key text in a stack buffer, so the
// per-request cost is zero allocations instead of materializing the key
// string.
func (v Vector) ShardHash() uint64 {
	var buf [maxKeyLen]byte
	h := uint64(fnvOffset64)
	for _, c := range v.appendKey(buf[:0]) {
		h = (h ^ uint64(c)) * fnvPrime64
	}
	return h
}

// Discretized snaps every component to the given step after clamping to
// [0,1] — the shared normalization applied to raw (undiscretized)
// feature vectors before they reach a predictor or a cache key, so that
// near-identical characterizations collapse onto the same grid point.
func (v Vector) Discretized(step float64) Vector {
	var out Vector
	for i, x := range v {
		out[i] = stats.Discretize(stats.Clamp(x, 0, 1), step)
	}
	return out
}
