package online

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"heteromap/internal/config"
	"heteromap/internal/feature"
)

// The outcome codec is the wire format for one collected Outcome, used
// both as the payload of a feedback-WAL record and as a record of the
// window snapshot (window.snap). Framing and integrity are the
// containing format's job (WAL record CRC, container record CRC); this
// layer only lays fields out:
//
//	u8  version (1)
//	u16 len | Key bytes
//	u16 len | Model bytes
//	u16 len | Predictor bytes
//	u8  Probed
//	NumFeatures  f64  Features
//	NumVariables f64  M (normalized against the pair limits)
//	NumVariables f64  BestM (normalized)
//	f64 ChosenCost | f64 BestCost | f64 Gap
//	i64 When (UnixNano)
//
// Configurations are stored normalized — the same encoding the training
// database uses — and decoded with config.FromNormalized, which is exact
// for any M drawn from the enumeration grid. TraceID is deliberately
// dropped: it links to an in-memory trace buffer that does not survive
// the restart the codec exists for.
const outcomeCodecVersion = 1

// maxCodecString bounds each string field; longer values are truncated
// on encode (keys and model names are tens of bytes in practice).
const maxCodecString = 1<<16 - 1

func appendCodecString(b []byte, s string) []byte {
	if len(s) > maxCodecString {
		s = s[:maxCodecString]
	}
	b = binary.LittleEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

func appendCodecFloats(b []byte, vals []float64) []byte {
	for _, v := range vals {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// encodeOutcome serializes one outcome against the pair limits.
func encodeOutcome(o Outcome, limits config.Limits) []byte {
	b := make([]byte, 0, 512)
	b = append(b, outcomeCodecVersion)
	b = appendCodecString(b, o.Key)
	b = appendCodecString(b, o.Model)
	b = appendCodecString(b, o.Predictor)
	probed := byte(0)
	if o.Probed {
		probed = 1
	}
	b = append(b, probed)
	b = appendCodecFloats(b, o.Features[:])
	m := o.M.Normalize(limits)
	b = appendCodecFloats(b, m[:])
	best := o.BestM.Normalize(limits)
	b = appendCodecFloats(b, best[:])
	b = appendCodecFloats(b, []float64{o.ChosenCost, o.BestCost, o.Gap})
	b = binary.LittleEndian.AppendUint64(b, uint64(o.When.UnixNano()))
	return b
}

type codecReader struct {
	b   []byte
	off int
	err error
}

func (r *codecReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.b) {
		r.err = fmt.Errorf("online: outcome record truncated at byte %d", r.off)
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}

func (r *codecReader) str() string {
	n := r.take(2)
	if r.err != nil {
		return ""
	}
	return string(r.take(int(binary.LittleEndian.Uint16(n))))
}

func (r *codecReader) floats(dst []float64) {
	raw := r.take(8 * len(dst))
	if r.err != nil {
		return
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8 : i*8+8]))
	}
}

// decodeOutcome parses one encoded outcome. Integrity is the framing
// layer's job; this rejects only structural damage (bad version,
// truncation, trailing bytes), which after a CRC pass means a version
// skew, not corruption.
func decodeOutcome(b []byte, limits config.Limits) (Outcome, error) {
	var o Outcome
	if len(b) < 1 {
		return o, fmt.Errorf("online: empty outcome record")
	}
	if b[0] != outcomeCodecVersion {
		return o, fmt.Errorf("online: outcome codec version %d (want %d)", b[0], outcomeCodecVersion)
	}
	r := &codecReader{b: b, off: 1}
	o.Key = r.str()
	o.Model = r.str()
	o.Predictor = r.str()
	if p := r.take(1); r.err == nil {
		o.Probed = p[0] != 0
	}
	var feats [feature.NumFeatures]float64
	r.floats(feats[:])
	o.Features = feature.Vector(feats)
	var m, best [config.NumVariables]float64
	r.floats(m[:])
	r.floats(best[:])
	var costs [3]float64
	r.floats(costs[:])
	raw := r.take(8)
	if r.err != nil {
		return o, r.err
	}
	if r.off != len(b) {
		return o, fmt.Errorf("online: %d trailing bytes after outcome record", len(b)-r.off)
	}
	o.M = config.FromNormalized(m, limits)
	o.BestM = config.FromNormalized(best, limits)
	o.ChosenCost, o.BestCost, o.Gap = costs[0], costs[1], costs[2]
	o.When = time.Unix(0, int64(binary.LittleEndian.Uint64(raw)))
	return o, nil
}
