package train

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"heteromap/internal/config"
	"heteromap/internal/durable"
	"heteromap/internal/feature"
	"heteromap/internal/machine"
	"heteromap/internal/predict"
)

// This file implements the paper's profiler database persistence: "This
// creates a profiler database of B,I,M tuples residing in the CPU file
// system, which is indexed using B,I tuples to get M solutions." The
// binary format stores the pair identity, objective and all samples;
// Lookup answers queries by nearest characterization.
//
// Two on-disk generations exist:
//
//	HMDB (legacy)  header | raw samples — no integrity protection.
//	HMD2 (current) header | per-sample record + CRC32-C | sealed footer
//
//	"HMD2" | u32 nameLen | name | u32 objective | u64 count
//	sample: 17 f64 features | 20 f64 target | u32 auxLen | aux
//	        | u32 crc32c(record)
//	footer: u32 crc32c(magic..last record) | u64 count | "HMDE"
//
// Save writes HMD2; LoadDB dispatches on the magic so legacy databases
// stay readable (parse-checked only — they carry no checksums to
// verify). Every HMD2 load verifies per-record and whole-file checksums
// before a byte is believed: a torn or bit-rotted database fails with
// ErrCorrupt and is quarantined by its consumer, never parse-and-prayed
// into serving. Save writes every aux length as 0; LoadDB still
// checksums and skips aux bytes, so databases written with per-sample
// aux blobs (earlier builds stored feedback outcomes there) still load.
const (
	storeMagic    = "HMDB" // legacy, unchecksummed
	storeMagicV2  = "HMD2"
	storeEndMagic = "HMDE"
)

// ErrCorrupt marks a database that failed integrity verification:
// checksum mismatch, truncation, or a missing seal. Callers quarantine
// the file and keep serving the predecessor.
var ErrCorrupt = errors.New("train: database failed integrity verification")

var storeCRCTable = crc32.MakeTable(crc32.Castagnoli)

// storeCRCWriter accumulates the whole-file CRC over everything written
// through it.
type storeCRCWriter struct {
	w   io.Writer
	crc uint32
}

func (cw *storeCRCWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.crc = crc32.Update(cw.crc, storeCRCTable, p[:n])
	return n, err
}

// storeCRCReader accumulates the same running CRC the writer computed.
type storeCRCReader struct {
	r   io.Reader
	crc uint32
}

func (cr *storeCRCReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.crc = crc32.Update(cr.crc, storeCRCTable, p[:n])
	return n, err
}

// Save serializes the database in the checksummed HMD2 format.
func (db *DB) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	cw := &storeCRCWriter{w: bw}
	le := binary.LittleEndian
	if _, err := io.WriteString(cw, storeMagicV2); err != nil {
		return err
	}
	var scratch [12]byte
	pairName := db.Pair.Name()
	le.PutUint32(scratch[0:4], uint32(len(pairName)))
	if _, err := cw.Write(scratch[:4]); err != nil {
		return err
	}
	if _, err := io.WriteString(cw, pairName); err != nil {
		return err
	}
	le.PutUint32(scratch[0:4], uint32(db.Objective))
	le.PutUint64(scratch[4:12], uint64(len(db.Samples)))
	if _, err := cw.Write(scratch[:12]); err != nil {
		return err
	}
	rec := make([]byte, 0, sampleRecordBase)
	for i := range db.Samples {
		rec = appendSampleRecord(rec[:0], &db.Samples[i])
		if _, err := cw.Write(rec); err != nil {
			return err
		}
		le.PutUint32(scratch[0:4], crc32.Checksum(rec, storeCRCTable))
		if _, err := cw.Write(scratch[:4]); err != nil {
			return err
		}
	}
	// Seal: whole-file CRC through the last record, the count again, and
	// the end magic. The seal itself sits outside the running CRC.
	le.PutUint32(scratch[0:4], cw.crc)
	le.PutUint64(scratch[4:12], uint64(len(db.Samples)))
	if _, err := bw.Write(scratch[:12]); err != nil {
		return err
	}
	if _, err := bw.WriteString(storeEndMagic); err != nil {
		return err
	}
	return bw.Flush()
}

// sampleRecordBase is a sample record's size before its aux blob: the
// features, the target, and the aux length prefix.
const sampleRecordBase = len(feature.Vector{})*8 + len(predict.Sample{}.Target)*8 + 4

// appendSampleRecord appends one sample's record bytes (sans CRC), with
// an aux length of 0.
func appendSampleRecord(rec []byte, s *predict.Sample) []byte {
	le := binary.LittleEndian
	var b [8]byte
	for _, f := range s.Features {
		le.PutUint64(b[:], math.Float64bits(f))
		rec = append(rec, b[:]...)
	}
	for _, t := range s.Target {
		le.PutUint64(b[:], math.Float64bits(t))
		rec = append(rec, b[:]...)
	}
	return append(rec, 0, 0, 0, 0)
}

// SaveFile writes the database to path atomically (write-temp + fsync +
// rename): a crash at any point leaves either the previous database or
// no file at all — never a torn prefix under the real name. LoadDB
// independently rejects torn input, so even a stray temp file can never
// be mistaken for a database. kill (nil in production) is the
// crash-injection seam: it can die the write at a deterministic byte
// offset under the "store" target, leaving exactly the torn temp a real
// kill -9 would.
func (db *DB) SaveFile(path string, kill durable.KillFunc) error {
	err := durable.WriteFileAtomic(path, "store", kill, db.Save)
	if err != nil {
		return fmt.Errorf("train: save %s: %w", path, err)
	}
	return nil
}

// LoadDBFile opens and deserializes a database written by SaveFile (or
// any writer of the Save format).
func LoadDBFile(path string) (*DB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("train: load %s: %w", path, err)
	}
	defer f.Close()
	return LoadDB(f)
}

// LoadDB deserializes a database saved by Save (either generation). The
// accelerator pair is re-resolved by name against the built-in catalog
// so the cost-model coefficients always come from the running binary,
// not the file.
func LoadDB(r io.Reader) (*DB, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("train: reading magic: %w", err)
	}
	switch string(magic) {
	case storeMagic:
		return loadLegacy(br)
	case storeMagicV2:
		return loadV2(br)
	}
	return nil, fmt.Errorf("train: bad magic %q", magic)
}

// loadV2 reads the checksummed format. Integrity failures wrap
// ErrCorrupt; format/catalog failures (unknown pair, implausible sizes)
// stay plain errors.
func loadV2(br *bufio.Reader) (*DB, error) {
	cr := &storeCRCReader{r: br}
	// The magic was consumed before dispatch; fold it back into the
	// running CRC so the seal covers the whole file.
	cr.crc = crc32.Update(0, storeCRCTable, []byte(storeMagicV2))
	le := binary.LittleEndian
	corrupt := func(format string, args ...any) error {
		return fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
	}
	var scratch [16]byte
	if _, err := io.ReadFull(cr, scratch[:4]); err != nil {
		return nil, corrupt("truncated header: %v", err)
	}
	nameLen := le.Uint32(scratch[:4])
	if nameLen > 1<<12 {
		return nil, fmt.Errorf("train: implausible pair-name length %d", nameLen)
	}
	nameBytes := make([]byte, nameLen)
	if _, err := io.ReadFull(cr, nameBytes); err != nil {
		return nil, corrupt("truncated header: %v", err)
	}
	pair, err := pairByName(string(nameBytes))
	if err != nil {
		return nil, err
	}
	if _, err := io.ReadFull(cr, scratch[:12]); err != nil {
		return nil, corrupt("truncated header: %v", err)
	}
	objective := le.Uint32(scratch[0:4])
	count := le.Uint64(scratch[4:12])
	if count > 1<<24 {
		return nil, fmt.Errorf("train: implausible sample count %d", count)
	}
	db := &DB{
		Pair:      pair,
		Limits:    pair.Limits(),
		Objective: Objective(objective),
		Samples:   make([]predict.Sample, count),
	}
	rec := make([]byte, sampleRecordBase)
	for i := range db.Samples {
		if _, err := io.ReadFull(cr, rec[:sampleRecordBase]); err != nil {
			return nil, corrupt("truncated at sample %d: %v", i, err)
		}
		auxLen := le.Uint32(rec[sampleRecordBase-4 : sampleRecordBase])
		if auxLen > 1<<20 {
			return nil, corrupt("sample %d: implausible aux length %d", i, auxLen)
		}
		recCRC := crc32.Checksum(rec[:sampleRecordBase], storeCRCTable)
		if auxLen > 0 {
			auxBytes := make([]byte, auxLen)
			if _, err := io.ReadFull(cr, auxBytes); err != nil {
				return nil, corrupt("truncated at sample %d aux: %v", i, err)
			}
			recCRC = crc32.Update(recCRC, storeCRCTable, auxBytes)
		}
		if _, err := io.ReadFull(cr, scratch[:4]); err != nil {
			return nil, corrupt("truncated at sample %d checksum: %v", i, err)
		}
		if le.Uint32(scratch[:4]) != recCRC {
			return nil, corrupt("sample %d checksum mismatch", i)
		}
		s := &db.Samples[i]
		off := 0
		for j := range s.Features {
			s.Features[j] = math.Float64frombits(le.Uint64(rec[off : off+8]))
			off += 8
		}
		for j := range s.Target {
			s.Target[j] = math.Float64frombits(le.Uint64(rec[off : off+8]))
			off += 8
		}
	}
	sealed := cr.crc
	// Footer sits outside the running CRC: seal, count echo, end magic.
	if _, err := io.ReadFull(br, scratch[:16]); err != nil {
		return nil, corrupt("unsealed: missing footer: %v", err)
	}
	if le.Uint32(scratch[0:4]) != sealed {
		return nil, corrupt("file checksum mismatch")
	}
	if le.Uint64(scratch[4:12]) != count {
		return nil, corrupt("footer count mismatch")
	}
	if string(scratch[12:16]) != storeEndMagic {
		return nil, corrupt("bad end magic %q", scratch[12:16])
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, corrupt("trailing bytes after seal")
	}
	return db, nil
}

// loadLegacy reads the pre-checksum HMDB format (compat path): parse
// checks only, since the generation carries nothing to verify.
func loadLegacy(br *bufio.Reader) (*DB, error) {
	read := func(v any) error { return binary.Read(br, binary.LittleEndian, v) }
	var nameLen uint32
	if err := read(&nameLen); err != nil {
		return nil, err
	}
	if nameLen > 1<<12 {
		return nil, fmt.Errorf("train: implausible pair-name length %d", nameLen)
	}
	nameBytes := make([]byte, nameLen)
	if _, err := io.ReadFull(br, nameBytes); err != nil {
		return nil, err
	}
	pair, err := pairByName(string(nameBytes))
	if err != nil {
		return nil, err
	}
	var objective uint32
	if err := read(&objective); err != nil {
		return nil, err
	}
	var count uint64
	if err := read(&count); err != nil {
		return nil, err
	}
	if count > 1<<24 {
		return nil, fmt.Errorf("train: implausible sample count %d", count)
	}
	db := &DB{
		Pair:      pair,
		Limits:    pair.Limits(),
		Objective: Objective(objective),
		Samples:   make([]predict.Sample, count),
	}
	for i := range db.Samples {
		s := &db.Samples[i]
		for j := range s.Features {
			if err := read(&s.Features[j]); err != nil {
				return nil, err
			}
		}
		for j := range s.Target {
			if err := read(&s.Target[j]); err != nil {
				return nil, err
			}
		}
	}
	return db, nil
}

// SaveLegacy writes the pre-checksum HMDB generation — kept so the
// compat tests and the load-overhead benchmark can produce authentic
// legacy files. New databases must use Save.
func (db *DB) SaveLegacy(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(storeMagic); err != nil {
		return err
	}
	write := func(v any) error { return binary.Write(bw, binary.LittleEndian, v) }
	pairName := db.Pair.Name()
	if err := write(uint32(len(pairName))); err != nil {
		return err
	}
	if _, err := bw.WriteString(pairName); err != nil {
		return err
	}
	if err := write(uint32(db.Objective)); err != nil {
		return err
	}
	if err := write(uint64(len(db.Samples))); err != nil {
		return err
	}
	for i := range db.Samples {
		s := &db.Samples[i]
		for _, f := range s.Features {
			if err := write(f); err != nil {
				return err
			}
		}
		for _, t := range s.Target {
			if err := write(t); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// pairByName resolves a saved pair identity against the Table II catalog.
func pairByName(name string) (machine.Pair, error) {
	for _, p := range machine.AllPairs() {
		if p.Name() == name {
			return p, nil
		}
	}
	return machine.Pair{}, fmt.Errorf("train: unknown accelerator pair %q", name)
}

// Lookup returns the stored M solution of the sample whose
// characterization is closest (squared Euclidean distance over the 17
// features) to f, with the distance. ok is false for an empty database.
func (db *DB) Lookup(f feature.Vector) (m config.M, dist float64, ok bool) {
	best := -1
	bestDist := 0.0
	for i := range db.Samples {
		d := 0.0
		for j := range f {
			diff := f[j] - db.Samples[i].Features[j]
			d += diff * diff
		}
		if best < 0 || d < bestDist {
			best, bestDist = i, d
		}
	}
	if best < 0 {
		return config.M{}, 0, false
	}
	return config.FromNormalized(db.Samples[best].Target, db.Limits), bestDist, true
}

// LookupPredictor wraps the profiler database as a predictor: the
// paper's pre-learning configuration path ("indexed using B,I tuples to
// get M solutions"). It needs no training beyond the database itself and
// serves as the non-parametric reference the learned models must beat in
// generalization.
type LookupPredictor struct {
	db *DB
}

// NewLookupPredictor wraps a database.
func NewLookupPredictor(db *DB) *LookupPredictor { return &LookupPredictor{db: db} }

// Name implements predict.Predictor.
func (l *LookupPredictor) Name() string { return "DB Lookup" }

// Predict implements predict.Predictor.
func (l *LookupPredictor) Predict(f feature.Vector) config.M {
	m, _, ok := l.db.Lookup(f)
	if !ok {
		return config.DefaultGPU(l.db.Limits)
	}
	return m
}
