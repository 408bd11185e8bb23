package online

import (
	"sort"
	"sync"
)

// Detector tracks realized-vs-predicted cost gaps per model family and
// per discretized feature cell, and raises a drift signal when a
// family's smoothed gap stays above threshold for a full window of
// consecutive observations. The statistic is the conformance oracle's:
// gap = cost(chosen M)/cost(exhaustive best M) - 1, so "drift" means
// exactly "the live predictor has moved away from what the offline
// conformance suite would accept".
//
// The EWMA seeds from the first observation (not from zero), so a
// workload that arrives already shifted signals after one window rather
// than waiting for the average to climb. Zero-gap feedback keeps the
// EWMA at its floor and can never signal — optimal serving is
// drift-free by construction (property-tested).
type Detector struct {
	// Alpha is the EWMA smoothing factor in (0, 1]; higher reacts faster.
	Alpha float64
	// Threshold is the smoothed-gap level that counts as "over".
	Threshold float64
	// Window is how many consecutive over-threshold observations arm the
	// signal.
	Window int

	mu       sync.Mutex
	families map[string]*familyStats
	cells    map[string]*cellStats
}

// familyStats is the drift state for one model family.
type familyStats struct {
	ewma     float64
	n        uint64
	over     int  // consecutive observations with ewma > threshold
	drifting bool // signal currently armed
	signals  uint64
}

// cellStats accumulates the realized gaps of one discretized feature
// cell. Snapshots persist them, but the drift metrics read only how many
// cells there are.
type cellStats struct {
	n    uint64
	sum  float64
	ewma float64
}

// NewDetector builds a detector; non-positive parameters take the
// package defaults.
func NewDetector(alpha, threshold float64, window int) *Detector {
	if alpha <= 0 || alpha > 1 {
		alpha = DefaultDriftAlpha
	}
	if threshold <= 0 {
		threshold = DefaultDriftThreshold
	}
	if window <= 0 {
		window = DefaultDriftWindow
	}
	return &Detector{
		Alpha:     alpha,
		Threshold: threshold,
		Window:    window,
		families:  make(map[string]*familyStats),
		cells:     make(map[string]*cellStats),
	}
}

// Observe feeds one realized gap for a model family and feature cell.
// It returns true on the rising edge of the family's drift signal.
func (d *Detector) Observe(model, cell string, gap float64) bool {
	if gap < 0 {
		gap = 0 // the exhaustive best bounds realizable cost from below
	}
	d.mu.Lock()
	defer d.mu.Unlock()

	cs := d.cells[cell]
	if cs == nil {
		cs = &cellStats{ewma: gap}
		d.cells[cell] = cs
	} else {
		cs.ewma += d.Alpha * (gap - cs.ewma)
	}
	cs.n++
	cs.sum += gap

	fs := d.families[model]
	if fs == nil {
		fs = &familyStats{ewma: gap}
		d.families[model] = fs
	} else {
		fs.ewma += d.Alpha * (gap - fs.ewma)
	}
	fs.n++

	rising := false
	switch {
	case fs.ewma > d.Threshold:
		fs.over++
		if fs.over >= d.Window && !fs.drifting {
			fs.drifting = true
			fs.signals++
			rising = true
		}
	case fs.ewma < d.Threshold/2:
		// Hysteresis: only a clearly-recovered EWMA disarms, so the
		// signal doesn't chatter around the threshold.
		fs.over = 0
		fs.drifting = false
	default:
		fs.over = 0
	}
	return rising
}

// Drifting reports whether a family's signal is currently armed.
func (d *Detector) Drifting(model string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	fs := d.families[model]
	return fs != nil && fs.drifting
}

// EWMA returns a family's smoothed gap (0 if never observed).
func (d *Detector) EWMA(model string) float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if fs := d.families[model]; fs != nil {
		return fs.ewma
	}
	return 0
}

// Signals returns how many times a family's drift signal has risen.
func (d *Detector) Signals(model string) uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if fs := d.families[model]; fs != nil {
		return fs.signals
	}
	return 0
}

// ClearSignal disarms a family's signal and resets its streak. The
// manager calls this after every retrain attempt — promoted or rejected
// — so one drift episode triggers one retrain, not a hot loop; fresh
// over-threshold evidence must accumulate for a full window to re-arm.
func (d *Detector) ClearSignal(model string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if fs := d.families[model]; fs != nil {
		fs.drifting = false
		fs.over = 0
	}
}

// CellGap reports a cell's observation count, mean gap, and smoothed
// gap.
func (d *Detector) CellGap(cell string) (n uint64, mean, ewma float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	cs := d.cells[cell]
	if cs == nil || cs.n == 0 {
		return 0, 0, 0
	}
	return cs.n, cs.sum / float64(cs.n), cs.ewma
}

// Cells reports how many distinct feature cells have been observed.
func (d *Detector) Cells() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.cells)
}

// ResetCells drops the per-cell statistics (the manager does this after
// a promotion so post-promotion cell gaps measure the new model alone).
func (d *Detector) ResetCells() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.cells = make(map[string]*cellStats)
}

// familySnapshot is one family's exported drift state.
type familySnapshot struct {
	Model    string  `json:"model"`
	EWMA     float64 `json:"ewma"`
	N        uint64  `json:"observations"`
	Over     int     `json:"over_streak"`
	Drifting bool    `json:"drifting"`
	Signals  uint64  `json:"signals"`
}

// familySnapshots copies every family's state for metrics and /v1/online.
func (d *Detector) familySnapshots() []familySnapshot {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]familySnapshot, 0, len(d.families))
	for name, fs := range d.families {
		out = append(out, familySnapshot{
			Model: name, EWMA: fs.ewma, N: fs.n,
			Over: fs.over, Drifting: fs.drifting, Signals: fs.signals,
		})
	}
	return out
}

// cellSnapshot is one discretized cell's exported gap statistics.
type cellSnapshot struct {
	Cell string  `json:"cell"`
	N    uint64  `json:"observations"`
	Sum  float64 `json:"gap_sum"`
	EWMA float64 `json:"ewma"`
}

// detectorState is the detector's full serializable state, embedded in
// the durable window snapshot so drift evidence survives a restart.
// Both slices are sorted by key, so equal states marshal identically —
// the equivalence the warm-restart tests assert.
type detectorState struct {
	Families []familySnapshot `json:"families"`
	Cells    []cellSnapshot   `json:"cells"`
}

// state exports the detector for a snapshot.
func (d *Detector) state() detectorState {
	st := detectorState{Families: d.familySnapshots()}
	sort.Slice(st.Families, func(i, j int) bool { return st.Families[i].Model < st.Families[j].Model })
	d.mu.Lock()
	st.Cells = make([]cellSnapshot, 0, len(d.cells))
	for cell, cs := range d.cells {
		st.Cells = append(st.Cells, cellSnapshot{Cell: cell, N: cs.n, Sum: cs.sum, EWMA: cs.ewma})
	}
	d.mu.Unlock()
	sort.Slice(st.Cells, func(i, j int) bool { return st.Cells[i].Cell < st.Cells[j].Cell })
	return st
}

// restore replaces the detector's state with a snapshot's. Observations
// replayed from the WAL afterwards continue the statistics exactly as
// if the process had never died.
func (d *Detector) restore(st detectorState) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.families = make(map[string]*familyStats, len(st.Families))
	for _, f := range st.Families {
		d.families[f.Model] = &familyStats{
			ewma: f.EWMA, n: f.N, over: f.Over, drifting: f.Drifting, signals: f.Signals,
		}
	}
	d.cells = make(map[string]*cellStats, len(st.Cells))
	for _, c := range st.Cells {
		d.cells[c.Cell] = &cellStats{n: c.N, sum: c.Sum, ewma: c.EWMA}
	}
}
