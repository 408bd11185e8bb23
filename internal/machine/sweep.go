package machine

import "heteromap/internal/config"

// Sweep prices a job under every candidate of a fixed list on one pair:
// the exhaustive search behind the training database's targets, the
// conformance oracle's references, the single-accelerator baselines and
// the online ground truth. NewSweep clamps each candidate to its
// accelerator once. Price computes the job's soft-knob ideals and
// streaming chunks once, runs the phase loop once per run of candidates
// with equal loop knobs, and finishes every candidate from those sums.
// Evaluate is the same finish(loop(m)), so each price carries the exact
// bits Evaluate gives. A Sweep is immutable and safe for concurrent use.
type Sweep struct {
	accels [2]*Accel // indexed by side: the pair's GPU, then its multicore
	cands  []sweepCand
}

// sweepCand is one candidate, clamped to its accelerator's own limits.
type sweepCand struct {
	m    config.M
	loop loopKnobs
	side int
	// reuse marks a candidate whose loop knobs equal the previous
	// candidate's: it is finished from that candidate's loop sums.
	reuse bool
}

// Cost is one candidate's price: Report.Seconds and Report.EnergyJ.
type Cost struct {
	Seconds float64
	EnergyJ float64
}

// NewSweep prepares cands for pricing on pair; each candidate runs on
// pair.Select(m.Accelerator), as Evaluate callers select it.
func NewSweep(pair Pair, cands []config.M) *Sweep {
	s := &Sweep{accels: [2]*Accel{pair.GPU, pair.Multicore}, cands: make([]sweepCand, len(cands))}
	limits := [2]config.Limits{pair.GPU.selfLimits(), pair.Multicore.selfLimits()}
	for i := range cands {
		c := &s.cands[i]
		if cands[i].Accelerator != config.GPU {
			c.side = 1
		}
		c.m = cands[i].Clamp(limits[c.side])
		c.loop = loopKnobsOf(&c.m)
		c.reuse = i > 0 && s.cands[i-1].loop == c.loop
	}
	return s
}

// Price sets costs[i] to the seconds and energy Evaluate reports for job
// under candidate i. costs must hold one entry per candidate.
func (s *Sweep) Price(job Job, costs []Cost) {
	costs = costs[:len(s.cands)]
	base := newJobTerms(job.Work)
	terms := [2]jobTerms{base, base}
	for side, a := range s.accels {
		terms[side].chunks, terms[side].chunkFactor = a.chunking(job.FootprintBytes)
	}
	var rep Report
	var sums loopSums
	for i := range s.cands {
		c := &s.cands[i]
		a := s.accels[c.side]
		if !c.reuse {
			sums = a.loop(job.Work, &c.loop, &rep)
		}
		a.finish(&c.m, sums, &terms[c.side], &rep)
		costs[i] = Cost{Seconds: rep.Seconds, EnergyJ: rep.EnergyJ}
	}
}
