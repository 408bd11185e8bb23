package obs

import (
	"encoding/json"
	"net/http"
	"sync"
	"time"
)

// SLO tracks service-level objectives — availability and p99 latency —
// over paired fast/slow sliding windows and derives Google-SRE-style
// burn rates: how many times faster than sustainable the error budget
// is being spent. An alert is active only while BOTH windows burn above
// the threshold (the multiwindow rule: the slow window proves the
// problem is real, the fast window proves it is still happening), which
// also makes alerts self-clearing once the fast window drains.
//
// All methods are nil-safe, mirroring the tracer: a serve or router
// process without objectives configured holds a nil *SLO and every
// Observe is a no-op.
type SLO struct {
	opts SLOOptions

	mu   sync.Mutex
	fast sloWindow
	slow sloWindow
}

// SLOOptions configure the objectives and windows; zero values select
// the defaults in parentheses.
type SLOOptions struct {
	// Availability is the availability objective, e.g. 0.999 (0.99).
	// The error budget is 1 - Availability.
	Availability float64
	// P99Latency is the latency objective: at most 1% of requests may
	// take longer than this (250ms). Zero keeps the default; negative
	// disables the latency objective.
	P99Latency time.Duration
	// FastWindow is the short burn-rate window (5m).
	FastWindow time.Duration
	// SlowWindow is the long burn-rate window (1h).
	SlowWindow time.Duration
	// AlertThreshold is the burn rate at which the multiwindow alert
	// fires (10): budget being spent ten times faster than sustainable.
	AlertThreshold float64
	// Now overrides the clock for deterministic tests (time.Now).
	Now func() time.Time
}

func (o SLOOptions) withDefaults() SLOOptions {
	if o.Availability <= 0 || o.Availability >= 1 {
		o.Availability = 0.99
	}
	if o.P99Latency == 0 {
		o.P99Latency = 250 * time.Millisecond
	}
	if o.FastWindow <= 0 {
		o.FastWindow = 5 * time.Minute
	}
	if o.SlowWindow <= 0 {
		o.SlowWindow = time.Hour
	}
	if o.SlowWindow < o.FastWindow {
		o.SlowWindow = o.FastWindow
	}
	if o.AlertThreshold <= 0 {
		o.AlertThreshold = 10
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// p99AllowedFraction is the violation budget of the latency objective:
// "p99 below X" means at most 1% of requests may exceed X.
const p99AllowedFraction = 0.01

// NewSLO builds an SLO tracker.
func NewSLO(o SLOOptions) *SLO {
	o = o.withDefaults()
	s := &SLO{opts: o}
	s.fast.init(o.FastWindow)
	s.slow.init(o.SlowWindow)
	return s
}

// Observe records one served request: whether it counted as available
// (no server-side failure) and how long it took. Cheap and alloc-free —
// a mutex and two array slots — so the serve handler calls it on every
// request.
func (s *SLO) Observe(ok bool, latency time.Duration) {
	if s == nil {
		return
	}
	latViol := latency > s.opts.P99Latency && s.opts.P99Latency > 0
	now := s.opts.Now()
	s.mu.Lock()
	s.fast.observe(now, !ok, latViol)
	s.slow.observe(now, !ok, latViol)
	s.mu.Unlock()
}

// SLOObjective is one objective's status within an SLOSnapshot.
type SLOObjective struct {
	// Name is "availability" or "p99_latency".
	Name string `json:"name"`
	// Objective restates the target: the availability fraction, or the
	// latency bound in seconds.
	Objective float64 `json:"objective"`
	// AllowedFraction is the violation budget (1-availability; 0.01).
	AllowedFraction float64 `json:"allowed_fraction"`
	// FastBurn / SlowBurn are the window burn rates: observed violation
	// rate divided by the allowed rate. 1.0 spends exactly the budget.
	FastBurn float64 `json:"fast_burn"`
	SlowBurn float64 `json:"slow_burn"`
	// BudgetRemaining is the unspent fraction of the slow-window error
	// budget, clamped to [0, 1].
	BudgetRemaining float64 `json:"budget_remaining"`
	// AlertActive is the multiwindow alert: both burns >= threshold.
	AlertActive bool `json:"alert_active"`
	// Requests / Violations count the slow window.
	Requests   uint64 `json:"requests"`
	Violations uint64 `json:"violations"`
}

// SLOSnapshot is the /v1/slo JSON body.
type SLOSnapshot struct {
	FastWindow     string         `json:"fast_window"`
	SlowWindow     string         `json:"slow_window"`
	AlertThreshold float64        `json:"alert_threshold"`
	Objectives     []SLOObjective `json:"objectives"`
	// Exhausted is true when any objective's budget remaining hit zero
	// — the signal the hedging machinery tightens on.
	Exhausted bool `json:"exhausted"`
	// AlertActive is true when any objective's multiwindow alert fires.
	AlertActive bool `json:"alert_active"`
}

// Snapshot computes the current burn rates and alert states.
func (s *SLO) Snapshot() SLOSnapshot {
	if s == nil {
		return SLOSnapshot{}
	}
	now := s.opts.Now()
	s.mu.Lock()
	fa, fl, ft := s.fast.totals(now)
	sa, sl, st := s.slow.totals(now)
	s.mu.Unlock()

	snap := SLOSnapshot{
		FastWindow:     s.opts.FastWindow.String(),
		SlowWindow:     s.opts.SlowWindow.String(),
		AlertThreshold: s.opts.AlertThreshold,
	}
	snap.Objectives = append(snap.Objectives,
		s.objective("availability", s.opts.Availability, 1-s.opts.Availability, fa, ft, sa, st))
	if s.opts.P99Latency > 0 {
		snap.Objectives = append(snap.Objectives,
			s.objective("p99_latency", s.opts.P99Latency.Seconds(), p99AllowedFraction, fl, ft, sl, st))
	}
	for _, o := range snap.Objectives {
		snap.Exhausted = snap.Exhausted || o.BudgetRemaining <= 0
		snap.AlertActive = snap.AlertActive || o.AlertActive
	}
	return snap
}

func (s *SLO) objective(name string, target, allowed float64, fastViol, fastTotal, slowViol, slowTotal uint64) SLOObjective {
	o := SLOObjective{
		Name:            name,
		Objective:       target,
		AllowedFraction: allowed,
		FastBurn:        burnRate(fastViol, fastTotal, allowed),
		SlowBurn:        burnRate(slowViol, slowTotal, allowed),
		Requests:        slowTotal,
		Violations:      slowViol,
	}
	o.BudgetRemaining = 1 - o.SlowBurn
	if o.BudgetRemaining < 0 {
		o.BudgetRemaining = 0
	}
	o.AlertActive = o.FastBurn >= s.opts.AlertThreshold && o.SlowBurn >= s.opts.AlertThreshold
	return o
}

// burnRate is the observed violation rate over the allowed rate; an
// empty window burns nothing.
func burnRate(viol, total uint64, allowed float64) float64 {
	if total == 0 || allowed <= 0 {
		return 0
	}
	return float64(viol) / float64(total) / allowed
}

// Exhausted reports whether any objective's slow-window error budget is
// fully spent — the "tighten hedging before the floor is breached"
// signal fed to the serve and router layers. Allocation-free so hot
// dispatch paths can ask per request.
func (s *SLO) Exhausted() bool {
	if s == nil {
		return false
	}
	now := s.opts.Now()
	s.mu.Lock()
	availViol, latViol, total := s.slow.totals(now)
	s.mu.Unlock()
	if burnRate(availViol, total, 1-s.opts.Availability) >= 1 {
		return true
	}
	return s.opts.P99Latency > 0 && burnRate(latViol, total, p99AllowedFraction) >= 1
}

// Families returns the SLO gauges of a /metrics page (none when s is
// nil).
func (s *SLO) Families() []Family {
	if s == nil {
		return nil
	}
	budget := Family{Name: "heteromap_slo_budget_remaining", Help: "Unspent fraction of the slow-window error budget.", Type: "gauge"}
	burn := Family{Name: "heteromap_slo_burn_rate", Help: "Error-budget burn rate per window (1 = sustainable).", Type: "gauge"}
	alert := Family{Name: "heteromap_slo_alert_active", Help: "Multiwindow burn-rate alert state (1 = firing).", Type: "gauge"}
	for _, o := range s.Snapshot().Objectives {
		objective := Label{"objective", o.Name}
		budget.Float(o.BudgetRemaining, objective)
		burn.Float(o.FastBurn, objective, Label{"window", "fast"})
		burn.Float(o.SlowBurn, objective, Label{"window", "slow"})
		alert.Bool(o.AlertActive, objective)
	}
	return []Family{budget, burn, alert}
}

// Handler serves the /v1/slo JSON snapshot.
func (s *SLO) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s == nil {
			http.Error(w, `{"error":"slo tracking disabled"}`, http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(s.Snapshot())
	})
}

// sloBucketCount fixes the window resolution: ~3% per bucket.
const sloBucketCount = 32

// sloWindow is one bucketed sliding window. Buckets are addressed by an
// absolute sequence number (now / bucketDur) so rotation is just
// zeroing the buckets skipped since the last touch — no timers.
type sloWindow struct {
	bucketDur time.Duration
	lastSeq   int64
	buckets   [sloBucketCount]sloBucket
}

type sloBucket struct {
	total     uint64
	availViol uint64
	latViol   uint64
}

func (w *sloWindow) init(span time.Duration) {
	w.bucketDur = span / sloBucketCount
	if w.bucketDur <= 0 {
		w.bucketDur = time.Millisecond
	}
	w.lastSeq = -1
}

// advance zeroes buckets between the last touched sequence and now.
func (w *sloWindow) advance(now time.Time) int64 {
	seq := now.UnixNano() / int64(w.bucketDur)
	if w.lastSeq < 0 {
		w.lastSeq = seq
		w.buckets = [sloBucketCount]sloBucket{}
		return seq
	}
	if gap := seq - w.lastSeq; gap > 0 {
		if gap >= sloBucketCount {
			w.buckets = [sloBucketCount]sloBucket{}
		} else {
			for s := w.lastSeq + 1; s <= seq; s++ {
				w.buckets[s%sloBucketCount] = sloBucket{}
			}
		}
		w.lastSeq = seq
	}
	return w.lastSeq
}

func (w *sloWindow) observe(now time.Time, availViol, latViol bool) {
	seq := w.advance(now)
	b := &w.buckets[seq%sloBucketCount]
	b.total++
	if availViol {
		b.availViol++
	}
	if latViol {
		b.latViol++
	}
}

func (w *sloWindow) totals(now time.Time) (availViol, latViol, total uint64) {
	w.advance(now)
	for i := range w.buckets {
		availViol += w.buckets[i].availViol
		latViol += w.buckets[i].latViol
		total += w.buckets[i].total
	}
	return
}
