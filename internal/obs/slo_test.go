package obs

import (
	"math"
	"strings"
	"testing"
	"time"
)

// sloClock is a hand-advanced clock for deterministic window tests.
type sloClock struct{ now time.Time }

func (c *sloClock) Now() time.Time { return c.now }

func newTestSLO(c *sloClock) *SLO {
	return NewSLO(SLOOptions{
		Availability:   0.99,
		P99Latency:     100 * time.Millisecond,
		FastWindow:     32 * time.Second,
		SlowWindow:     320 * time.Second,
		AlertThreshold: 5,
		Now:            c.Now,
	})
}

func objByName(t *testing.T, snap SLOSnapshot, name string) SLOObjective {
	t.Helper()
	for _, o := range snap.Objectives {
		if o.Name == name {
			return o
		}
	}
	t.Fatalf("objective %q missing from snapshot %+v", name, snap)
	return SLOObjective{}
}

func TestSLOHealthyTrafficBurnsNothing(t *testing.T) {
	c := &sloClock{now: time.Unix(1000, 0)}
	s := newTestSLO(c)
	for i := 0; i < 100; i++ {
		s.Observe(true, time.Millisecond)
	}
	snap := s.Snapshot()
	avail := objByName(t, snap, "availability")
	if avail.FastBurn != 0 || avail.SlowBurn != 0 {
		t.Fatalf("healthy traffic burned budget: %+v", avail)
	}
	if avail.BudgetRemaining != 1 {
		t.Fatalf("budget remaining = %v, want 1", avail.BudgetRemaining)
	}
	if snap.AlertActive || snap.Exhausted {
		t.Fatalf("healthy traffic alerted: %+v", snap)
	}
}

func TestSLOStormFiresAndClears(t *testing.T) {
	c := &sloClock{now: time.Unix(1000, 0)}
	s := newTestSLO(c)
	// Calm baseline, then a storm with a 50% failure rate: violation
	// rate 0.25 over a 0.01 budget = burn 25, over the threshold of 5
	// in both windows.
	for i := 0; i < 100; i++ {
		s.Observe(true, time.Millisecond)
	}
	for i := 0; i < 100; i++ {
		s.Observe(i%2 == 0, time.Millisecond)
	}
	snap := s.Snapshot()
	avail := objByName(t, snap, "availability")
	if got, want := avail.SlowBurn, 25.0; math.Abs(got-want) > 1e-9 {
		t.Fatalf("slow burn = %v, want %v", got, want)
	}
	if !avail.AlertActive || !snap.AlertActive {
		t.Fatalf("storm did not fire the multiwindow alert: %+v", avail)
	}
	if avail.BudgetRemaining != 0 || !snap.Exhausted {
		t.Fatalf("storm should exhaust the budget: %+v", avail)
	}

	// The fast window drains after the storm: the alert clears even
	// though the slow window still remembers the violations.
	c.now = c.now.Add(40 * time.Second)
	for i := 0; i < 100; i++ {
		s.Observe(true, time.Millisecond)
	}
	snap = s.Snapshot()
	avail = objByName(t, snap, "availability")
	if avail.FastBurn != 0 {
		t.Fatalf("fast window did not drain: %+v", avail)
	}
	if avail.SlowBurn == 0 {
		t.Fatalf("slow window forgot the storm too early: %+v", avail)
	}
	if avail.AlertActive || snap.AlertActive {
		t.Fatalf("alert should clear once the fast window drains: %+v", avail)
	}

	// And the slow window eventually forgets: full budget restored.
	c.now = c.now.Add(400 * time.Second)
	s.Observe(true, time.Millisecond)
	avail = objByName(t, s.Snapshot(), "availability")
	if avail.SlowBurn != 0 || avail.BudgetRemaining != 1 {
		t.Fatalf("slow window did not recover: %+v", avail)
	}
}

func TestSLOLatencyObjective(t *testing.T) {
	c := &sloClock{now: time.Unix(2000, 0)}
	s := newTestSLO(c)
	// 1 slow request in 200 = 0.5% violations against a 1% budget:
	// burn 0.5, half the budget spent, no alert.
	for i := 0; i < 200; i++ {
		lat := time.Millisecond
		if i == 7 {
			lat = 300 * time.Millisecond
		}
		s.Observe(true, lat)
	}
	snap := s.Snapshot()
	p99 := objByName(t, snap, "p99_latency")
	if got, want := p99.SlowBurn, 0.5; math.Abs(got-want) > 1e-9 {
		t.Fatalf("latency burn = %v, want %v", got, want)
	}
	if got, want := p99.BudgetRemaining, 0.5; math.Abs(got-want) > 1e-9 {
		t.Fatalf("latency budget remaining = %v, want %v", got, want)
	}
	if p99.AlertActive {
		t.Fatalf("half-spent latency budget must not alert: %+v", p99)
	}
	if avail := objByName(t, snap, "availability"); avail.SlowBurn != 0 {
		t.Fatalf("slow-but-available requests must not burn availability: %+v", avail)
	}
}

func TestSLONilSafe(t *testing.T) {
	var s *SLO
	s.Observe(true, time.Second)
	if s.Exhausted() {
		t.Fatal("nil SLO reports exhausted")
	}
	if snap := s.Snapshot(); len(snap.Objectives) != 0 {
		t.Fatalf("nil SLO snapshot not empty: %+v", snap)
	}
	if fams := s.Families(); fams != nil {
		t.Fatalf("nil SLO has metric families: %+v", fams)
	}
}

func TestSLOPrometheusGauges(t *testing.T) {
	c := &sloClock{now: time.Unix(3000, 0)}
	s := newTestSLO(c)
	for i := 0; i < 100; i++ {
		s.Observe(i%2 == 0, time.Millisecond)
	}
	var sb strings.Builder
	WriteText(&sb, s.Families())
	text := sb.String()
	for _, want := range []string{
		`heteromap_slo_budget_remaining{objective="availability"} 0`,
		`heteromap_slo_burn_rate{objective="availability",window="fast"} `,
		`heteromap_slo_burn_rate{objective="availability",window="slow"} `,
		`heteromap_slo_alert_active{objective="availability"} 1`,
		`heteromap_slo_alert_active{objective="p99_latency"} 0`,
		"# TYPE heteromap_slo_burn_rate gauge",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}

// The SLO gauges are pinned byte for byte: 1000 requests, 3 of them
// failed and 20 over the latency objective.
func TestSLOExpositionGolden(t *testing.T) {
	c := &sloClock{now: time.Unix(3000, 0)}
	s := newTestSLO(c)
	for i := 0; i < 1000; i++ {
		lat := time.Millisecond
		if i%50 == 0 {
			lat = time.Second
		}
		s.Observe(i%333 != 1, lat)
	}
	var sb strings.Builder
	WriteText(&sb, s.Families())
	checkGolden(t, "slo_golden.txt", sb.String())
}

func TestSLOWindowRotationZeroesStaleBuckets(t *testing.T) {
	c := &sloClock{now: time.Unix(4000, 0)}
	s := newTestSLO(c)
	s.Observe(false, time.Millisecond)
	// A gap far longer than both windows wipes everything.
	c.now = c.now.Add(time.Hour)
	avail := objByName(t, s.Snapshot(), "availability")
	if avail.SlowBurn != 0 || avail.Requests != 0 {
		t.Fatalf("stale buckets survived rotation: %+v", avail)
	}
}
