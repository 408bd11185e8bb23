package config

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func testLimits() Limits {
	return Limits{
		MaxCores: 61, MaxThreadsPerCore: 4, MaxSIMD: 16,
		MaxGlobalThreads: 8192, MaxLocalThreads: 256,
	}
}

func TestAccelString(t *testing.T) {
	if GPU.String() != "GPU" || Multicore.String() != "Multicore" {
		t.Fatal("accel strings")
	}
}

func TestScheduleString(t *testing.T) {
	names := map[Schedule]string{
		ScheduleStatic: "static", ScheduleDynamic: "dynamic",
		ScheduleGuided: "guided", ScheduleAuto: "auto",
	}
	for s, want := range names {
		if got := s.String(); got != want {
			t.Errorf("%d -> %q want %q", s, got, want)
		}
	}
	if !strings.Contains(Schedule(9).String(), "9") {
		t.Error("unknown schedule string")
	}
}

func TestClampForcesRanges(t *testing.T) {
	l := testLimits()
	m := M{
		Cores: 1000, ThreadsPerCore: -2, BlocktimeMS: 5000,
		PlaceCore: 2, PlaceThread: -1, Affinity: 9,
		SIMDWidth: 99, Schedule: Schedule(7), ChunkSize: 0,
		MaxActiveLevels: 10, SpinCount: -5,
		GlobalThreads: 1 << 30, LocalThreads: 0,
	}.Clamp(l)
	if m.Cores != 61 || m.ThreadsPerCore != 1 {
		t.Fatalf("cores/tpc %d/%d", m.Cores, m.ThreadsPerCore)
	}
	if m.BlocktimeMS != 1000 {
		t.Fatalf("blocktime %d", m.BlocktimeMS)
	}
	if m.PlaceCore != 1 || m.PlaceThread != 0 || m.Affinity != 1 {
		t.Fatal("placement clamp")
	}
	if m.SIMDWidth != 16 || m.Schedule != ScheduleStatic {
		t.Fatalf("simd/schedule %d/%v", m.SIMDWidth, m.Schedule)
	}
	if m.ChunkSize != 1 || m.MaxActiveLevels != 4 || m.SpinCount != 0 {
		t.Fatal("chunk/levels/spin clamp")
	}
	if m.GlobalThreads != 8192 || m.LocalThreads != 1 {
		t.Fatalf("gpu threads %d/%d", m.GlobalThreads, m.LocalThreads)
	}
}

func TestNormalizeRoundTripOnGrid(t *testing.T) {
	l := testLimits()
	for _, m := range Enumerate(l) {
		back := FromNormalized(m.Normalize(l), l)
		// The encode/decode round trip must preserve the discrete
		// choices that matter (accelerator, schedule, booleans) and be
		// close on scaled integers.
		if back.Accelerator != m.Accelerator {
			t.Fatalf("accelerator flipped: %v -> %v", m, back)
		}
		if back.Schedule != m.Schedule {
			t.Fatalf("schedule flipped: %v -> %v", m, back)
		}
		if geoFar(back.Cores, m.Cores) || geoFar(back.GlobalThreads, m.GlobalThreads) {
			t.Fatalf("thread counts drifted: %v -> %v", m, back)
		}
	}
}

func geoFar(a, b int) bool {
	if a < 1 {
		a = 1
	}
	if b < 1 {
		b = 1
	}
	r := float64(a) / float64(b)
	return r > 1.2 || r < 1/1.2
}

func TestNormalizedComponentsInRangeProperty(t *testing.T) {
	l := testLimits()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var v [NumVariables]float64
		for i := range v {
			v[i] = rng.Float64()*3 - 1 // deliberately out of range
		}
		m := FromNormalized(v, l)
		enc := m.Normalize(l)
		for _, x := range enc {
			if x < 0 || x > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestChoiceAccuracyReflexive(t *testing.T) {
	l := testLimits()
	for _, m := range Enumerate(l)[:20] {
		if acc := ChoiceAccuracy(m, m, l); acc != 1 {
			t.Fatalf("self accuracy %v", acc)
		}
	}
}

func TestChoiceAccuracyPenalizesAccelFlip(t *testing.T) {
	l := testLimits()
	a := DefaultGPU(l)
	b := a
	b.Accelerator = Multicore
	if acc := ChoiceAccuracy(a, b, l); acc >= 1 {
		t.Fatalf("accelerator flip not penalized: %v", acc)
	}
}

func TestChoiceAccuracyToleratesOneBin(t *testing.T) {
	l := testLimits()
	a := DefaultMulticore(l)
	b := a
	b.Cores = a.Cores - 5 // within one 0.1 bin of 61
	if acc := ChoiceAccuracy(a, b, l); acc != 1 {
		t.Fatalf("one-bin difference penalized: %v", acc)
	}
	b.Cores = 10 // far away
	if acc := ChoiceAccuracy(a, b, l); acc >= 1 {
		t.Fatal("large core difference not penalized")
	}
}

func TestDefaults(t *testing.T) {
	l := testLimits()
	g := DefaultGPU(l)
	if g.Accelerator != GPU || g.GlobalThreads != l.MaxGlobalThreads ||
		g.LocalThreads != l.MaxLocalThreads {
		t.Fatalf("gpu default %+v", g)
	}
	m := DefaultMulticore(l)
	if m.Accelerator != Multicore || m.Cores != l.MaxCores ||
		m.ThreadsPerCore != l.MaxThreadsPerCore {
		t.Fatalf("mc default %+v", m)
	}
}

func TestEnumerateCoverage(t *testing.T) {
	l := testLimits()
	gpu := EnumerateGPU(l)
	mc := EnumerateMulticore(l)
	if len(gpu) == 0 || len(mc) == 0 {
		t.Fatal("empty sweep grids")
	}
	all := Enumerate(l)
	if len(all) != len(gpu)+len(mc) {
		t.Fatal("union size")
	}
	for _, m := range gpu {
		if m.Accelerator != GPU {
			t.Fatal("gpu grid contains multicore config")
		}
	}
	for _, m := range mc {
		if m.Accelerator != Multicore {
			t.Fatal("mc grid contains gpu config")
		}
	}
	// Grids must include the extreme thread counts.
	foundMin, foundMax := false, false
	for _, m := range gpu {
		if m.GlobalThreads == 1 {
			foundMin = true
		}
		if m.GlobalThreads == l.MaxGlobalThreads {
			foundMax = true
		}
	}
	if !foundMin || !foundMax {
		t.Fatal("gpu sweep missing extremes")
	}
	if got := EnumerateFor(GPU, l); len(got) != len(gpu) {
		t.Fatal("EnumerateFor(GPU)")
	}
	if got := EnumerateFor(Multicore, l); len(got) != len(mc) {
		t.Fatal("EnumerateFor(Multicore)")
	}
}

func TestEnumerateAllValid(t *testing.T) {
	l := testLimits()
	for _, m := range Enumerate(l) {
		c := m.Clamp(l)
		if c != m {
			t.Fatalf("enumerated config not already clamped: %+v vs %+v", m, c)
		}
	}
}

func TestSnappedIdempotent(t *testing.T) {
	l := testLimits()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var v [NumVariables]float64
		for i := range v {
			v[i] = rng.Float64()
		}
		m := FromNormalized(v, l).Snapped(l)
		return m.Snapped(l) == m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// refSnapped is Snapped as it was before Grid: every call builds the
// level lists afresh.
func refSnapped(m M, l Limits) M {
	l = l.withDefaults()
	m = m.Clamp(l)
	var buf [8]int
	m.Cores = snapTo(m.Cores, appendLevels(buf[:0], l.MaxCores, 6))
	m.ThreadsPerCore = snapTo(m.ThreadsPerCore, appendLevels(buf[:0], l.MaxThreadsPerCore, 3))
	m.SIMDWidth = snapTo(m.SIMDWidth, appendLevels(buf[:0], l.MaxSIMD, 2))
	m.GlobalThreads = snapTo(m.GlobalThreads, appendLevels(buf[:0], l.MaxGlobalThreads, 8))
	m.LocalThreads = snapTo(m.LocalThreads, appendLevels(buf[:0], l.MaxLocalThreads, 6))
	m.BlocktimeMS = snapTo(m.BlocktimeMS, append(buf[:0], 1, 200, l.MaxBlocktimeMS))
	m.ChunkSize = snapTo(m.ChunkSize, append(buf[:0], 1, 64, 512, l.MaxChunk))
	return m
}

// A Grid built once snaps as Snapped did when it built the levels on
// every call: for decodes of random raw outputs (inside and outside
// [0, 1]) and for every M of the coarse grid, under four sets of
// limits, the last collapsing every level list to one level.
func TestGridSnapMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, l := range []Limits{
		testLimits(),
		{MaxCores: 4, MaxThreadsPerCore: 2, MaxSIMD: 8, MaxGlobalThreads: 2048, MaxLocalThreads: 1024},
		{MaxCores: 61, MaxThreadsPerCore: 4, MaxSIMD: 16, MaxGlobalThreads: 8192, MaxLocalThreads: 256,
			MaxBlocktimeMS: 500, MaxChunk: 1000},
		{MaxCores: 1, MaxThreadsPerCore: 1, MaxSIMD: 1, MaxGlobalThreads: 1, MaxLocalThreads: 1},
	} {
		g := NewGrid(l)
		check := func(m M) {
			t.Helper()
			if got, want := g.Snap(m), refSnapped(m, l); got != want {
				t.Fatalf("limits %+v: Grid.Snap(%+v) = %+v, reference %+v", l, m, got, want)
			}
			if got, want := m.Snapped(l), refSnapped(m, l); got != want {
				t.Fatalf("limits %+v: Snapped(%+v) = %+v, reference %+v", l, m, got, want)
			}
		}
		for i := 0; i < 2000; i++ {
			var v [NumVariables]float64
			for j := range v {
				v[j] = 1.4*rng.Float64() - 0.2
			}
			check(FromNormalized(v, l))
		}
		for _, m := range Enumerate(l) {
			check(m)
		}
	}
}

func TestSnappedLandsOnGridLevels(t *testing.T) {
	l := testLimits()
	m := M{Accelerator: Multicore, Cores: 30, ThreadsPerCore: 3, SIMDWidth: 9,
		GlobalThreads: 3000, LocalThreads: 100, BlocktimeMS: 150, ChunkSize: 100}.Snapped(l)
	lv := levels(l.MaxCores, 6)
	found := false
	for _, v := range lv {
		if m.Cores == v {
			found = true
		}
	}
	if !found {
		t.Fatalf("snapped cores %d not on grid %v", m.Cores, lv)
	}
}

func TestLevels(t *testing.T) {
	lv := levels(61, 6)
	if lv[0] != 1 || lv[len(lv)-1] != 61 {
		t.Fatalf("levels endpoints %v", lv)
	}
	for i := 1; i < len(lv); i++ {
		if lv[i] <= lv[i-1] {
			t.Fatalf("levels not increasing: %v", lv)
		}
	}
	if got := levels(1, 5); len(got) != 1 || got[0] != 1 {
		t.Fatalf("levels(1)=%v", got)
	}
}

func TestMString(t *testing.T) {
	l := testLimits()
	if s := DefaultGPU(l).String(); !strings.Contains(s, "GPU") {
		t.Fatalf("gpu string %q", s)
	}
	if s := DefaultMulticore(l).String(); !strings.Contains(s, "cores=") {
		t.Fatalf("mc string %q", s)
	}
}

func TestDiscretizeChoicesEnumsExact(t *testing.T) {
	l := testLimits()
	m := DefaultMulticore(l)
	m.Schedule = ScheduleGuided
	d := m.DiscretizeChoices(l)
	if d[0] != int(Multicore) {
		t.Fatalf("accel choice %d", d[0])
	}
	if d[10] != int(ScheduleGuided) {
		t.Fatalf("schedule choice %d", d[10])
	}
}
