package fault

import (
	"strings"
	"testing"

	"heteromap/internal/config"
	"heteromap/internal/machine"
)

func execSetup() (machine.Pair, config.Limits, config.M, machine.Job) {
	pair := machine.PrimaryPair()
	limits := pair.Limits()
	return pair, limits, config.DefaultGPU(limits), testJob()
}

func TestExecuteFaultFree(t *testing.T) {
	pair, limits, m, job := execSetup()
	res := Execute(pair, limits, m, job, "BFS-FB", nil, DefaultPolicy(), nil)
	if !res.Completed || res.FailedOver || res.Attempts != 1 || res.Retries != 0 {
		t.Fatalf("fault-free execution degraded: %+v", res)
	}
	clean := pair.GPU.Evaluate(job, m)
	if res.TotalSeconds() != clean.Seconds {
		t.Fatalf("fault-free charge %v, clean %v", res.TotalSeconds(), clean.Seconds)
	}
	if res.MCSeconds != 0 {
		t.Fatal("fault-free GPU job charged the multicore")
	}
}

func TestExecuteRetriesThenSucceeds(t *testing.T) {
	pair, limits, m, job := execSetup()
	// Find a seed/key whose first GPU attempt fails but a later one
	// succeeds within the retry budget.
	var inj *Injector
	key := ""
	for seed := int64(1); seed < 200 && key == ""; seed++ {
		cand := NewInjector(seed).SetProfile(config.GPU, Profile{TransientRate: 0.5})
		if cand.ShouldFail(config.GPU, "job", 0) && !cand.ShouldFail(config.GPU, "job", 1) {
			inj, key = cand, "job"
		}
	}
	if key == "" {
		t.Fatal("no suitable seed found")
	}
	res := Execute(pair, limits, m, job, key, inj, DefaultPolicy(), nil)
	if !res.Completed || res.FailedOver {
		t.Fatalf("retry did not recover: %+v", res)
	}
	if res.Attempts != 2 || res.Retries != 1 {
		t.Fatalf("attempts=%d retries=%d", res.Attempts, res.Retries)
	}
	if res.BackoffSeconds <= 0 {
		t.Fatal("retry without backoff charge")
	}
	clean := pair.GPU.Evaluate(job, m)
	// Both attempts plus the backoff must be charged to the GPU.
	wantMin := clean.Seconds*2 + res.BackoffSeconds
	if res.GPUSeconds < wantMin*(1-1e-9) {
		t.Fatalf("GPU charge %v, want >= %v", res.GPUSeconds, wantMin)
	}
	if res.LostSeconds() <= 0 {
		t.Fatal("no lost time accounted")
	}
}

func TestExecuteFailsOver(t *testing.T) {
	pair, limits, m, job := execSetup()
	// GPU always fails, multicore is clean: the job must fail over.
	inj := NewInjector(3).SetProfile(config.GPU, Profile{TransientRate: 1})
	pol := DefaultPolicy()
	res := Execute(pair, limits, m, job, "BFS-FB", inj, pol, nil)
	if !res.Completed || !res.FailedOver {
		t.Fatalf("no failover: %+v", res)
	}
	if res.Side != config.Multicore || res.FinalM.Accelerator != config.Multicore {
		t.Fatalf("final side %v", res.Side)
	}
	if res.Attempts != pol.MaxRetries+2 {
		t.Fatalf("attempts %d want %d", res.Attempts, pol.MaxRetries+2)
	}
	if res.MigrationSeconds <= 0 {
		t.Fatal("failover without migration charge")
	}
	if res.GPUSeconds <= 0 || res.MCSeconds <= 0 {
		t.Fatalf("charges GPU=%v MC=%v", res.GPUSeconds, res.MCSeconds)
	}
	// The re-targeted M must carry deployable multicore knobs.
	if res.FinalM.Cores < 1 || res.FinalM.Cores*res.FinalM.ThreadsPerCore < 1 {
		t.Fatalf("failover M undeployable: %+v", res.FinalM)
	}
}

func TestExecuteBothSidesDown(t *testing.T) {
	pair, limits, m, job := execSetup()
	inj := NewInjector(3).
		SetProfile(config.GPU, Profile{TransientRate: 1}).
		SetProfile(config.Multicore, Profile{TransientRate: 1})
	res := Execute(pair, limits, m, job, "BFS-FB", inj, DefaultPolicy(), nil)
	if res.Completed {
		t.Fatal("completed with both sides at 100% failure")
	}
	if !res.FailedOver || res.Report.Seconds <= 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
	found := false
	for _, e := range res.Events {
		if strings.Contains(e, "both accelerators") {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing both-sides event: %v", res.Events)
	}
}

func TestExecuteOpenBreakerSkipsBrokenSide(t *testing.T) {
	pair, limits, m, job := execSetup()
	pol := DefaultPolicy()
	brs := NewBreakers(pol)
	for i := 0; i < pol.BreakerThreshold; i++ {
		brs.Side(config.GPU).RecordFailure()
	}
	if brs.Side(config.GPU).State() != BreakerOpen {
		t.Fatal("setup: breaker not open")
	}
	res := Execute(pair, limits, m, job, "BFS-FB", nil, pol, brs)
	if !res.Completed || !res.FailedOver {
		t.Fatalf("open breaker not honored: %+v", res)
	}
	if res.Side != config.Multicore {
		t.Fatalf("ran on broken side: %v", res.Side)
	}
	if res.GPUSeconds != 0 {
		t.Fatalf("charged the skipped side: %v", res.GPUSeconds)
	}
	if res.Attempts != 1 {
		t.Fatalf("attempts %d", res.Attempts)
	}
}

func TestExecuteBreakerRecovers(t *testing.T) {
	// A run of failures opens the GPU breaker; after the cooldown, a
	// half-open probe on a now-healthy GPU closes it again.
	pair, limits, m, job := execSetup()
	pol := Policy{MaxRetries: 1, BreakerThreshold: 2, BreakerCooldown: 2}
	brs := NewBreakers(pol.withDefaults())
	down := NewInjector(5).SetProfile(config.GPU, Profile{TransientRate: 1})
	Execute(pair, limits, m, job, "j0", down, pol, brs)
	if brs.Side(config.GPU).State() != BreakerOpen {
		t.Fatalf("GPU breaker state %v after total failure", brs.Side(config.GPU).State())
	}
	// While open, GPU-predicted jobs go straight to the multicore.
	r := Execute(pair, limits, m, job, "j1", nil, pol, brs)
	if r.Side != config.Multicore || r.GPUSeconds != 0 {
		t.Fatal("open breaker did not redirect")
	}
	// Keep dispatching until the cooldown admits a probe; the fault is
	// gone, so the probe succeeds and the circuit closes.
	closed := false
	for i := 0; i < 10; i++ {
		res := Execute(pair, limits, m, job, "probe", nil, pol, brs)
		if !res.Completed {
			t.Fatalf("probe round %d incomplete", i)
		}
		if brs.Side(config.GPU).State() == BreakerClosed {
			closed = true
			break
		}
	}
	if !closed {
		t.Fatal("breaker never recovered")
	}
}
