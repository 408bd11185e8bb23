package serve

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"heteromap/internal/fault"
)

// A queue-full 503 must carry the anti-stampede backoff hint: standard
// Retry-After in whole seconds plus the millisecond-precision header.
func TestQueueFullRejectCarriesRetryAfter(t *testing.T) {
	inj := fault.NewServeInjector(1)
	inj.SetServeProfile(fault.ServeProfile{QueueRejectRate: 1})
	_, ts := newTestServer(t, Options{Chaos: inj})

	resp, body := postJSON(t, ts.URL+"/v1/predict", PredictRequest{
		Bench: "BFS", Vertices: 1e6, Edges: 1e7, MaxDegree: 500, Diameter: 20,
	})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	sec, err := strconv.ParseInt(resp.Header.Get("Retry-After"), 10, 64)
	if err != nil || sec < 1 {
		t.Fatalf("Retry-After = %q, want integer >= 1 (err %v)", resp.Header.Get("Retry-After"), err)
	}
	ms, err := strconv.ParseInt(resp.Header.Get(RetryAfterMSHeader), 10, 64)
	if err != nil || ms < 5 || ms > 5000 {
		t.Fatalf("%s = %q, want ms within the hint clamp (err %v)",
			RetryAfterMSHeader, resp.Header.Get(RetryAfterMSHeader), err)
	}
	// The precise hint must not exceed the coarse one.
	if time.Duration(ms)*time.Millisecond > time.Duration(sec)*time.Second {
		t.Fatalf("ms hint %d exceeds Retry-After %ds", ms, sec)
	}
}

// Successful predictions do not carry backoff headers — only sheds do.
func TestSuccessCarriesVersionNotRetryAfter(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, body := postJSON(t, ts.URL+"/v1/predict", PredictRequest{
		Bench: "BFS", Vertices: 1e6, Edges: 1e7, MaxDegree: 500, Diameter: 20,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Retry-After"); got != "" {
		t.Fatalf("200 carried Retry-After %q", got)
	}
	if got := resp.Header.Get(VersionHeader); got != "1" {
		t.Fatalf("%s = %q, want 1", VersionHeader, got)
	}
}

func TestRetryAfterHintStaysClamped(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	d := s.RetryAfterHint()
	if d < 5*time.Millisecond || d > 5*time.Second {
		t.Fatalf("hint %v outside [5ms, 5s]", d)
	}
}

func TestRetryAfterFromPrefersPreciseHeader(t *testing.T) {
	mk := func(sec, ms string) *http.Response {
		h := http.Header{}
		if sec != "" {
			h.Set("Retry-After", sec)
		}
		if ms != "" {
			h.Set(RetryAfterMSHeader, ms)
		}
		return &http.Response{Header: h}
	}
	for _, tc := range []struct {
		sec, ms string
		want    time.Duration
	}{
		{"2", "12", 12 * time.Millisecond}, // precise wins
		{"2", "", 2 * time.Second},         // coarse fallback
		{"", "40", 40 * time.Millisecond},
		{"", "", 0},
		{"junk", "junk", 0},
		{"-1", "-5", 0},
	} {
		if got := retryAfterFrom(mk(tc.sec, tc.ms)); got != tc.want {
			t.Fatalf("retryAfterFrom(sec=%q, ms=%q) = %v, want %v", tc.sec, tc.ms, got, tc.want)
		}
	}
}

func TestSleepJitteredCapsAndRespectsDeadline(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// A hostile 1-hour hint must cost at most the 250ms cap.
	start := time.Now()
	sleepJittered(rng, time.Hour, time.Now().Add(time.Second))
	if waited := time.Since(start); waited > maxRetryBackoff+100*time.Millisecond {
		t.Fatalf("capped sleep took %v, cap is %v", waited, maxRetryBackoff)
	}
	// A past deadline means no sleep at all.
	start = time.Now()
	sleepJittered(rng, 200*time.Millisecond, time.Now().Add(-time.Second))
	if waited := time.Since(start); waited > 50*time.Millisecond {
		t.Fatalf("post-deadline sleep took %v, want ~0", waited)
	}
}

// The load generator must honor the server's backoff hint: against a
// node that sheds every request with a Retry-After, the client backs off
// (counted) instead of hammering at full speed.
func TestLoadGenHonorsRetryAfterBackoff(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/predict", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Retry-After", "1")
		w.Header().Set(RetryAfterMSHeader, "20")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprint(w, `{"error":"serve: prediction queue full"}`)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	res, err := RunLoadGen(LoadGenOptions{
		URL:         ts.URL,
		Duration:    200 * time.Millisecond,
		Concurrency: 2,
		Combos:      4,
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Backoffs == 0 {
		t.Fatal("client never honored the Retry-After hint")
	}
	if res.Backoffs != res.Errors {
		t.Fatalf("backoffs %d != shed errors %d: some 503 hints were ignored", res.Backoffs, res.Errors)
	}
	// Honoring ~20ms of backoff per request bounds the hammer rate: two
	// workers over 200ms can land at most ~10 requests each plus slack.
	if res.Requests > 60 {
		t.Fatalf("%d requests in 200ms despite 20ms backoff hints: client is stampeding", res.Requests)
	}
}
