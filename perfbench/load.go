package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// client is one closed-loop caller on its own keep-alive connection.
type client struct {
	hc     *http.Client
	rng    *rand.Rand
	cursor int
	buf    bytes.Buffer
}

// closedLoop runs closed loops of clients over a workload's request pool.
type closedLoop struct {
	w       workload
	pool    []request
	clients []*client
	// dials counts TCP connections the clients opened since the first
	// warm-up request; more than one per client means a run measured
	// handshakes.
	dials atomic.Int64
}

func newClosedLoop(w workload, pool []request, clients int, seed int64) *closedLoop {
	d := &closedLoop{w: w, pool: pool}
	dialer := &net.Dialer{}
	for c := 0; c < clients; c++ {
		tr := &http.Transport{
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				d.dials.Add(1)
				return dialer.DialContext(ctx, network, addr)
			},
		}
		d.clients = append(d.clients, &client{
			hc:     &http.Client{Transport: tr, Timeout: 10 * time.Second},
			rng:    rand.New(rand.NewSource(seed*1000003 + int64(c))),
			cursor: c,
		})
	}
	return d
}

func (d *closedLoop) close() {
	for _, c := range d.clients {
		c.hc.CloseIdleConnections()
	}
}

// next picks client c's next request from the pool.
func (d *closedLoop) next(c *client) *request {
	n := len(d.pool)
	switch d.w.order {
	case "uniform":
		return &d.pool[c.rng.Intn(n)]
	default:
		r := &d.pool[c.cursor%n]
		c.cursor += len(d.clients)
		return r
	}
}

// draw picks n requests from the pool with the workload's own key
// distribution.
func (d *closedLoop) draw(n int, seed int64) []request {
	c := &client{rng: rand.New(rand.NewSource(seed))}
	out := make([]request, n)
	for i := range out {
		out[i] = *d.next(c)
	}
	return out
}

// outcome classifies one round trip.
type outcome struct {
	ok         bool
	items      int // correct items
	mismatches int // items answered with a different M than the reference
	itemErrors int // items answered with an error (batch) or not at all
}

// roundTrip sends one request and checks its answer.
func (c *client) roundTrip(url string, r *request) outcome {
	resp, err := c.hc.Post(url, "application/json", bytes.NewReader(r.body))
	if err != nil {
		return outcome{itemErrors: len(r.want)}
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return outcome{itemErrors: len(r.want)}
	}
	o := checkAnswer(c.buf.Bytes(), r.want)
	o.ok = o.mismatches == 0 && o.itemErrors == 0
	return o
}

var (
	mKey     = []byte(`"m":`)
	errorKey = []byte(`"error":`)
)

// checkAnswer byte-compares each item's "m" object with the reference.
// Items appear in request order; an item's error field, when present,
// follows its "m" object and precedes the next item's.
func checkAnswer(body []byte, want [][]byte) outcome {
	var o outcome
	rest := body
	for i, w := range want {
		at := bytes.Index(rest, mKey)
		if at < 0 {
			o.itemErrors += len(want) - i
			return o
		}
		rest = rest[at+len(mKey):]
		end := bytes.IndexByte(rest, '}') + 1
		if end <= 0 {
			o.itemErrors += len(want) - i
			return o
		}
		got := rest[:end]
		rest = rest[end:]
		seg := rest
		if nx := bytes.Index(seg, mKey); nx >= 0 {
			seg = seg[:nx]
		}
		switch {
		case bytes.Contains(seg, errorKey):
			o.itemErrors++
		case !bytes.Equal(got, w):
			o.mismatches++
		default:
			o.items++
		}
	}
	return o
}

// phase is the result of one closed-loop phase.
type phase struct {
	latUS       []float64 // per attempted round trip; +Inf when failed
	attempted   int
	failed      int
	mismatches  int
	itemErrors  int
	predictions int
	elapsed     time.Duration
	dials       int64
	// cpu is the process CPU time the phase consumed (clients included).
	cpu   time.Duration
	spans []span // one per round trip when traced
}

// run drives every client in a closed loop against base for dur. When
// traced, every round trip is recorded as a span under parent.
func (d *closedLoop) run(base string, dur time.Duration, tr *tracer, parent int) phase {
	url := base + d.w.path()
	dials0 := d.dials.Load()
	per := make([]phase, len(d.clients))
	var wg sync.WaitGroup
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(dur)
	for i, c := range d.clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			p := &per[i]
			for time.Now().Before(deadline) {
				r := d.next(c)
				t0 := time.Now()
				o := c.roundTrip(url, r)
				t1 := time.Now()
				if tr != nil {
					p.spans = append(p.spans, span{Parent: parent, Name: "client.round_trip", Start: tr.at(t0), End: tr.at(t1)})
				}
				p.attempted++
				p.predictions += o.items
				p.mismatches += o.mismatches
				p.itemErrors += o.itemErrors
				if o.ok {
					p.latUS = append(p.latUS, float64(t1.Sub(t0).Nanoseconds())/1e3)
				} else {
					p.failed++
					p.latUS = append(p.latUS, math.Inf(1))
				}
			}
		}(i, c)
	}
	wg.Wait()
	out := phase{elapsed: time.Since(start), dials: d.dials.Load() - dials0, cpu: cpuTime() - cpu0}
	for _, p := range per {
		out.latUS = append(out.latUS, p.latUS...)
		out.attempted += p.attempted
		out.failed += p.failed
		out.mismatches += p.mismatches
		out.itemErrors += p.itemErrors
		out.predictions += p.predictions
		out.spans = append(out.spans, p.spans...)
	}
	sort.Float64s(out.latUS)
	return out
}

// lap sends every pool request once, spread over the clients, so every
// connection is open and every hot key is cached before timing starts.
func (d *closedLoop) lap(base string, reqs []request) error {
	url := base + d.w.path()
	errs := make([]error, len(d.clients))
	var wg sync.WaitGroup
	for i, c := range d.clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			for j := i; j < len(reqs); j += len(d.clients) {
				if o := c.roundTrip(url, &reqs[j]); !o.ok {
					errs[i] = fmt.Errorf("warm-up request %d failed: %+v", j, o)
					return
				}
			}
		}(i, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// quantile returns the nearest-rank q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
