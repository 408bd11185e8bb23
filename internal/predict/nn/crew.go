package nn

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// crew runs each phase of a Train call as chunks, on the calling
// goroutine and a fixed set of helper goroutines. Every worker claims
// chunks one at a time from one atomic word that holds the phase number
// beside the index of the next unclaimed chunk, so a helper that read the
// word late cannot claim a chunk of the next phase: its compare-and-swap
// fails. The caller claims from the same word and returns once every
// chunk of the phase has finished, so a helper that is not running holds
// a phase back by at most the one chunk it has claimed.
//
// A worker with nothing to do (a helper between phases, the caller while
// the helpers finish their last chunks) polls for crewSpin, keeping its
// processor, and then parks until signalled.
type crew struct {
	helpers int
	phase   uint32 // the current phase; only the caller writes it

	// next is phase<<32 | the index of the next unclaimed chunk, and
	// crewStopped<<32 once stop has begun. limit is phase<<32 | the
	// phase's chunk count. run stores limit first, and a chunk is
	// claimed only when the two name the same phase: a helper that read
	// a finished phase's next beside the new phase's count must not
	// claim from that stale index.
	next  atomic.Uint64
	limit atomic.Uint64
	done  atomic.Uint32 // chunks of the current phase finished
	// work runs one chunk; run sets it before the phase begins, and a
	// helper reads it only after claiming a chunk of that phase.
	work func(chunk, worker int)

	mu     sync.Mutex
	wake   sync.Cond    // broadcast under mu when a phase begins or ends, or the crew stops
	parked atomic.Int32 // workers parked on wake
	wg     sync.WaitGroup
}

const (
	// crewSpin bounds how long an idle worker polls before it parks:
	// longer than the caller's step between phases or a phase's longest
	// chunk, which take a few microseconds each. On an otherwise idle
	// 2-vCPU host, FastConfig Deep.128 training at GOMAXPROCS 2 parked
	// 8–15 times in its 1,800 phases.
	crewSpin = 50 * time.Microsecond
	// crewLooks is how many polls a worker makes between reads of the
	// clock.
	crewLooks = 256
	// crewStopped is the phase number that tells helpers to exit.
	crewStopped = 1<<32 - 1
)

// start launches helpers helper goroutines, numbered 1..helpers; the
// caller is worker 0.
func (c *crew) start(helpers int) {
	c.helpers = helpers
	c.wake.L = &c.mu
	c.wg.Add(helpers)
	for w := 1; w <= helpers; w++ {
		go c.help(w)
	}
}

// stop tells the helpers to exit and waits until they have.
func (c *crew) stop() {
	if c.helpers == 0 {
		return
	}
	c.next.Store(crewStopped << 32)
	c.signal()
	c.wg.Wait()
}

// run calls work(chunk, worker) once for every chunk in [0, n) and
// returns when all the calls have returned. worker is 0 on the calling
// goroutine and the helper's number on a helper; no two concurrent calls
// share it.
func (c *crew) run(n int, work func(chunk, worker int)) {
	if c.helpers == 0 {
		for i := 0; i < n; i++ {
			work(i, 0)
		}
		return
	}
	c.work = work
	if c.phase++; c.phase == crewStopped {
		c.phase = 1
	}
	c.done.Store(0)
	c.limit.Store(uint64(c.phase)<<32 | uint64(n))
	c.next.Store(uint64(c.phase) << 32)
	c.signal()
	for {
		if _, ran := c.claim(0); !ran {
			break
		}
	}
	c.await(func() bool { return c.done.Load() == uint32(n) })
}

// claim runs the next unclaimed chunk of the current phase on worker, if
// there is one. It returns the word it last read and whether it ran a
// chunk. A helper that finishes a phase's last chunk signals the caller,
// which may have parked.
func (c *crew) claim(worker int) (seen uint64, ran bool) {
	for {
		w, lim := c.next.Load(), c.limit.Load()
		if w>>32 != lim>>32 || uint32(w) >= uint32(lim) {
			return w, false
		}
		if c.next.CompareAndSwap(w, w+1) {
			c.work(int(uint32(w)), worker)
			if c.done.Add(1) == uint32(lim) && worker != 0 {
				c.signal()
			}
			return w + 1, true
		}
	}
}

// help is a helper goroutine's loop: claim chunks while there are any,
// wait for the word to move on when there are none, exit on stop.
func (c *crew) help(worker int) {
	defer c.wg.Done()
	for {
		seen, ran := c.claim(worker)
		switch {
		case ran:
		case seen>>32 == crewStopped:
			return
		default:
			c.await(func() bool { return c.next.Load() != seen })
		}
	}
}

// await returns once ok reports true. It polls ok for up to crewSpin
// without yielding its processor — a yield would wake an idle
// processor's thread to look for work, which at GOMAXPROCS above the CPU
// count takes a CPU from the workers — and then parks until ok holds. A
// parked worker counts itself before it checks ok, and signal checks the
// count after the change ok waits for, so no wake-up is lost.
func (c *crew) await(ok func() bool) {
	start := time.Now()
	for i := 1; !ok(); i++ {
		if i%crewLooks == 0 && time.Since(start) > crewSpin {
			c.mu.Lock()
			c.parked.Add(1)
			for !ok() {
				c.wake.Wait()
			}
			c.parked.Add(-1)
			c.mu.Unlock()
			return
		}
	}
}

// signal wakes every parked worker to check its condition again.
func (c *crew) signal() {
	if c.parked.Load() > 0 {
		c.mu.Lock()
		c.wake.Broadcast()
		c.mu.Unlock()
	}
}

// trainWorkers is the most goroutines a Train call's phases run on: one
// per processor the process may run on at once, the smaller of
// GOMAXPROCS and the CPUs it may use. A process pinned to one CPU trains
// on its own goroutine.
func trainWorkers() int {
	return min(runtime.GOMAXPROCS(0), runtime.NumCPU())
}
