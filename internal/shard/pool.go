package shard

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a bounded worker pool for indexed fan-out. Results land by
// index, so output is deterministic regardless of scheduling as long as
// tasks are independent and each task's work is a pure function of its
// index (give stochastic tasks their own index-derived RNG).
//
// The caller of Run works as one of the workers; the others are helper
// goroutines, started at the pool's first fan-out and parked between
// calls, so a call starts no goroutine and allocates nothing. Close stops
// them; a pool that is dropped without Close stops them once the garbage
// collector finds it unreachable. One caller at a time has the helpers:
// a Run or start that finds them busy — a nested call, or another
// goroutine's — runs its work on the caller alone. A Pool must not be
// copied.
type Pool struct {
	workers int
	// c is the helpers' state, nil for a one-worker pool. The helpers
	// reference c, never the Pool, so an unreachable Pool can be
	// finalized and close c.
	c *crew
}

// crew is what the helpers share with the caller that has them.
type crew struct {
	// mu is held by the caller that has the helpers, from Run's or
	// start's entry to Run's return or the side's wait.
	mu      sync.Mutex
	started bool
	closed  bool
	helpers int

	// wake hands a parked helper the function to run; done counts the
	// handed functions that have not returned, exited the helpers that
	// have not exited.
	wake         chan func()
	done, exited sync.WaitGroup

	// The fan-out in progress: task(0) … task(n-1), claimed through next.
	// drain is the claim loop, bound once so handing it out allocates
	// nothing.
	task  func(i int)
	n     int64
	next  atomic.Int64
	drain func()
}

// NewPool returns a pool running at most workers tasks concurrently;
// workers <= 0 means GOMAXPROCS.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: workers}
	if workers > 1 {
		c := &crew{helpers: workers - 1, wake: make(chan func())}
		c.drain = c.claim
		p.c = c
		runtime.SetFinalizer(p, (*Pool).Close)
	}
	return p
}

// Close stops the pool's helpers and returns once they have exited;
// later calls run on the caller alone. Close is idempotent, waits for a
// Run or side in progress to finish, and must not be called from a task.
func (p *Pool) Close() {
	if p == nil || p.c == nil {
		return
	}
	c := p.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.closed && c.started {
		close(c.wake)
		c.exited.Wait()
	}
	c.closed = true
}

// acquire hands the helpers to the caller, starting them on first use;
// nil when they are busy or stopped, or the pool has none.
func (p *Pool) acquire() *crew {
	if p == nil || p.c == nil || !p.c.mu.TryLock() {
		return nil
	}
	c := p.c
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	if !c.started {
		c.started = true
		c.exited.Add(c.helpers)
		for i := 0; i < c.helpers; i++ {
			go c.serve(c.wake)
		}
	}
	return c
}

// serve is a helper: it runs what wake hands it until the pool closes.
func (c *crew) serve(wake <-chan func()) {
	defer c.exited.Done()
	for f := range wake {
		f()
		c.done.Done()
	}
}

// claim runs the tasks of the fan-out in progress until none is left.
func (c *crew) claim() {
	for {
		i := c.next.Add(1) - 1
		if i >= c.n {
			return
		}
		c.task(int(i))
	}
}

// Run executes task(0) … task(n-1), at most the pool's workers at a time, and
// returns when all have completed. With one worker (or n == 1), or no
// helper free, tasks run inline in index order.
func (p *Pool) Run(n int, task func(i int)) {
	if n <= 0 {
		return
	}
	w := min(p.workers, n)
	var c *crew
	if w > 1 {
		c = p.acquire()
	}
	if c == nil {
		for i := 0; i < n; i++ {
			task(i)
		}
		return
	}
	c.task, c.n = task, int64(n)
	c.next.Store(0)
	c.done.Add(w - 1)
	for i := 1; i < w; i++ {
		c.wake <- c.drain
	}
	c.claim()
	c.done.Wait()
	c.task = nil // the helpers keep nothing of the caller's alive
	c.mu.Unlock()
}

// A side is a function start handed to a helper.
type side struct{ c *crew }

// start runs f on a helper and returns at once, so the caller can do
// other work beside it; the returned side's wait returns once f has
// returned. With no helper free — a one-worker or closed pool, or one
// whose helpers another call has — f runs inline before start returns.
// Until wait, the pool's other calls run on their caller alone.
func (p *Pool) start(f func()) side {
	var c *crew
	if p != nil && p.workers > 1 {
		c = p.acquire()
	}
	if c == nil {
		f()
		return side{}
	}
	c.done.Add(1)
	c.wake <- f
	return side{c}
}

// wait returns once the function handed to start has returned.
func (s side) wait() {
	if s.c == nil {
		return
	}
	s.c.done.Wait()
	s.c.mu.Unlock()
}
