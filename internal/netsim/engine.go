// Package netsim provides the discrete-event simulation engine and the
// flow-level network model that replace ns-3 in this reproduction
// (Section VI).
//
// Every metric the paper reports is an average over measurement windows
// of seconds to minutes (λ is defined as an average rate over a temporal
// window, Section III), so a flow-level model that routes the same
// pairwise rates over the same paths reproduces the paper's cost and
// utilization arithmetic without per-packet simulation.
package netsim

import "fmt"

// event is a scheduled callback; seq breaks ties FIFO at equal times.
type event struct {
	at  float64
	seq uint64
	fn  func()
}

// eventQueue is a binary min-heap of events on (at, seq). seq is unique,
// so that is a total order and the pop sequence does not depend on how
// the heap is laid out. Events are stored by value: none is boxed.
type eventQueue []event

func (q eventQueue) less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q *eventQueue) push(ev event) {
	*q = append(*q, ev)
	h := *q
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (q *eventQueue) pop() event {
	h := *q
	n := len(h) - 1
	top := h[0]
	h[0] = h[n]
	h[n] = event{} // release the callback
	h = h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h.less(r, c) {
			c = r
		}
		if !h.less(c, i) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	*q = h
	return top
}

// Engine is a minimal discrete-event scheduler with a virtual clock in
// seconds. The zero value is ready to use. Engines are single-threaded:
// all callbacks run on the goroutine that calls Run/RunUntil/Step.
type Engine struct {
	now     float64
	seq     uint64
	pq      eventQueue
	stopped bool
}

// NewEngine returns a scheduler at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Schedule runs fn at absolute virtual time at. Events in the past run
// at the current time (never before it).
func (e *Engine) Schedule(at float64, fn func()) {
	if fn == nil {
		return
	}
	if at < e.now {
		at = e.now
	}
	e.seq++
	e.pq.push(event{at: at, seq: e.seq, fn: fn})
}

// After runs fn d seconds from now.
func (e *Engine) After(d float64, fn func()) {
	if d < 0 {
		d = 0
	}
	e.Schedule(e.now+d, fn)
}

// Step executes the earliest pending event, advancing the clock.
// It reports whether an event was executed.
func (e *Engine) Step() bool {
	if e.stopped || len(e.pq) == 0 {
		return false
	}
	ev := e.pq.pop()
	e.now = ev.at
	ev.fn()
	return true
}

// RunUntil executes events until the queue is empty, Stop is called, or
// the next event lies beyond t; the clock then advances to t.
func (e *Engine) RunUntil(t float64) {
	for !e.stopped && len(e.pq) > 0 && e.pq[0].at <= t {
		e.Step()
	}
	if t > e.now {
		e.now = t
	}
}

// Run executes events until the queue drains or Stop is called.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// Stop halts the loop after the current event; pending events stay
// queued.
func (e *Engine) Stop() { e.stopped = true }

// Resume clears a Stop so the engine can run again.
func (e *Engine) Resume() { e.stopped = false }

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return len(e.pq) }

// String aids debugging.
func (e *Engine) String() string {
	return fmt.Sprintf("netsim.Engine{t=%.3fs pending=%d}", e.now, len(e.pq))
}
