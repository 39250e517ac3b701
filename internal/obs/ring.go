package obs

import "sync"

// ring is the fixed-capacity buffer of fixed-size records under Tracer
// and AuditRing: put overwrites the oldest record once full and never
// allocates, and the short critical section keeps it race-free and cheap
// enough to leave on in production rounds. The record paths of the two
// wrappers take mu themselves, so stamping a record with its sequence
// number and storing it are one critical section.
type ring[T any] struct {
	mu   sync.Mutex
	buf  []T
	next uint64 // records ever put; buf index = next % len(buf)
}

func newRing[T any](capacity int) ring[T] {
	if capacity <= 0 {
		capacity = 1 << 14
	}
	return ring[T]{buf: make([]T, capacity)}
}

// put stores rec over the oldest slot. The caller holds mu.
func (g *ring[T]) put(rec T) {
	g.buf[g.next%uint64(len(g.buf))] = rec
	g.next++
}

// Len reports how many records are currently retained.
func (g *ring[T]) Len() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return int(min(g.next, uint64(len(g.buf))))
}

// Dropped reports how many records have been overwritten so far.
func (g *ring[T]) Dropped() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.next - min(g.next, uint64(len(g.buf)))
}

// Snapshot copies the retained records oldest-first.
func (g *ring[T]) Snapshot() []T {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := uint64(len(g.buf))
	out := make([]T, min(g.next, n))
	if g.next < n {
		copy(out, g.buf)
		return out
	}
	head := g.next % n
	copy(out, g.buf[head:])
	copy(out[n-head:], g.buf[:head])
	return out
}
