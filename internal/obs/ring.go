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

// Ring is the same ring for records of any other type, such as the
// daemon's round history. Put takes the lock itself.
type Ring[T any] struct{ ring[T] }

// NewRing returns a ring retaining the most recent capacity records.
func NewRing[T any](capacity int) *Ring[T] { return &Ring[T]{newRing[T](capacity)} }

// Put stores rec, overwriting the oldest record once full.
func (g *Ring[T]) Put(rec T) {
	g.mu.Lock()
	g.put(rec)
	g.mu.Unlock()
}

// Len reports how many records are currently retained.
func (g *ring[T]) Len() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.retained()
}

// Dropped reports how many records have been overwritten so far.
func (g *ring[T]) Dropped() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.next - uint64(g.retained())
}

// filter copies the retained records keep accepts, oldest-first. It reads
// them in place under the lock, so a query allocates for what it returns,
// not for the whole ring.
func (g *ring[T]) filter(keep func(*T) bool) []T {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := uint64(len(g.buf))
	head := g.next % n
	oldest, newest := g.buf[head:], g.buf[:head]
	if g.next < n {
		oldest, newest = g.buf[:g.next], nil
	}
	var out []T
	for _, seg := range [2][]T{oldest, newest} {
		for i := range seg {
			if keep(&seg[i]) {
				out = append(out, seg[i])
			}
		}
	}
	return out
}

// Snapshot copies the retained records oldest-first.
func (g *ring[T]) Snapshot() []T {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.last(len(g.buf))
}

// last copies the newest n retained records (all of them when fewer are
// retained), oldest-first. The caller holds mu.
func (g *ring[T]) last(n int) []T {
	k := g.retained()
	return g.run(k-min(max(n, 0), k), k)
}

// retained reports how many records the ring holds. Window position i in
// [0, retained) is the i-th oldest of them. The caller holds mu.
func (g *ring[T]) retained() int { return int(min(g.next, uint64(len(g.buf)))) }

// slot maps window position i to its index in buf. The caller holds mu.
func (g *ring[T]) slot(i int) uint64 {
	return (g.next - uint64(g.retained()) + uint64(i)) % uint64(len(g.buf))
}

// run copies the records at window positions [lo, hi), oldest-first.
// The caller holds mu.
func (g *ring[T]) run(lo, hi int) []T {
	out := make([]T, hi-lo)
	copied := copy(out, g.buf[g.slot(lo):])
	copy(out[copied:], g.buf)
	return out
}

// Last copies the newest n retained records (all of them when fewer are
// retained), oldest-first. It reads them in place under the lock, so a
// caller that wants a tail copies the tail, not the ring.
func (g *Ring[T]) Last(n int) []T {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.last(n)
}
