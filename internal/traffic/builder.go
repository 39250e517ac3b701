package traffic

import (
	"slices"

	"github.com/score-dc/score/internal/cluster"
)

// triple is one pending pair-rate contribution.
type triple struct {
	a, b cluster.VMID // canonical order: a < b
	rate float64
}

// Builder accumulates pair-rate contributions and bulk-loads them into
// an exact-fit CSR Matrix in one pass — the streaming construction path
// for large instances. Generators emit contributions in any order; each
// is rounded to the rate grid as it is recorded, so duplicates for one
// pair sum exactly, to what Matrix.Add calls of the rounded rates give.
// Build performs one sort plus a counting fill instead of per-insert row
// maintenance, so constructing an E-edge matrix costs O(E log E) time and
// exactly one arena allocation instead of O(E · degree) row shifting.
type Builder struct {
	tri []triple
}

// NewBuilder returns a Builder expecting roughly hint contributions.
func NewBuilder(hint int) *Builder {
	return &Builder{tri: make([]triple, 0, hint)}
}

// Add records a contribution of rate to λ(u, v). Self-pairs and
// non-positive or NaN rates are ignored, mirroring Matrix.Add.
func (b *Builder) Add(u, v cluster.VMID, rate float64) {
	if u == v || !(rate > 0) {
		return
	}
	if u > v {
		u, v = v, u
	}
	b.tri = append(b.tri, triple{a: u, b: v, rate: onGrid(rate)})
}

// Build assembles the matrix and resets the builder. The result's
// generation equals its pair count (as if each pair had been Set once);
// its changelog is empty, so ChangesSince on any older generation
// reports a full rebuild — correct for a freshly loaded matrix.
func (b *Builder) Build() *Matrix {
	m := NewMatrix()
	tri := b.tri
	b.tri = nil
	if len(tri) == 0 {
		return m
	}
	slices.SortFunc(tri, func(x, y triple) int {
		switch {
		case x.a != y.a:
			if x.a < y.a {
				return -1
			}
			return 1
		case x.b != y.b:
			if x.b < y.b {
				return -1
			}
			return 1
		}
		return 0
	})
	w := 0
	hi := tri[0].b
	for _, t := range tri {
		if w > 0 && tri[w-1].a == t.a && tri[w-1].b == t.b {
			tri[w-1].rate += t.rate
			continue
		}
		tri[w] = t
		w++
		if t.b > hi {
			hi = t.b
		}
	}
	tri = tri[:w]
	lo := tri[0].a
	m.base = lo
	m.rows = make([]rowRef, int64(hi)-int64(lo)+1)
	m.arena = make([]Edge, 2*w)
	// Counting fill: size every row exactly, then place edges. Triples
	// are sorted by (a, b), so each row comes out sorted by peer — a
	// row's small-end peers are written while scanning earlier a's (in
	// ascending a order) and its big-end peers afterwards, both runs
	// ascending.
	for _, t := range tri {
		m.rows[t.a-lo].cap++
		m.rows[t.b-lo].cap++
	}
	var off uint32
	for i := range m.rows {
		r := &m.rows[i]
		r.off = off
		off += r.cap
	}
	for _, t := range tri {
		ra, rb := &m.rows[t.a-lo], &m.rows[t.b-lo]
		m.arena[ra.off+ra.len] = Edge{Peer: t.b, Rate: t.rate}
		ra.len++
		m.arena[rb.off+rb.len] = Edge{Peer: t.a, Rate: t.rate}
		rb.len++
	}
	m.numPairs = w
	m.gen = uint64(w)
	m.logBaseGen = m.gen
	return m
}
