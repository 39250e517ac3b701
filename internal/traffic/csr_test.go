package traffic

import (
	"math/rand"
	"testing"

	"github.com/score-dc/score/internal/cluster"
)

// refMatrix reproduces the pre-arena slice-row layout (one map entry
// per VM, rows grown by append) with the exact mutation logic the old
// Matrix used. The churn tests below drive it in lockstep with the
// arena-backed Matrix and demand identical observable behavior.
type refMatrix struct {
	adj        map[cluster.VMID][]Edge
	numPairs   int
	gen        uint64
	log        []EdgeChange
	logBaseGen uint64
}

func newRefMatrix() *refMatrix {
	return &refMatrix{adj: make(map[cluster.VMID][]Edge)}
}

func (m *refMatrix) setEdge(u, v cluster.VMID, rate float64) bool {
	edges := m.adj[u]
	i, ok := findEdge(edges, v)
	if ok {
		edges[i].Rate = rate
		return false
	}
	edges = append(edges, Edge{})
	copy(edges[i+1:], edges[i:])
	edges[i] = Edge{Peer: v, Rate: rate}
	m.adj[u] = edges
	return true
}

func (m *refMatrix) removeEdge(u, v cluster.VMID) bool {
	edges := m.adj[u]
	i, ok := findEdge(edges, v)
	if !ok {
		return false
	}
	copy(edges[i:], edges[i+1:])
	edges = edges[:len(edges)-1]
	if len(edges) == 0 {
		delete(m.adj, u)
	} else {
		m.adj[u] = edges
	}
	return true
}

func (m *refMatrix) logChange(u, v cluster.VMID, old, new float64) {
	if len(m.log) >= changeLogCap {
		m.log = append(m.log[:0], m.log[len(m.log)-changeLogCap/2:]...)
		m.logBaseGen = m.gen - uint64(len(m.log))
	}
	m.log = append(m.log, EdgeChange{Pair: MakePair(u, v), Old: old, New: new})
}

func (m *refMatrix) Rate(u, v cluster.VMID) float64 {
	if u == v {
		return 0
	}
	edges := m.adj[u]
	if i, ok := findEdge(edges, v); ok {
		return edges[i].Rate
	}
	return 0
}

func (m *refMatrix) Set(u, v cluster.VMID, rate float64) {
	if u == v {
		return
	}
	old := m.Rate(u, v)
	if rate <= 0 {
		if m.removeEdge(u, v) {
			m.removeEdge(v, u)
			m.numPairs--
			m.logChange(u, v, old, 0)
			m.gen++
		}
		return
	}
	rate = onGrid(rate)
	if m.setEdge(u, v, rate) {
		m.numPairs++
	}
	m.setEdge(v, u, rate)
	m.logChange(u, v, old, rate)
	m.gen++
}

func (m *refMatrix) Add(u, v cluster.VMID, rate float64) {
	if u == v || rate <= 0 {
		return
	}
	m.Set(u, v, m.Rate(u, v)+rate)
}

func (m *refMatrix) ChangesSince(gen uint64) ([]EdgeChange, bool) {
	if gen == m.gen {
		return nil, true
	}
	if gen > m.gen || gen < m.logBaseGen {
		return nil, false
	}
	return m.log[gen-m.logBaseGen:], true
}

// checkEquivalent compares every observable of the arena matrix against
// the slice-row reference: per-VM rows, pair list, counters.
func checkEquivalent(t *testing.T, m *Matrix, ref *refMatrix, ids []cluster.VMID) {
	t.Helper()
	if m.NumPairs() != ref.numPairs {
		t.Fatalf("NumPairs = %d, ref %d", m.NumPairs(), ref.numPairs)
	}
	if m.Generation() != ref.gen {
		t.Fatalf("Generation = %d, ref %d", m.Generation(), ref.gen)
	}
	for _, u := range ids {
		got, want := m.NeighborEdges(u), ref.adj[u]
		if len(got) != len(want) {
			t.Fatalf("row %d: %d edges, ref %d", u, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("row %d[%d] = %+v, ref %+v", u, i, got[i], want[i])
			}
		}
		if m.Degree(u) != len(want) {
			t.Fatalf("Degree(%d) = %d, ref %d", u, m.Degree(u), len(want))
		}
	}
	ps, rs := m.Pairs()
	if len(ps) != ref.numPairs {
		t.Fatalf("Pairs len = %d, ref numPairs %d", len(ps), ref.numPairs)
	}
	for i, p := range ps {
		if ref.Rate(p.A, p.B) != rs[i] {
			t.Fatalf("pair %v rate %v, ref %v", p, rs[i], ref.Rate(p.A, p.B))
		}
	}
}

// churn drives both layouts through n interleaved mutations: rate
// resets (a traffic-window rollover's SetRate), pair creation via Add,
// removals, and hub rows that grow large enough to overflow their arena
// slots. Returns the IDs used.
func churn(t *testing.T, m *Matrix, ref *refMatrix, idOf func(int) cluster.VMID, nVMs, ops int, seed int64) []cluster.VMID {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ids := make([]cluster.VMID, nVMs)
	for i := range ids {
		ids[i] = idOf(i)
	}
	// Checkpoints exercise ChangesSince across the run, including past
	// changelog-window slides.
	type checkpoint struct{ gen uint64 }
	var cps []checkpoint
	for op := 0; op < ops; op++ {
		var u cluster.VMID
		if rng.Intn(4) == 0 {
			u = ids[rng.Intn(8)] // hub: few VMs collect large rows
		} else {
			u = ids[rng.Intn(nVMs)]
		}
		v := ids[rng.Intn(nVMs)]
		switch rng.Intn(10) {
		case 0, 1: // remove
			m.Set(u, v, 0)
			ref.Set(u, v, 0)
		case 2, 3, 4: // accumulate
			r := rng.Float64() * 10
			m.Add(u, v, r)
			ref.Add(u, v, r)
		default: // reset to a fresh rate
			r := 0.1 + rng.Float64()*100
			m.Set(u, v, r)
			ref.Set(u, v, r)
		}
		if op%512 == 0 {
			cps = append(cps, checkpoint{gen: ref.gen})
		}
		if op%1024 == 1023 {
			checkEquivalent(t, m, ref, ids)
		}
	}
	checkEquivalent(t, m, ref, ids)
	for _, cp := range cps {
		got, gok := m.ChangesSince(cp.gen)
		want, wok := ref.ChangesSince(cp.gen)
		if gok != wok || len(got) != len(want) {
			t.Fatalf("ChangesSince(%d): ok=%v len=%d, ref ok=%v len=%d",
				cp.gen, gok, len(got), wok, len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("ChangesSince(%d)[%d] = %+v, ref %+v", cp.gen, i, got[i], want[i])
			}
		}
	}
	return ids
}

// TestCSREquivalenceDense: the arena-backed layout behaves exactly like
// the old slice-row layout under interleaved SetRate/move churn, across
// row overflow, compaction passes, and changelog-window slides
// (ops ≫ changeLogCap).
func TestCSREquivalenceDense(t *testing.T) {
	m, ref := NewMatrix(), newRefMatrix()
	base := cluster.VMID(0x0a000001)
	churn(t, m, ref, func(i int) cluster.VMID { return base + cluster.VMID(i) }, 300, 20000, 61)
	st := m.Stats()
	if st.Compactions == 0 {
		t.Fatal("churn never triggered a compaction — overflow path untested")
	}
	// Compaction must leave the matrix healthy, not just equivalent.
	m.Compact()
	st = m.Stats()
	if st.ArenaDead != 0 || st.OverflowRows != 0 || st.OverflowEdges != 0 {
		t.Fatalf("post-compaction stats not clean: %+v", st)
	}
}

// TestCSREquivalenceSpanFirstFill is the daemon's fill order — a matrix
// loaded by Set from empty, in ForEachPair order of a generated workload:
// the first pairs join far-apart IDs and span the whole registered range
// while almost every row is still empty, later ones fill in, and the row
// window has to grow downward as well as up. The matrix stays on the
// arena, its window covering the span, and matches the reference through
// the same churn.
func TestCSREquivalenceSpanFirstFill(t *testing.T) {
	m, ref := NewMatrix(), newRefMatrix()
	const nVMs, stride = 300, 67
	idOf := func(i int) cluster.VMID { return 1000 + cluster.VMID(i*stride) }
	for _, p := range [][2]int{{nVMs / 2, nVMs - 1}, {0, nVMs/2 + 1}} {
		m.Set(idOf(p[0]), idOf(p[1]), 1)
		ref.Set(idOf(p[0]), idOf(p[1]), 1)
	}
	ids := churn(t, m, ref, idOf, nVMs, 20000, 63)
	st := m.Stats()
	if span := int(ids[nVMs-1]-ids[0]) + 1; st.RowWindow < span || st.ArenaCap == 0 {
		t.Fatalf("row window %d over an ID span of %d, arena %d edges: %+v", st.RowWindow, span, st.ArenaCap, st)
	}
	if st.Compactions == 0 {
		t.Fatal("fill never compacted — the in-op compaction path is untested")
	}
}

// TestRowWindowFollowsChurn: under a service that issues ever higher VM
// IDs and clears the rows of those it retires, the row window follows the
// rows in use instead of spanning every ID ever seen.
func TestRowWindowFollowsChurn(t *testing.T) {
	m := NewMatrix()
	const live = 50
	for id := cluster.VMID(2); id < 200_000; id++ {
		m.Set(id, id-1, float64(id))
		if id > live {
			m.ClearVM(id - live)
		}
	}
	if st := m.Stats(); st.RowWindow > 8*live || st.Pairs != live-1 {
		t.Fatalf("row window %d for %d pairs among the last %d IDs: %+v", st.RowWindow, st.Pairs, live, st)
	}
	if got := m.Rate(199_999, 199_998); got != 199_999 {
		t.Fatalf("Rate of the newest pair = %v", got)
	}
}

// TestBuilderMatchesIncremental: bulk-loading duplicate-heavy
// contributions through Builder yields exactly the matrix that the same
// Add sequence produces incrementally — same rows, same floats.
func TestBuilderMatchesIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	b := NewBuilder(0)
	inc := NewMatrix()
	base := cluster.VMID(5000)
	for i := 0; i < 5000; i++ {
		u := base + cluster.VMID(rng.Intn(200))
		v := base + cluster.VMID(rng.Intn(200))
		r := rng.Float64() * 20
		b.Add(u, v, r)
		inc.Add(u, v, r)
	}
	built := b.Build()
	if built.NumPairs() != inc.NumPairs() {
		t.Fatalf("NumPairs = %d, incremental %d", built.NumPairs(), inc.NumPairs())
	}
	for i := 0; i < 200; i++ {
		u := base + cluster.VMID(i)
		got, want := built.NeighborEdges(u), inc.NeighborEdges(u)
		if len(got) != len(want) {
			t.Fatalf("row %d: %d edges, incremental %d", u, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("row %d[%d] = %+v, incremental %+v", u, j, got[j], want[j])
			}
		}
	}
	// A freshly built matrix reports no replayable history: consumers
	// holding generation 0 must be told to rebuild.
	if _, ok := built.ChangesSince(0); ok && built.NumPairs() > 0 {
		t.Fatal("Build must not claim a replayable changelog from generation 0")
	}
	// The built arena is exact-fit.
	st := built.Stats()
	if st.ArenaCap != st.Edges || st.OverflowEdges != 0 {
		t.Fatalf("Build not exact-fit CSR: %+v", st)
	}
}

// TestQueriesAllocFreeAfterCompaction: after rows have spilled to the
// overflow region and been folded back by a compaction, the hot-path
// queries (NeighborEdges and the fold-style scans over them) still
// allocate nothing.
func TestQueriesAllocFreeAfterCompaction(t *testing.T) {
	m := NewMatrix()
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 6000; i++ {
		u := cluster.VMID(rng.Intn(16)) // small ID pool → big rows → spills
		v := cluster.VMID(16 + rng.Intn(400))
		m.Set(u, v, 1+rng.Float64())
	}
	if m.Stats().Compactions == 0 {
		m.Compact()
	}
	var sink float64
	if avg := testing.AllocsPerRun(200, func() {
		for u := cluster.VMID(0); u < 16; u++ {
			for _, e := range m.NeighborEdges(u) {
				sink += e.Rate
			}
			sink += m.VMLoad(u)
			sink += m.Rate(u, 20)
		}
		sink += m.TotalRate()
	}); avg != 0 {
		t.Fatalf("post-compaction hot queries allocate %v times per run, want 0", avg)
	}
	_ = sink
}

// TestForEachPairMatchesPairs: the streaming iterator visits exactly
// the pairs Pairs lists, in the same canonical order.
func TestForEachPairMatchesPairs(t *testing.T) {
	m := NewMatrix()
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 2000; i++ {
		m.Set(cluster.VMID(rng.Intn(150)), cluster.VMID(rng.Intn(150)), 1+rng.Float64())
	}
	ps, rs := m.Pairs()
	i := 0
	m.ForEachPair(func(a, b cluster.VMID, rate float64) {
		if i >= len(ps) {
			t.Fatalf("ForEachPair visited more than %d pairs", len(ps))
		}
		if ps[i] != (Pair{A: a, B: b}) || rs[i] != rate {
			t.Fatalf("pair %d = (%d,%d,%v), Pairs has (%v,%v)", i, a, b, rate, ps[i], rs[i])
		}
		i++
	})
	if i != len(ps) {
		t.Fatalf("ForEachPair visited %d pairs, Pairs has %d", i, len(ps))
	}
}
