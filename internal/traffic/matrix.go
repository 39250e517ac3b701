package traffic

import (
	"math"
	"slices"
	"unsafe"

	"github.com/score-dc/score/internal/cluster"
)

// EdgeChange records one pair-rate mutation: λ(A, B) moved from Old to
// New. A sequence of changes replays a matrix's recent history, letting
// a Follower fold traffic-window rollovers edge by edge instead of
// rebuilding from the full pair list.
type EdgeChange struct {
	Pair
	Old, New float64
}

// changeLogCap bounds the in-memory changelog. Each mutation appends one
// entry; when the log fills it keeps its newest changeLogCap/2 entries, so
// a consumer at most that far behind can always fold, and consumers
// further behind than the window fall back to a full rebuild.
const changeLogCap = 4096

// rowRef addresses one VM's adjacency row inside the matrix. The live
// entries occupy arena[off : off+len] within a slot of cap entries; a
// row that has outgrown its slot and could not extend in place lives in
// the overflow region instead (ovf != 0 → ovf[ovf-1]), its arena slot
// counted dead until the next compaction folds it back.
type rowRef struct {
	off uint32
	len uint32
	cap uint32
	ovf int32
}

const (
	edgeBytes   = int(unsafe.Sizeof(Edge{}))
	rowRefBytes = int(unsafe.Sizeof(rowRef{}))

	// initRowCap is the slot size granted to a row on its first edge.
	initRowCap = 4
	// maxRowGrow bounds one extend-in-place step for huge rows.
	maxRowGrow = 1024
	// compactSlack is the flat allowance before dead or overflowed
	// entries trigger a compaction, so small matrices never compact.
	compactSlack = 64
)

// slackOf is the spare capacity a row's slot receives at compaction, so
// a freshly compacted matrix absorbs a few inserts per row before any
// row must spill again.
func slackOf(n int) int { return n/8 + 1 }

// Matrix is a sparse symmetric pairwise traffic-rate matrix in Mb/s.
// The zero value is ready to use. See the package comment for the
// arena-backed adjacency layout and slice-ownership rules.
type Matrix struct {
	// CSR storage over one ID window: rows[i] addresses VM base+i's row in
	// the shared arena or the overflow region. The window grows to cover
	// whatever IDs it is given and has no density rule of its own — which
	// IDs may exist is the cluster's decision (cluster.AddVM), and callers
	// folding outside input check it against the cluster first.
	base     cluster.VMID
	rows     []rowRef
	arena    []Edge
	ovf      [][]Edge // overflow rows; index = rowRef.ovf-1
	freeOvf  []int32  // recycled overflow indices
	dead     int      // arena entries abandoned by spilled/emptied rows
	ovfEdges int      // edges currently living in overflow rows
	compacts uint64

	numPairs int
	gen      uint64

	// Edge-level changelog: log[i] is the mutation that advanced the
	// generation from logBaseGen+i to logBaseGen+i+1.
	log        []EdgeChange
	logBaseGen uint64
}

// NewMatrix returns an empty matrix.
func NewMatrix() *Matrix { return &Matrix{} }

// The rate grid (see the package comment): a stored rate is a whole
// number of quanta, between one and maxRateMbps·quantaPerMbps of them.
const (
	quantaPerMbps = 1 << 20
	maxRateMbps   = 1 << 32
)

// onGrid rounds a positive rate to the nearest point of the rate grid.
// The scaling is by a power of two, so the only rounding is the one to
// a whole quantum; +Inf saturates like any rate above the ceiling.
func onGrid(rateMbps float64) float64 {
	q := math.RoundToEven(rateMbps * quantaPerMbps)
	return min(max(q, 1), maxRateMbps*quantaPerMbps) / quantaPerMbps
}

// findEdge binary searches edges (sorted by Peer) for peer, returning
// the insertion index and whether it is present.
func findEdge(edges []Edge, peer cluster.VMID) (int, bool) {
	lo, hi := 0, len(edges)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if edges[mid].Peer < peer {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(edges) && edges[lo].Peer == peer
}

// rowIndex maps a VM ID into the row table, -1 when outside it.
func (m *Matrix) rowIndex(u cluster.VMID) int {
	i := int64(u) - int64(m.base)
	if uint64(i) >= uint64(len(m.rows)) {
		return -1
	}
	return int(i)
}

// row returns row i's live edges. For arena rows the slice is capped at
// the slot boundary so appends by callers can never clobber a neighbor
// row (callers still must not append — the slice is matrix-owned).
func (m *Matrix) row(i int) []Edge {
	r := &m.rows[i]
	if r.ovf != 0 {
		return m.ovf[r.ovf-1]
	}
	return m.arena[r.off : r.off+r.len : r.off+r.cap]
}

// ensureRow returns the row index for u, growing the row window when u
// lies outside it — like the cluster's record table (cluster.GrowWindow),
// measured from the rows in use, so rows emptied at either end (VMs
// retired under a service that issues ever higher IDs) are let go, but
// with no limit: u is an ID the cluster has admitted.
func (m *Matrix) ensureRow(u cluster.VMID) int {
	if i := m.rowIndex(u); i >= 0 {
		return i
	}
	first, last := 0, len(m.rows)-1 // extent of the non-empty rows
	for first <= last && m.rows[first].len == 0 {
		first++
	}
	for last > first && m.rows[last].len == 0 {
		last--
	}
	newBase, size, _ := cluster.GrowWindow(m.base, first, last, u, math.MaxInt64)
	nr := make([]rowRef, size)
	if first <= last {
		copy(nr[m.base+cluster.VMID(first)-newBase:], m.rows[first:last+1])
	}
	m.base, m.rows = newBase, nr
	return int(u - newBase)
}

// spillRow moves arena row i to the overflow region, leaving its slot
// dead until the next compaction.
func (m *Matrix) spillRow(i int) {
	r := &m.rows[i]
	n := int(r.len)
	s := make([]Edge, n, n+n/2+2)
	copy(s, m.arena[r.off:r.off+r.len])
	var idx int
	if k := len(m.freeOvf); k > 0 {
		idx = int(m.freeOvf[k-1])
		m.freeOvf = m.freeOvf[:k-1]
		m.ovf[idx] = s
	} else {
		idx = len(m.ovf)
		m.ovf = append(m.ovf, s)
	}
	m.dead += int(r.cap)
	m.ovfEdges += n
	r.off, r.cap, r.ovf = 0, 0, int32(idx+1)
}

// insertAt inserts e at sorted position j of row i, growing the
// row's storage as needed: extend the slot in place when it abuts the
// arena's end, otherwise spill the row to the overflow region.
func (m *Matrix) insertAt(i, j int, e Edge) {
	r := &m.rows[i]
	if r.ovf != 0 {
		idx := r.ovf - 1
		s := append(m.ovf[idx], Edge{})
		copy(s[j+1:], s[j:])
		s[j] = e
		m.ovf[idx] = s
		r.len++
		m.ovfEdges++
		return
	}
	if r.len == r.cap {
		switch {
		case r.cap == 0:
			off := len(m.arena)
			m.arena = slices.Grow(m.arena, initRowCap)[:off+initRowCap]
			r.off, r.cap = uint32(off), initRowCap
		case int(r.off)+int(r.cap) == len(m.arena):
			grow := int(r.cap)
			if grow > maxRowGrow {
				grow = maxRowGrow
			}
			m.arena = slices.Grow(m.arena, grow)[:len(m.arena)+grow]
			r.cap += uint32(grow)
		default:
			m.spillRow(i)
			m.insertAt(i, j, e)
			return
		}
	}
	base := int(r.off)
	n := int(r.len)
	copy(m.arena[base+j+1:base+n+1], m.arena[base+j:base+n])
	m.arena[base+j] = e
	r.len++
}

// removeAt deletes position j of row i. Rows emptied in the
// arena release their slot (counted dead); emptied overflow rows are
// recycled immediately.
func (m *Matrix) removeAt(i, j int) {
	r := &m.rows[i]
	if r.ovf != 0 {
		idx := r.ovf - 1
		s := m.ovf[idx]
		copy(s[j:], s[j+1:])
		s = s[:len(s)-1]
		r.len--
		m.ovfEdges--
		if r.len == 0 {
			m.ovf[idx] = nil
			m.freeOvf = append(m.freeOvf, idx)
			r.ovf = 0
		} else {
			m.ovf[idx] = s
		}
		return
	}
	base := int(r.off)
	n := int(r.len)
	copy(m.arena[base+j:base+n-1], m.arena[base+j+1:base+n])
	r.len--
	if r.len == 0 {
		m.dead += int(r.cap)
		*r = rowRef{}
	}
}

// setEdge inserts or updates the directed entry u→v with one search of
// u's row and returns the rate it overwrote, 0 when it inserted the
// entry (a stored rate is at least one quantum, so 0 means absent).
func (m *Matrix) setEdge(u, v cluster.VMID, rate float64) float64 {
	i := m.ensureRow(u)
	es := m.row(i)
	j, ok := findEdge(es, v)
	if ok {
		old := es[j].Rate
		es[j].Rate = rate
		return old
	}
	m.insertAt(i, j, Edge{Peer: v, Rate: rate})
	return 0
}

// dropEdge deletes the directed entry u→v with one search of u's row
// and returns the rate it removed, 0 when there was no entry.
func (m *Matrix) dropEdge(u, v cluster.VMID) float64 {
	i := m.rowIndex(u)
	if i < 0 {
		return 0
	}
	es := m.row(i)
	j, ok := findEdge(es, v)
	if !ok {
		return 0
	}
	old := es[j].Rate
	m.removeAt(i, j)
	return old
}

// maybeCompact rebuilds the arena once the entries stranded outside it
// (dead slots, overflow rows) outweigh a fraction of the live edges.
func (m *Matrix) maybeCompact() {
	live := 2 * m.numPairs
	if m.dead > live/2+compactSlack || m.ovfEdges > live/8+compactSlack {
		m.Compact()
	}
}

// Compact rebuilds the arena: every row is copied into a fresh backing
// array with slackOf slack, overflow rows fold back in, and dead slots
// vanish. Row contents and all query results are unchanged; previously
// returned NeighborEdges slices are invalidated (as by any mutation).
func (m *Matrix) Compact() {
	if m.rows == nil {
		return
	}
	total := 0
	for i := range m.rows {
		if n := int(m.rows[i].len); n > 0 {
			total += n + slackOf(n)
		}
	}
	na := make([]Edge, total)
	cur := 0
	for i := range m.rows {
		r := &m.rows[i]
		n := int(r.len)
		if n == 0 {
			*r = rowRef{}
			continue
		}
		copy(na[cur:], m.row(i))
		r.off, r.cap, r.ovf = uint32(cur), uint32(n+slackOf(n)), 0
		cur += n + slackOf(n)
	}
	m.arena = na
	m.ovf, m.freeOvf = nil, nil
	m.dead, m.ovfEdges = 0, 0
	m.compacts++
}

// logChange appends one mutation to the changelog, sliding the window
// to its newest half when it is full. Must be called exactly once per
// generation increment, before gen moves.
func (m *Matrix) logChange(u, v cluster.VMID, old, new float64) {
	if len(m.log) >= changeLogCap {
		kept := copy(m.log, m.log[len(m.log)-changeLogCap/2:])
		m.log = m.log[:kept]
		m.logBaseGen = m.gen - uint64(kept)
	}
	m.log = append(m.log, EdgeChange{Pair: MakePair(u, v), Old: old, New: new})
}

// ChangesSince returns the mutations that advanced the matrix from
// generation gen to the current one, in application order. ok is false
// when gen lies behind the changelog's window (the caller must fall back
// to a full recompute). The slice is owned by the matrix: read-only,
// valid until the next mutation.
func (m *Matrix) ChangesSince(gen uint64) ([]EdgeChange, bool) {
	if gen == m.gen {
		return nil, true
	}
	if gen > m.gen || gen < m.logBaseGen {
		return nil, false
	}
	return m.log[gen-m.logBaseGen:], true
}

// Set fixes λ(u, v) to rateMbps, rounded to the rate grid. A
// non-positive rate removes the entry; a self-pair or a NaN rate is
// ignored. It searches each endpoint's row once: the edit of u's row
// reports the rate it replaced, which the changelog records as Old.
func (m *Matrix) Set(u, v cluster.VMID, rateMbps float64) {
	if u == v || math.IsNaN(rateMbps) {
		return
	}
	if rateMbps <= 0 {
		if old := m.dropEdge(u, v); old != 0 {
			m.dropEdge(v, u)
			m.numPairs--
			m.logChange(u, v, old, 0)
			m.gen++
			m.maybeCompact()
		}
		return
	}
	rateMbps = onGrid(rateMbps)
	old := m.setEdge(u, v, rateMbps)
	if old == 0 {
		m.numPairs++
	}
	m.setEdge(v, u, rateMbps)
	m.logChange(u, v, old, rateMbps)
	m.gen++
	m.maybeCompact()
}

// Add increases λ(u, v) by rateMbps, creating the pair if absent.
func (m *Matrix) Add(u, v cluster.VMID, rateMbps float64) {
	if u == v || rateMbps <= 0 {
		return
	}
	m.Set(u, v, m.Rate(u, v)+rateMbps)
}

// ClearVM removes every edge incident to u — the traffic-side half of a
// VM's destruction. Each pair removal goes through the logged Set(0)
// path, one changelog entry and one generation step per edge, so
// incremental consumers (engine accounting, control summaries) fold the
// departure exactly instead of rebuilding. Callers destroying a placed
// VM should clear its row before unplacing it, while pending deltas can
// still be located at the VM's host. Returns the number of pairs
// removed.
func (m *Matrix) ClearVM(u cluster.VMID) int {
	row := m.NeighborEdges(u)
	if len(row) == 0 {
		return 0
	}
	// The row is matrix-owned and shrinks as edges are removed: snapshot
	// the peer IDs first.
	peers := make([]cluster.VMID, len(row))
	for i, e := range row {
		peers[i] = e.Peer
	}
	for _, p := range peers {
		m.Set(u, p, 0)
	}
	return len(peers)
}

// Rate returns λ(u, v), 0 when the VMs do not communicate.
func (m *Matrix) Rate(u, v cluster.VMID) float64 {
	if u == v {
		return 0
	}
	edges := m.NeighborEdges(u)
	if i, ok := findEdge(edges, v); ok {
		return edges[i].Rate
	}
	return 0
}

// NeighborEdges returns VM u's adjacency row: its peers in ascending ID
// order with their rates. The slice is owned by the matrix — read-only,
// valid until the next mutation (see the package comment).
func (m *Matrix) NeighborEdges(u cluster.VMID) []Edge {
	if i := m.rowIndex(u); i >= 0 {
		return m.row(i)
	}
	return nil
}

// Neighbors returns Vu, the set of VMs exchanging data with u, in
// ascending ID order. The returned slice is owned by the caller; hot
// paths should prefer NeighborEdges, which does not copy.
func (m *Matrix) Neighbors(u cluster.VMID) []cluster.VMID {
	edges := m.NeighborEdges(u)
	if len(edges) == 0 {
		return nil
	}
	out := make([]cluster.VMID, len(edges))
	for i, e := range edges {
		out[i] = e.Peer
	}
	return out
}

// Degree returns |Vu| without allocating.
func (m *Matrix) Degree(u cluster.VMID) int {
	return len(m.NeighborEdges(u))
}

// VMLoad returns Σ_{v∈Vu} λ(u, v), the aggregate traffic rate of VM u.
// This is what the hypervisor computes from its flow table when holding
// the token (Section V-B3), and what the bandwidth-threshold admission
// check of Section V-C sums per host.
func (m *Matrix) VMLoad(u cluster.VMID) float64 {
	var sum float64
	for _, e := range m.NeighborEdges(u) {
		sum += e.Rate
	}
	return sum
}

// NumPairs returns the number of communicating pairs.
func (m *Matrix) NumPairs() int { return m.numPairs }

// Generation returns a counter that increments on every mutation.
// Consumers caching derived state (pair lists, incremental cost
// accumulators) compare generations to detect staleness.
func (m *Matrix) Generation() uint64 { return m.gen }

// TotalRate returns the sum of λ over all pairs.
func (m *Matrix) TotalRate() float64 {
	var sum float64
	for i := range m.rows {
		for _, e := range m.row(i) {
			sum += e.Rate
		}
	}
	return sum / 2 // every pair is stored in both endpoint rows
}

// ForEachPair calls f for every communicating pair in deterministic
// (A asc, B asc) order — the same order Pairs reports — without
// materializing a pair list. This is the memory-frugal path for full
// scans at scale (accounting rebuilds, streaming export).
func (m *Matrix) ForEachPair(f func(a, b cluster.VMID, rate float64)) {
	for i := range m.rows {
		u := m.base + cluster.VMID(i)
		for _, e := range m.row(i) {
			if u < e.Peer { // emit each pair once, in canonical order
				f(u, e.Peer, e.Rate)
			}
		}
	}
}

// Pairs returns all communicating pairs in deterministic (A asc, B asc)
// order with their rates, in fresh slices owned by the caller. The
// matrix keeps no copy; a scan that needs none streams ForEachPair.
func (m *Matrix) Pairs() ([]Pair, []float64) {
	ps := make([]Pair, 0, m.numPairs)
	rs := make([]float64, 0, m.numPairs)
	m.ForEachPair(func(a, b cluster.VMID, rate float64) {
		ps = append(ps, Pair{A: a, B: b})
		rs = append(rs, rate)
	})
	return ps, rs
}

// Scaled returns a copy of the matrix with every rate multiplied by f
// and rounded to the rate grid, the paper's ×10 (medium) and ×50 (dense)
// load-stress transformation. The copy's arena is exact-fit CSR (no
// slack, no overflow). A non-positive factor yields an empty matrix (all
// entries removed).
func (m *Matrix) Scaled(f float64) *Matrix {
	out := NewMatrix()
	if f <= 0 || math.IsNaN(f) {
		return out
	}
	if m.rows == nil {
		return out
	}
	out.base = m.base
	out.rows = make([]rowRef, len(m.rows))
	out.arena = make([]Edge, 2*m.numPairs)
	cur := 0
	for i := range m.rows {
		n := int(m.rows[i].len)
		if n == 0 {
			continue
		}
		dst := out.arena[cur : cur+n]
		for j, e := range m.row(i) {
			dst[j] = Edge{Peer: e.Peer, Rate: onGrid(e.Rate * f)}
		}
		out.rows[i] = rowRef{off: uint32(cur), len: uint32(n), cap: uint32(n)}
		cur += n
	}
	out.numPairs = m.numPairs
	return out
}

// Clone deep-copies the matrix.
func (m *Matrix) Clone() *Matrix { return m.Scaled(1) }

// Stats reports the matrix's storage accounting — the observable the
// scale benchmarks and the memory-regression tests gate on.
type Stats struct {
	Pairs         int    // communicating pairs
	Edges         int    // directed adjacency entries (2·Pairs)
	RowWindow     int    // row-table span, in VM IDs
	ArenaCap      int    // arena capacity, in edges
	ArenaDead     int    // dead arena entries awaiting compaction
	OverflowRows  int    // rows currently living in the overflow region
	OverflowEdges int    // edges in overflow rows
	Compactions   uint64 // compaction passes performed
	Bytes         int    // adjacency storage footprint, in bytes
}

// Stats returns the current storage accounting. Bytes counts the
// adjacency structures only (arena, row table, overflow region); the
// changelog is excluded.
func (m *Matrix) Stats() Stats {
	s := Stats{
		Pairs:         m.numPairs,
		Edges:         2 * m.numPairs,
		RowWindow:     len(m.rows),
		ArenaCap:      cap(m.arena),
		ArenaDead:     m.dead,
		OverflowRows:  len(m.ovf) - len(m.freeOvf),
		OverflowEdges: m.ovfEdges,
		Compactions:   m.compacts,
		Bytes: cap(m.arena)*edgeBytes + cap(m.rows)*rowRefBytes +
			cap(m.freeOvf)*4 + cap(m.ovf)*24,
	}
	for _, o := range m.ovf {
		s.Bytes += cap(o) * edgeBytes
	}
	return s
}
