package control

import (
	"math"
	"slices"

	"github.com/score-dc/score/internal/cluster"
	"github.com/score-dc/score/internal/topology"
)

// HotPair is one cell of the ToR-level traffic matrix: the aggregate
// rate between two racks (RackA ≤ RackB; equal for the diagonal).
type HotPair struct {
	RackA, RackB int
	Rate         float64
}

// Summary is the incrementally maintained ToR/pod-level aggregate of a
// pairwise VM traffic matrix under a concrete placement: the sparse
// rack-pair rate table plus running communication-locality shares. It is
// pure bookkeeping — the Controller feeds it edge-rate deltas bucketed
// by the endpoints' current racks (from the traffic changelog and from
// placement-change observations), so it never rescans the matrix.
type Summary struct {
	// rack→pod table and unit counts, derived from the topology once.
	rackPod  []int32
	numRacks int
	numPods  int

	// rate holds the symmetric rack-pair aggregates, keyed canonically
	// (low rack in the high word). Cells that reach 0 are deleted so
	// the map tracks the active hotspot structure, not history.
	rate map[uint64]float64

	// cells is the materialized sorted-by-key view of rate that Cells
	// returns. While valid, rate updates to existing pairs are folded in
	// place (a binary search), so the planner's materialization cost in
	// the steady rate-churn state collapses from O(cells·log cells)
	// sort+alloc to a slice read. Structural changes — a new pair, a
	// pair decaying to zero, Reset — invalidate it and the next Cells
	// call rebuilds with one sort.
	cells      []HotPair
	cellsValid bool

	// plan* are Plan's reusable unit-pair aggregation scratch; see
	// planner.go. Keeping them here (the planner is a pure function of
	// the summary) makes steady-state planning allocation-free. The
	// summary was never safe for concurrent use; this keeps it so.
	planIdx   map[uint64]int32
	planKeys  []uint64
	planRates []float64

	// Running locality decomposition of the total rate.
	intraRack float64
	intraPod  float64
	crossPod  float64
}

// NewSummary derives the unit tables from topo and returns an empty
// summary.
func NewSummary(topo topology.Topology) *Summary {
	s := &Summary{rate: make(map[uint64]float64)}
	hosts := topo.Hosts()
	for h := 0; h < hosts; h++ {
		r, p := topo.RackOf(cluster.HostID(h)), topo.PodOf(cluster.HostID(h))
		if r >= s.numRacks {
			s.numRacks = r + 1
		}
		if p >= s.numPods {
			s.numPods = p + 1
		}
	}
	if s.numRacks < 1 {
		s.numRacks = 1
	}
	if s.numPods < 1 {
		s.numPods = 1
	}
	s.rackPod = make([]int32, s.numRacks)
	for h := 0; h < hosts; h++ {
		s.rackPod[topo.RackOf(cluster.HostID(h))] = int32(topo.PodOf(cluster.HostID(h)))
	}
	return s
}

// Reset drops every aggregate (the full-rebuild path after a changelog
// overflow or a bulk allocation rewrite).
func (s *Summary) Reset() {
	s.rate = make(map[uint64]float64)
	s.intraRack, s.intraPod, s.crossPod = 0, 0, 0
	// A rebuild refolds every pair through AddEdge; maintaining the
	// sorted cache insert-by-insert there would be quadratic. Drop it
	// and let the next Cells call rebuild with one sort.
	s.cells = s.cells[:0]
	s.cellsValid = false
}

// PodOfRack resolves a rack's aggregation pod.
func (s *Summary) PodOfRack(rack int) int {
	if rack < 0 || rack >= len(s.rackPod) {
		return 0
	}
	return int(s.rackPod[rack])
}

// Racks and Pods return the topology-wide unit counts the partitioner's
// contiguous-block mapping runs over.
func (s *Summary) Racks() int { return s.numRacks }

// Pods returns the pod count.
func (s *Summary) Pods() int { return s.numPods }

func pairKey(a, b int) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

// AddEdge folds one edge-rate delta into the rack pair (ra, rb). The
// Controller calls it for every traffic-changelog entry (delta =
// new − old at the endpoints' current racks) and twice per placement
// move (− rate at the old rack, + rate at the new one).
func (s *Summary) AddEdge(ra, rb int, delta float64) {
	if delta == 0 || math.IsNaN(delta) {
		return
	}
	if ra < 0 || rb < 0 || ra >= s.numRacks || rb >= s.numRacks {
		return
	}
	switch {
	case ra == rb:
		s.intraRack += delta
	case s.PodOfRack(ra) == s.PodOfRack(rb):
		s.intraPod += delta
	default:
		s.crossPod += delta
	}
	k := pairKey(ra, rb)
	// Rates sit on traffic's grid, so folding an edge in and back out
	// leaves exactly zero, never a residue that keeps a dead cell alive.
	if v := s.rate[k] + delta; v == 0 {
		delete(s.rate, k)
		s.cellDelete(k)
	} else {
		s.rate[k] = v
		s.cellSet(k, v)
	}
}

// cellFind locates k in the sorted cell cache.
func (s *Summary) cellFind(k uint64) (int, bool) {
	return slices.BinarySearchFunc(s.cells, k, func(c HotPair, key uint64) int {
		ck := pairKey(c.RackA, c.RackB)
		switch {
		case ck < key:
			return -1
		case ck > key:
			return 1
		}
		return 0
	})
}

// cellSet folds one map write into the sorted cache, keeping it exactly
// the slice a full sort-based rebuild would produce. In-place updates
// (the steady-state case: rate churn on existing rack pairs) cost a
// binary search. A write that would create a new cell invalidates the
// cache instead: an ordered insert is an O(cells) memmove, and merge
// phases shift rates between rack pairs by the thousands — maintaining
// the sorted view through structural churn costs far more than the one
// sort the next Cells call pays.
func (s *Summary) cellSet(k uint64, v float64) {
	if !s.cellsValid {
		return
	}
	if i, found := s.cellFind(k); found {
		s.cells[i].Rate = v
		return
	}
	s.cells = s.cells[:0]
	s.cellsValid = false
}

// cellDelete invalidates the cache when a pair decays to zero — like
// cellSet's insert case, a structural change is cheaper re-sorted once
// than memmoved per mutation.
func (s *Summary) cellDelete(k uint64) {
	if !s.cellsValid {
		return
	}
	if _, found := s.cellFind(k); found {
		s.cells = s.cells[:0]
		s.cellsValid = false
	}
}

// Total returns the aggregate rate across all rack pairs.
func (s *Summary) Total() float64 { return s.intraRack + s.intraPod + s.crossPod }

// LocalityShares returns the fractions of the total rate that stay
// within one rack, cross racks within one pod, and cross pods. A zero
// total yields all-zero shares.
func (s *Summary) LocalityShares() (intraRack, intraPod, crossPod float64) {
	t := s.Total()
	if t <= 0 {
		return 0, 0, 0
	}
	return s.intraRack / t, s.intraPod / t, s.crossPod / t
}

// Cells returns the non-zero rack-pair aggregates in deterministic
// (rack-pair key ascending) order. The deterministic order matters: the
// planner sums these floats, and the sum must be identical run to run.
// The returned slice is owned by the summary — it stays current through
// subsequent AddEdge calls and must not be mutated or retained by the
// caller. (Cache hit is the steady state: a round's handful of rate
// mutations are folded into the sorted view in place, so repeated
// planning reads cost nothing.)
func (s *Summary) Cells() []HotPair {
	if s.cellsValid {
		return s.cells
	}
	keys := make([]uint64, 0, len(s.rate))
	for k := range s.rate {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if cap(s.cells) < len(keys) {
		s.cells = make([]HotPair, len(keys))
	} else {
		s.cells = s.cells[:len(keys)]
	}
	for i, k := range keys {
		s.cells[i] = HotPair{RackA: int(k >> 32), RackB: int(uint32(k)), Rate: s.rate[k]}
	}
	s.cellsValid = true
	return s.cells
}

// HotPairs returns the k highest-rate rack pairs (rate descending, ties
// by rack-pair key ascending) — the "handful of ToR hotspots" view of
// the current matrix. Selection is partial: only the top k are tracked,
// so a small k over a large matrix never sorts the whole cell set.
func (s *Summary) HotPairs(k int) []HotPair {
	cells := s.Cells()
	hotter := func(a, b HotPair) bool {
		if a.Rate != b.Rate {
			return a.Rate > b.Rate
		}
		return pairKey(a.RackA, a.RackB) < pairKey(b.RackA, b.RackB)
	}
	if k <= 0 || len(cells) <= k {
		out := make([]HotPair, len(cells))
		copy(out, cells)
		slices.SortFunc(out, func(a, b HotPair) int {
			if hotter(a, b) {
				return -1
			}
			return 1
		})
		return out
	}
	// Bounded insertion selection: out holds the current top k in
	// order; each candidate either displaces (shift + insert) or is
	// dropped after one comparison with the current kth entry.
	out := make([]HotPair, 0, k)
	for _, c := range cells {
		if len(out) == k && !hotter(c, out[k-1]) {
			continue
		}
		i, _ := slices.BinarySearchFunc(out, c, func(have, want HotPair) int {
			if hotter(have, want) {
				return -1
			}
			return 1
		})
		if len(out) < k {
			out = append(out, HotPair{})
		}
		copy(out[i+1:], out[i:])
		out[i] = c
	}
	return out
}
