package control

import (
	"math"

	"github.com/score-dc/score/internal/cluster"
	"github.com/score-dc/score/internal/topology"
)

// Summary is the incrementally maintained aggregate of a pairwise VM
// traffic matrix under a concrete placement, at the resolution Plan
// reads it: the running communication-locality sums and the dense
// pod-pair table of cross-pod rates. It is pure bookkeeping — the
// Controller's traffic.Follower feeds it edge-rate deltas bucketed by
// the endpoints' racks (from the traffic and placement changelogs), so
// it never rescans the matrix. Every field is a sum of
// rates on traffic's grid, hence exact: the order deltas arrive in does
// not change a bit of it.
type Summary struct {
	// host→rack and rack→pod tables and unit counts, derived from the
	// topology once.
	hostRack []int32
	rackPod  []int32
	numRacks int
	numPods  int

	// podRate[lo*numPods+hi] is the rate between pods lo < hi; the
	// diagonal and the lower triangle stay zero.
	podRate []float64

	// Running locality decomposition of the total rate.
	intraRack float64
	intraPod  float64
	crossPod  float64
}

// NewSummary derives the unit tables from topo and returns an empty
// summary.
func NewSummary(topo topology.Topology) *Summary {
	hosts := topo.Hosts()
	s := &Summary{hostRack: make([]int32, hosts)}
	for h := 0; h < hosts; h++ {
		r, p := topo.RackOf(cluster.HostID(h)), topo.PodOf(cluster.HostID(h))
		s.hostRack[h] = int32(r)
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
		s.rackPod[s.hostRack[h]] = int32(topo.PodOf(cluster.HostID(h)))
	}
	s.podRate = make([]float64, s.numPods*s.numPods)
	return s
}

// rackOf returns host h's rack from the table; ok is false for a host
// outside it.
func (s *Summary) rackOf(h cluster.HostID) (rack int, ok bool) {
	if uint(h) < uint(len(s.hostRack)) {
		return int(s.hostRack[h]), true
	}
	return 0, false
}

// Reset drops every aggregate (the full-rebuild path after a changelog
// overflow or a bulk allocation rewrite).
func (s *Summary) Reset() {
	clear(s.podRate)
	s.intraRack, s.intraPod, s.crossPod = 0, 0, 0
}

// AddEdge folds one edge-rate delta into the rack pair (ra, rb). The
// Controller calls it for every traffic-changelog entry (delta =
// new − old at the endpoints' racks as of the last sync) and twice per
// pair of a moved VM (− rate at the old racks, + rate at the new ones).
func (s *Summary) AddEdge(ra, rb int, delta float64) {
	if delta == 0 || math.IsNaN(delta) {
		return
	}
	if ra < 0 || rb < 0 || ra >= s.numRacks || rb >= s.numRacks {
		return
	}
	if ra == rb {
		s.intraRack += delta
		return
	}
	pa, pb := int(s.rackPod[ra]), int(s.rackPod[rb])
	if pa == pb {
		s.intraPod += delta
		return
	}
	if pa > pb {
		pa, pb = pb, pa
	}
	s.crossPod += delta
	s.podRate[pa*s.numPods+pb] += delta
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
