package netsim

import (
	"github.com/score-dc/score/internal/cluster"
	"github.com/score-dc/score/internal/topology"
	"github.com/score-dc/score/internal/traffic"
)

// Network tracks per-link offered load for the current allocation and
// traffic matrix. Pairwise rates are routed over shortest paths with
// per-flow ECMP (the pair's stable hash picks among equal-cost paths).
type Network struct {
	topo topology.Topology
	load []float64 // Mb/s per link, indexed by LinkID
	path []topology.LinkID

	// Incremental base for Sync: the matrix and generation the loads
	// were last brought up to date against. baseTM is identity only —
	// never dereferenced for reads beyond ChangesSince.
	baseTM  *traffic.Matrix
	baseGen uint64
}

// NewNetwork creates a load tracker over topo's links.
func NewNetwork(topo topology.Topology) *Network {
	return &Network{
		topo: topo,
		load: make([]float64, len(topo.Links())),
		path: make([]topology.LinkID, 0, 8),
	}
}

// Recompute rebuilds every link load from scratch for the given traffic
// matrix and allocation. Cost is O(pairs · path length).
func (n *Network) Recompute(tm *traffic.Matrix, cl *cluster.Cluster) {
	for i := range n.load {
		n.load[i] = 0
	}
	pairs, rates := tm.Pairs()
	for i, p := range pairs {
		ha, hb := cl.HostOf(p.A), cl.HostOf(p.B)
		if ha == cluster.NoHost || hb == cluster.NoHost || ha == hb {
			continue
		}
		n.path = n.topo.PathLinks(n.path[:0], ha, hb, topology.PairHash(p.A, p.B))
		for _, l := range n.path {
			n.load[l] += rates[i]
		}
	}
	n.baseTM, n.baseGen = tm, tm.Generation()
}

// Sync brings the link loads up to date with the matrix by folding its
// edge changelog (ChangesSince) instead of rerouting the full pair list
// — the same rollover fast path the decision engine uses for its cost
// accounting. A matrix swap, or a base too far behind the changelog
// window, falls back to Recompute.
//
// Contract: rate deltas are folded over the pairs' *current* hosts, so
// the caller must Sync before applying an allocation change whose pair
// contributions it shifts with ShiftPair (the simulator syncs at every
// migration and at every sample tick). Allocation changes themselves
// are out of scope here — ShiftPair remains the O(degree) companion for
// those.
func (n *Network) Sync(tm *traffic.Matrix, cl *cluster.Cluster) {
	if n.baseTM != tm {
		n.Recompute(tm, cl)
		return
	}
	if tm.Generation() == n.baseGen {
		return
	}
	changes, ok := tm.ChangesSince(n.baseGen)
	if !ok {
		n.Recompute(tm, cl)
		return
	}
	for _, ch := range changes {
		ha, hb := cl.HostOf(ch.A), cl.HostOf(ch.B)
		if ha == cluster.NoHost || hb == cluster.NoHost || ha == hb {
			continue
		}
		delta := ch.New - ch.Old
		if delta == 0 {
			continue
		}
		n.path = n.topo.PathLinks(n.path[:0], ha, hb, topology.PairHash(ch.A, ch.B))
		for _, l := range n.path {
			n.load[l] += delta
		}
	}
	n.baseGen = tm.Generation()
}

// ShiftPair moves one pair's contribution when an endpoint relocates:
// call with the old hosts and delta = -rate, then the new hosts and
// delta = +rate. This keeps migrations O(degree) instead of O(pairs).
func (n *Network) ShiftPair(u, v cluster.VMID, hu, hv cluster.HostID, delta float64) {
	if hu == cluster.NoHost || hv == cluster.NoHost || hu == hv {
		return
	}
	n.path = n.topo.PathLinks(n.path[:0], hu, hv, topology.PairHash(u, v))
	for _, l := range n.path {
		n.load[l] += delta
	}
}

// LinkLoadMbps returns the offered load on a link.
func (n *Network) LinkLoadMbps(id topology.LinkID) float64 {
	if int(id) < 0 || int(id) >= len(n.load) {
		return 0
	}
	return n.load[id]
}

// LinkUtilization returns load/capacity for a link, uncapped (values
// above 1 indicate oversubscription pressure).
func (n *Network) LinkUtilization(id topology.LinkID) float64 {
	links := n.topo.Links()
	if int(id) < 0 || int(id) >= len(links) {
		return 0
	}
	c := links[id].CapacityMbps
	if c <= 0 {
		return 0
	}
	return n.load[id] / c
}

// UtilizationAtLevel returns the utilization of every link at the given
// hierarchy level (1 = host↔ToR, 2 = ToR↔agg, 3 = agg↔core) — the
// samples behind the Fig. 4a CDFs.
func (n *Network) UtilizationAtLevel(level int) []float64 {
	links := n.topo.Links()
	out := make([]float64, 0, len(links)/3)
	for _, l := range links {
		if l.Level != level {
			continue
		}
		if l.CapacityMbps <= 0 {
			continue
		}
		out = append(out, n.load[l.ID]/l.CapacityMbps)
	}
	return out
}

// MaxUtilization returns the most loaded link and its utilization.
func (n *Network) MaxUtilization() (topology.LinkID, float64) {
	bestID, best := topology.LinkID(-1), 0.0
	links := n.topo.Links()
	for _, l := range links {
		if l.CapacityMbps <= 0 {
			continue
		}
		if u := n.load[l.ID] / l.CapacityMbps; u > best {
			bestID, best = l.ID, u
		}
	}
	return bestID, best
}

// HostLinkUtilization returns the utilization of a server's access link,
// used as the background-load input to the migration model.
func (n *Network) HostLinkUtilization(h cluster.HostID) float64 {
	// Host links occupy IDs [0, hosts) in both topology families.
	return n.LinkUtilization(topology.LinkID(h))
}
