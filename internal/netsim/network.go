// Package netsim is the flow-level network model that replaces ns-3 in
// this reproduction (Section VI): it routes every pair's rate over its
// path and keeps each link's offered load.
//
// Every metric the paper reports is an average over measurement windows
// of seconds to minutes (λ is defined as an average rate over a temporal
// window, Section III), so a flow-level model that routes the same
// pairwise rates over the same paths reproduces the paper's cost and
// utilization arithmetic without per-packet simulation. The simulated
// runs keep their own virtual time (internal/sim).
package netsim

import (
	"github.com/score-dc/score/internal/cluster"
	"github.com/score-dc/score/internal/topology"
	"github.com/score-dc/score/internal/traffic"
)

// Network tracks per-link offered load for the current allocation and
// traffic matrix. Pairwise rates are routed over shortest paths with
// per-flow ECMP (the pair's stable hash picks among equal-cost paths).
// A traffic.Follower of the bound (matrix, cluster) pair keeps the loads:
// every link read syncs it first, so a read sees the moves and rate
// changes made since the last one. The network registers nothing with
// the cluster, so one that is dropped needs no release.
type Network struct {
	topo topology.Topology
	load []float64 // Mb/s per link, indexed by LinkID
	path []topology.LinkID

	// f follows (tm, cl); nil until the first Recompute.
	f  *traffic.Follower
	tm *traffic.Matrix
	cl *cluster.Cluster
}

// NewNetwork creates a load tracker over topo's links.
func NewNetwork(topo topology.Topology) *Network {
	return &Network{
		topo: topo,
		load: make([]float64, len(topo.Links())),
		path: make([]topology.LinkID, 0, 8),
	}
}

// Recompute binds the network to the given traffic matrix and allocation
// and rebuilds every link load from scratch. Cost is O(pairs · path
// length).
func (n *Network) Recompute(tm *traffic.Matrix, cl *cluster.Cluster) {
	if n.f == nil || n.tm != tm || n.cl != cl {
		n.f, n.tm, n.cl = traffic.Follow(tm, cl, n.reset, n.addPair), tm, cl
	}
	n.f.Invalidate()
	n.f.Sync()
}

// Sync brings the link loads up to date with the bound matrix and
// allocation, folding the rate changes since the last call; a network
// bound to another pair, or to none, recomputes.
func (n *Network) Sync(tm *traffic.Matrix, cl *cluster.Cluster) {
	if n.f == nil || n.tm != tm || n.cl != cl {
		n.Recompute(tm, cl)
		return
	}
	n.f.Sync()
}

// sync brings the loads up to date with the bound pair, if any; every
// link read calls it.
func (n *Network) sync() {
	if n.f != nil {
		n.f.Sync()
	}
}

func (n *Network) reset() { clear(n.load) }

// addPair routes delta over the pair's path between hosts ha and hb.
func (n *Network) addPair(a, b cluster.VMID, ha, hb cluster.HostID, delta float64) {
	if ha == cluster.NoHost || hb == cluster.NoHost || ha == hb {
		return
	}
	n.path = n.topo.PathLinks(n.path[:0], ha, hb, topology.PairHash(a, b))
	for _, l := range n.path {
		n.load[l] += delta
	}
}

// LinkLoadMbps returns the offered load on a link.
func (n *Network) LinkLoadMbps(id topology.LinkID) float64 {
	if int(id) < 0 || int(id) >= len(n.load) {
		return 0
	}
	n.sync()
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
	n.sync()
	return n.load[id] / c
}

// UtilizationAtLevel returns the utilization of every link at the given
// hierarchy level (1 = host↔ToR, 2 = ToR↔agg, 3 = agg↔core) — the
// samples behind the Fig. 4a CDFs.
func (n *Network) UtilizationAtLevel(level int) []float64 {
	n.sync()
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
	n.sync()
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
