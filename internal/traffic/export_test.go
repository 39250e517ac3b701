package traffic

import "github.com/score-dc/score/internal/cluster"

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
