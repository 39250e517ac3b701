package core

import "github.com/score-dc/score/internal/cluster"

// Weight returns c_level (level in 1..Depth).
func (cm CostModel) Weight(level int) float64 {
	if level < 1 || level > len(cm.weights) {
		return 0
	}
	return cm.weights[level-1]
}

// VMCost returns C^A(u) (Eq. 1): twice the sum over Vu of λ·Σc_i.
func (e *Engine) VMCost(u cluster.VMID) float64 {
	var sum float64
	hu := e.cl.HostOf(u)
	for _, ed := range e.tm.NeighborEdges(u) {
		sum += e.cost.PairCost(ed.Rate, e.levelOrDepth(hu, e.cl.HostOf(ed.Peer)))
	}
	return sum
}
