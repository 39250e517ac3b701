// Package core implements the paper's primary contribution: the
// communication-cost model (Section II–III) and the S-CORE distributed
// migration decision engine (Section IV–V).
//
// A pair of VMs u, v exchanging traffic at rate λ(u, v) over
// communication level ℓ(u, v) costs 2·λ(u,v)·Σ_{i=1..ℓ} c_i, where c_i
// is the per-data-unit weight of an i-level link (Eq. 1). The global
// cost C^A (Eq. 2) sums this over all communicating pairs. Migrating VM
// u to server x̂ changes the cost by ΔC (Eq. 5), computable from
// information local to u; Theorem 1 admits the migration iff ΔC exceeds
// the migration cost c_m.
//
// The decision rule has one implementation, in two halves. Kernel needs
// no placement: fed the holder's host and each located peer's host and
// rate in row order, it ranks the peers, scores candidates by Eq. 5 — a
// loop of multiply-adds, the same float64 sequence whoever asks — folds
// them under Theorem 1 and falls back to a neighbor's rack. AllocView
// locates the peers in a placement table and admits on slots, RAM, CPU
// and NIC; the dom0 agents (internal/hypervisor) locate by probe and admit
// by capacity response; the GA baseline scores genomes on a Kernel too.
// The cluster owns the placement table AllocView reads, and there is one:
// every view borrows it read-only (cluster.DenseAlloc; the Engine's live
// view re-fetches it on every engine call because the next AddVM may
// reallocate it), and shard rings decide through frozen views that stage
// moves in an overlay of their own — the staged positions of the VMs
// their commits reached, and the room those commits took.
package core

import (
	"fmt"
	"math"
)

// CostModel holds the per-level link weights c_1 < c_2 < … < c_depth and
// their prefix sums, so that the cost of a pair at level ℓ is
// 2·λ·Prefix(ℓ). Construct with NewCostModel; the zero value has no
// levels and treats all traffic as free.
type CostModel struct {
	weights []float64
	prefix  []float64 // prefix[l] = Σ_{i=1..l} weights[i-1]; prefix[0] = 0
}

// NewCostModel builds a cost model from per-level link weights
// (weights[0] is c_1). Weights must be positive; they are not required to
// be increasing, because "link weight assignment can be based on DC
// operator policy to reflect diverse metrics" (Section II), but the
// canonical configuration has c1 < c2 < c3.
func NewCostModel(weights ...float64) (CostModel, error) {
	if len(weights) == 0 {
		return CostModel{}, fmt.Errorf("core: need at least one link weight")
	}
	cm := CostModel{
		weights: append([]float64(nil), weights...),
		prefix:  make([]float64, len(weights)+1),
	}
	for i, w := range weights {
		if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return CostModel{}, fmt.Errorf("core: link weight c%d = %v must be positive and finite", i+1, w)
		}
		cm.prefix[i+1] = cm.prefix[i] + w
	}
	return cm, nil
}

// PaperWeights returns the evaluation's exponentially growing weights for
// a depth-3 hierarchy: c1 = e⁰, c2 = e¹, c3 = e³ (Section VI).
func PaperWeights() []float64 {
	return []float64{1, math.E, math.Exp(3)}
}

// LinearWeights returns c_i = i, an ablation alternative.
func LinearWeights(depth int) []float64 {
	w := make([]float64, depth)
	for i := range w {
		w[i] = float64(i + 1)
	}
	return w
}

// UniformWeights returns c_i = 1, an ablation alternative that makes the
// cost proportional to weighted hop count.
func UniformWeights(depth int) []float64 {
	w := make([]float64, depth)
	for i := range w {
		w[i] = 1
	}
	return w
}

// Depth returns the number of levels the model covers.
func (cm CostModel) Depth() int { return len(cm.weights) }

// Weight returns c_level (level in 1..Depth).
func (cm CostModel) Weight(level int) float64 {
	if level < 1 || level > len(cm.weights) {
		return 0
	}
	return cm.weights[level-1]
}

// Prefix returns Σ_{i=1..level} c_i, clamped to the model depth.
func (cm CostModel) Prefix(level int) float64 {
	if level < 0 {
		return 0
	}
	if level >= len(cm.prefix) {
		level = len(cm.prefix) - 1
	}
	return cm.prefix[level]
}

// PairCost returns the communication cost 2·λ·Σ_{i≤ℓ} c_i contributed by
// one VM pair at the given level (the inner term of Eq. 1 and Eq. 2).
func (cm CostModel) PairCost(rateMbps float64, level int) float64 {
	return 2 * rateMbps * cm.Prefix(level)
}
