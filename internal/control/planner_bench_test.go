package control

import (
	"math/rand"
	"testing"

	"github.com/score-dc/score/internal/topology"
)

// BenchmarkPlanAfterMoves is what the control plane pays per round on a
// k=16 fat-tree (16 pods, 128 racks): 8 merged moves, each shifting one
// edge's rate from one rack pair to another, then a recommendation. The
// uniform rack pairs are cross-pod-heavy, so Plan scans every candidate
// count — its longest path.
func BenchmarkPlanAfterMoves(b *testing.B) {
	topo, err := topology.NewFatTree(16, 1000)
	if err != nil {
		b.Fatal(err)
	}
	s := NewSummary(topo)
	rng := rand.New(rand.NewSource(20140630))
	pairs := make([][2]int, 3000)
	for i := range pairs {
		pairs[i] = [2]int{rng.Intn(s.numRacks), rng.Intn(s.numRacks)}
		s.AddEdge(pairs[i][0], pairs[i][1], float64(1+rng.Intn(100)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 8; j++ {
			from, to := pairs[(i*8+j)%len(pairs)], pairs[(i*8+j+1)%len(pairs)]
			s.AddEdge(from[0], from[1], -0.5)
			s.AddEdge(to[0], to[1], 0.5)
		}
		_ = Plan(s)
	}
}
