package traffic

import (
	"math/rand"
	"testing"

	"github.com/score-dc/score/internal/cluster"
)

// TestNeighborEdgesSortedAndSymmetric: every row is sorted by peer ID
// and mirrors the reverse direction with the same rate.
func TestNeighborEdgesSortedAndSymmetric(t *testing.T) {
	m := NewMatrix()
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		m.Set(cluster.VMID(rng.Intn(64)), cluster.VMID(rng.Intn(64)), 1+rng.Float64())
	}
	for i := 0; i < 200; i++ { // sprinkle removals
		m.Set(cluster.VMID(rng.Intn(64)), cluster.VMID(rng.Intn(64)), 0)
	}
	for u := cluster.VMID(0); u < 64; u++ {
		row := m.NeighborEdges(u)
		for i, e := range row {
			if i > 0 && row[i-1].Peer >= e.Peer {
				t.Fatalf("row %d not strictly sorted: %v", u, row)
			}
			if e.Peer == u {
				t.Fatalf("self edge stored for %d", u)
			}
			if got := m.Rate(e.Peer, u); got != e.Rate {
				t.Fatalf("asymmetric edge %d↔%d: %v vs %v", u, e.Peer, e.Rate, got)
			}
		}
		if len(row) != m.Degree(u) {
			t.Fatalf("Degree(%d) = %d, row has %d", u, m.Degree(u), len(row))
		}
	}
}

// TestGenerationCounter: every mutation moves the generation; reads do
// not.
func TestGenerationCounter(t *testing.T) {
	m := NewMatrix()
	g0 := m.Generation()
	m.Set(1, 2, 5)
	g1 := m.Generation()
	if g1 == g0 {
		t.Fatal("Set did not move the generation")
	}
	m.Rate(1, 2)
	m.NeighborEdges(1)
	m.Pairs()
	m.VMLoad(1)
	if m.Generation() != g1 {
		t.Fatal("reads moved the generation")
	}
	m.Set(1, 2, 0)
	if m.Generation() == g1 {
		t.Fatal("removal did not move the generation")
	}
	g2 := m.Generation()
	m.Set(3, 3, 9) // self pair: no-op
	m.Set(4, 5, 0) // removing an absent pair: no-op
	if m.Generation() != g2 {
		t.Fatal("no-op mutations moved the generation")
	}
}

// TestPairsCacheTracksMutation: the pair list follows a mutation, and a
// previously returned list is left intact.
func TestPairsCacheTracksMutation(t *testing.T) {
	m := NewMatrix()
	m.Set(1, 2, 5)
	m.Set(2, 3, 7)
	p1, r1 := m.Pairs()
	if len(p1) != 2 {
		t.Fatalf("pairs = %v", p1)
	}
	m.Set(4, 5, 1)
	p2, _ := m.Pairs()
	if len(p2) != 3 {
		t.Fatalf("pairs after add = %v", p2)
	}
	// The old snapshot must be unchanged (stale but intact).
	if len(p1) != 2 || p1[0] != (Pair{A: 1, B: 2}) || r1[0] != 5 {
		t.Fatalf("old snapshot mutated: %v %v", p1, r1)
	}
}

// TestHotQueriesAllocFree: the queries on the decision hot path must not
// allocate.
func TestHotQueriesAllocFree(t *testing.T) {
	m := NewMatrix()
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 300; i++ {
		m.Set(cluster.VMID(rng.Intn(40)), cluster.VMID(rng.Intn(40)), 1+rng.Float64())
	}
	if avg := testing.AllocsPerRun(200, func() {
		m.Rate(3, 17)
		m.NeighborEdges(3)
		m.VMLoad(3)
		m.Degree(3)
		m.Generation()
		m.TotalRate()
	}); avg != 0 {
		t.Fatalf("hot queries allocate %v times per run, want 0", avg)
	}
}

// TestScaledSharesNothing: mutating a scaled copy must not disturb the
// original's rows.
func TestScaledSharesNothing(t *testing.T) {
	m := NewMatrix()
	m.Set(1, 2, 10)
	m.Set(1, 3, 20)
	s := m.Scaled(2)
	s.Set(1, 2, 999)
	s.Set(1, 4, 7)
	if got := m.Rate(1, 2); got != 10 {
		t.Fatalf("original mutated through scaled copy: %v", got)
	}
	if got := m.Degree(1); got != 2 {
		t.Fatalf("original degree changed: %d", got)
	}
	if got := s.Rate(1, 3); got != 40 {
		t.Fatalf("scaled rate = %v, want 40", got)
	}
}
