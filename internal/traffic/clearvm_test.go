package traffic

import (
	"math/rand"
	"testing"

	"github.com/score-dc/score/internal/cluster"
)

func TestClearVMRemovesRowAndLogs(t *testing.T) {
	m := NewMatrix()
	m.Set(1, 2, 10)
	m.Set(1, 3, 20)
	m.Set(2, 3, 30)
	gen := m.Generation()

	if got := m.ClearVM(1); got != 2 {
		t.Fatalf("ClearVM removed %d pairs, want 2", got)
	}
	if d := m.Degree(1); d != 0 {
		t.Fatalf("Degree(1) = %d after ClearVM, want 0", d)
	}
	if m.NumPairs() != 1 {
		t.Fatalf("NumPairs = %d, want 1", m.NumPairs())
	}
	if r := m.Rate(2, 3); r != 30 {
		t.Fatalf("unrelated pair touched: Rate(2,3) = %g", r)
	}
	if r := m.Rate(2, 1); r != 0 {
		t.Fatalf("reverse edge survived: Rate(2,1) = %g", r)
	}
	// Every removal is individually replayable through the changelog.
	changes, ok := m.ChangesSince(gen)
	if !ok {
		t.Fatal("changelog window lost across ClearVM")
	}
	if len(changes) != 2 {
		t.Fatalf("changelog recorded %d entries, want 2", len(changes))
	}
	var total float64
	for _, ch := range changes {
		if ch.New != 0 {
			t.Fatalf("changelog entry %+v has non-zero New", ch)
		}
		total += ch.Old
	}
	if total != 30 {
		t.Fatalf("changelog removed rate sum = %g, want 30", total)
	}
	if m.ClearVM(1) != 0 || m.ClearVM(99) != 0 {
		t.Fatal("ClearVM on empty rows reported removals")
	}
}

// TestClearVMEquivalentToManualRemoval drives the matrix through
// interleaved churn and checks ClearVM leaves it in the same state as
// removing the pairs one by one on a mirror.
func TestClearVMEquivalentToManualRemoval(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m, mirror := NewMatrix(), NewMatrix()
	for i := 0; i < 40; i++ {
		a, b := cluster.VMID(rng.Intn(32)), cluster.VMID(rng.Intn(32))
		r := float64(1 + rng.Intn(100))
		m.Set(a, b, r)
		mirror.Set(a, b, r)
	}
	const victim = cluster.VMID(5)
	for _, e := range append([]Edge(nil), mirror.NeighborEdges(victim)...) {
		mirror.Set(victim, e.Peer, 0)
	}
	m.ClearVM(victim)
	if m.NumPairs() != mirror.NumPairs() {
		t.Fatalf("NumPairs %d vs mirror %d", m.NumPairs(), mirror.NumPairs())
	}
	for i := cluster.VMID(0); i < 32; i++ {
		for j := i + 1; j < 32; j++ {
			if got, want := m.Rate(i, j), mirror.Rate(i, j); got != want {
				t.Fatalf("Rate(%d,%d) = %g, mirror %g", i, j, got, want)
			}
		}
	}
}
