package sim

import (
	"testing"

	"github.com/score-dc/score/internal/token"
	"github.com/score-dc/score/internal/traffic"
)

// TestReconvergesAfterTrafficShift exercises the paper's "always-on"
// claim: S-CORE "deals with the dynamic evolution of DC workloads" by
// iteratively re-localizing pairwise traffic as measurement windows roll
// over. We converge on one matrix, swap in a shifted matrix (new hotspot
// partners), run again, and require the cost under the *new* matrix to
// fall substantially from its post-shift level.
func TestReconvergesAfterTrafficShift(t *testing.T) {
	eng, rng := buildEngine(t, 77)

	// Phase 1: converge on the generated matrix.
	r1, err := NewRunner(eng, token.HighestLevelFirst{}, smallConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := r1.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m1.Reduction() < 0.2 {
		t.Fatalf("phase 1 did not converge: %.1f%%", 100*m1.Reduction())
	}

	// Workload shift: rewire every pair (a, b) to (a, succ(b)) — the
	// hotspot structure moves to different VM pairs, so the converged
	// allocation is stale for the new matrix.
	vms := eng.Cluster().VMs()
	pos := make(map[uint32]int, len(vms))
	for i, id := range vms {
		pos[uint32(id)] = i
	}
	shifted := traffic.NewMatrix()
	pairs, rates := eng.Traffic().Pairs()
	for i, p := range pairs {
		nb := vms[(pos[uint32(p.B)]+7)%len(vms)]
		if nb == p.A {
			nb = vms[(pos[uint32(p.B)]+8)%len(vms)]
		}
		shifted.Add(p.A, nb, rates[i])
	}
	eng.SetTraffic(shifted)

	costAfterShift := eng.TotalCost()
	if costAfterShift <= m1.FinalCost {
		t.Skip("shift did not raise cost; rewiring degenerate for this seed")
	}

	// Phase 2: a fresh token run must re-localize the new pairs.
	r2, err := NewRunner(eng, token.HighestLevelFirst{}, smallConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := r2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m2.TotalMigrations == 0 {
		t.Fatal("no migrations after the workload shifted")
	}
	if m2.FinalCost > 0.7*costAfterShift {
		t.Fatalf("re-convergence too weak: %.0f -> %.0f after shift",
			costAfterShift, m2.FinalCost)
	}
}
