package main

import (
	"fmt"
	"math"

	"github.com/score-dc/score"
)

// checkPlacement verifies, through the public cluster API, that every
// VM sits on exactly one host and no host exceeds its slots or RAM.
func checkPlacement(cl *score.Cluster) error {
	seen := 0
	for h := 0; h < cl.NumHosts(); h++ {
		id := score.HostID(h)
		on := cl.VMsOn(id)
		for _, vm := range on {
			if got := cl.HostOf(vm); got != id {
				return fmt.Errorf("VM %d listed on host %d but HostOf says %d", vm, id, got)
			}
		}
		seen += len(on)
		if cl.UsedSlots(id) != len(on) {
			return fmt.Errorf("host %d: %d used slots for %d VMs", id, cl.UsedSlots(id), len(on))
		}
		if cl.FreeSlots(id) < 0 || cl.FreeRAMMB(id) < 0 {
			return fmt.Errorf("host %d over capacity: %d free slots, %d free MB", id, cl.FreeSlots(id), cl.FreeRAMMB(id))
		}
	}
	if seen != cl.NumVMs() {
		return fmt.Errorf("%d VMs placed on hosts, %d registered", seen, cl.NumVMs())
	}
	return nil
}

// checkCost verifies that the engine's incrementally maintained total
// cost equals a fresh engine's over the same state, within 1e-9
// relative.
func checkCost(eng *score.Engine) error {
	fresh, err := score.NewEngine(eng.Topology(), eng.CostModel(), eng.Cluster(), eng.Traffic(), eng.Config())
	if err != nil {
		return err
	}
	defer fresh.Detach()
	got, want := eng.TotalCost(), fresh.TotalCost()
	if !closeRel(got, want, 1e-9) {
		return fmt.Errorf("incremental cost %.17g, recomputed %.17g", got, want)
	}
	return nil
}

func closeRel(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Abs(b)
}
