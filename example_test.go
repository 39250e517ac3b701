package score_test

import (
	"fmt"

	"github.com/score-dc/score"
)

// ExampleCostModel shows the pair-cost arithmetic of Eq. (1): a pair at
// level ℓ pays twice its rate times the prefix sum of link weights.
func ExampleCostModel() {
	cm, _ := score.NewCostModel(1, 2, 4) // c1, c2, c3
	fmt.Println(cm.Prefix(0), cm.Prefix(1), cm.Prefix(2), cm.Prefix(3))
	fmt.Println(cm.PairCost(10, 2)) // 2 · 10 Mb/s · (c1+c2)
	// Output:
	// 0 1 3 7
	// 60
}

// ExampleEngine_Delta demonstrates Theorem 1's local decision: the cost
// change of migrating a VM next to its peer equals what the global
// recomputation would report.
func ExampleEngine_Delta() {
	topo, _ := score.NewCanonicalTree(score.ScaledCanonicalConfig(8, 2))
	cl, _ := score.NewCluster(score.UniformHosts(topo.Hosts(), 4, 8192, 1000))
	cl.AddVM(score.VM{ID: 1, RAMMB: 512})
	cl.AddVM(score.VM{ID: 2, RAMMB: 512})
	cl.Place(1, 0)                            // pod 0
	cl.Place(2, score.HostID(topo.Hosts()-1)) // last pod: level 3

	tm := score.NewTrafficMatrix()
	tm.Set(1, 2, 100) // 100 Mb/s across the core

	cm, _ := score.NewCostModel(1, 2, 4)
	eng, _ := score.NewEngine(topo, cm, cl, tm, score.EngineConfig{})

	before := eng.TotalCost()
	delta := eng.Delta(1, cl.HostOf(2)) // co-locate with the peer
	fmt.Printf("cost=%.0f delta=%.0f\n", before, delta)
	// Output:
	// cost=1400 delta=1400
}

// ExampleHighestLevelFirst shows Algorithm 1 passing the token to a VM
// recorded at the sweep's level.
func ExampleHighestLevelFirst() {
	tok := score.NewToken([]score.VMID{1, 2, 3})
	tok.SetLevel(1, 3) // sweep reached holder 1 at level 3
	tok.SetLevel(3, 3) // VM 3 also hot

	var pol score.HighestLevelFirst
	next, _ := pol.Next(tok, score.HolderView{Holder: 1, OwnLevel: 2})
	fmt.Println(next)
	// Output:
	// 3
}

// ExampleMigrate reproduces the paper's idle-network migration
// envelope: ≈3 s total, ≈127 MB moved, downtime well under 50 ms.
func ExampleMigrate() {
	res := score.Migrate(score.MigrationWorkload{WorkingSetMB: 120, DirtyMBps: 3}, 0)
	fmt.Printf("time≈%.1fs bytes≈%.0fMB downtime<50ms=%v\n",
		res.TotalS, res.MigratedMB, res.DowntimeMS < 50)
	// Output:
	// time≈2.9s bytes≈123MB downtime<50ms=true
}
