// Package gen builds the benchmark's generated data centers through the
// public score API. The runner and the ladder are separate programs;
// both build their instances here, so for one seed they hold the same
// instance.
package gen

import (
	"math/rand"

	"github.com/score-dc/score"
)

// firstVMID is the first VM ID of every generated instance, and
// scored's own first auto-issued ID.
const firstVMID score.VMID = 1

// Instance is one generated data center: topology, placed VMs, traffic
// matrix and a decision engine over them.
type Instance struct {
	Topo score.Topology
	Cl   *score.Cluster
	TM   *score.TrafficMatrix
	Eng  *score.Engine
	// Slots and RAMMB are the uniform per-host capacities.
	Slots, RAMMB int
}

func newEngine(topo score.Topology, cl *score.Cluster, tm *score.TrafficMatrix) (*score.Engine, error) {
	cost, err := score.NewCostModel(score.PaperWeights()...)
	if err != nil {
		return nil, err
	}
	return score.NewEngine(topo, cost, cl, tm, score.DefaultEngineConfig())
}

// FatTree generates a k-ary fat-tree with vmsPerHost VMs placed on
// every host in topology order (IDs ascend with hosts), ~25 % slot
// headroom so migrations stay admissible, and the sparse hotspot
// traffic matrix — the shape of the repo's recorded scale points.
func FatTree(k, vmsPerHost int, seed int64) (*Instance, error) {
	topo, err := score.NewFatTree(k, 1000)
	if err != nil {
		return nil, err
	}
	slots := vmsPerHost + vmsPerHost/4 + 2
	ramMB := slots * 1024
	cl, err := score.NewCluster(score.UniformHosts(topo.Hosts(), slots, ramMB, 1000))
	if err != nil {
		return nil, err
	}
	pm := score.NewPlacementManager(cl, firstVMID)
	for h := 0; h < topo.Hosts(); h++ {
		for j := 0; j < vmsPerHost; j++ {
			id, err := pm.CreateVM(1024)
			if err != nil {
				return nil, err
			}
			if err := cl.Place(id, score.HostID(h)); err != nil {
				return nil, err
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	tm, err := score.GenerateTraffic(score.DefaultGenConfig(topo.Racks()), topo, cl, rng)
	if err != nil {
		return nil, err
	}
	eng, err := newEngine(topo, cl, tm)
	if err != nil {
		return nil, err
	}
	return &Instance{Topo: topo, Cl: cl, TM: tm, Eng: eng, Slots: slots, RAMMB: ramMB}, nil
}

// Canonical generates the paper's evaluation set-up on a canonical
// tree: 16-slot servers, vmsPerHost VMs per host placed at random, the
// hotspot matrix scaled by density (1, 10 or 50 — Fig. 3's three
// loads).
func Canonical(topo *score.CanonicalTree, vmsPerHost int, density float64, seed int64) (*Instance, error) {
	const slots, ramMB = 16, 32768
	cl, err := score.NewCluster(score.UniformHosts(topo.Hosts(), slots, ramMB, 1000))
	if err != nil {
		return nil, err
	}
	pm := score.NewPlacementManager(cl, firstVMID)
	for i := 0; i < topo.Hosts()*vmsPerHost; i++ {
		if _, err := pm.CreateVM(1024); err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewSource(seed))
	if err := pm.PlaceRandom(rng); err != nil {
		return nil, err
	}
	tm, err := score.GenerateTraffic(score.DefaultGenConfig(topo.Racks()), topo, cl, rng)
	if err != nil {
		return nil, err
	}
	if density != 1 {
		tm = tm.Scaled(density)
	}
	eng, err := newEngine(topo, cl, tm)
	if err != nil {
		return nil, err
	}
	return &Instance{Topo: topo, Cl: cl, TM: tm, Eng: eng, Slots: slots, RAMMB: ramMB}, nil
}

// LadderInputs is what a traced run hands the ladder program, as JSON
// on its standard input. The ladder rebuilds both instances from the
// seed, so its rungs run on the instance the workload started from.
type LadderInputs struct {
	// FatK and VMsPerHost give the workload's fat-tree (converge's k=24,
	// the daemon's k=16); Canon and CanonVMsPerHost the paper's tree.
	FatK, VMsPerHost int
	Canon            score.CanonicalConfig
	CanonVMsPerHost  int
	// TraceEvents and AuditEvents are the daemon's ring sizes.
	TraceEvents, AuditEvents int
	Seed                     int64
	// Bodies are POST /v1/observe request bodies over the fat-tree's VM
	// IDs, as the ingest workload sends them.
	Bodies [][]byte
	// Dir is a scratch directory for the snapshot rungs.
	Dir string
	// Toy shrinks the fixed-size rungs (agent plane, GA, Remedy) for the
	// smoke test.
	Toy bool
}
