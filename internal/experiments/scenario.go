// Package experiments contains one driver per table/figure of the
// paper's evaluation (Section VI), each reproducing the corresponding
// workload, parameter sweep, baseline and output series. The drivers are
// deterministic given a seed and run at three scales: Small for tests,
// Medium for bench/report runs, Paper for the full 2560-host / k = 16
// instances.
package experiments

import (
	"fmt"
	"math/rand"

	"github.com/score-dc/score/internal/cluster"
	"github.com/score-dc/score/internal/core"
	"github.com/score-dc/score/internal/topology"
	"github.com/score-dc/score/internal/traffic"
)

// Scale selects instance sizes.
type Scale int

// Scales: Small finishes in well under a second per run, Medium in
// seconds (the default for reports), Paper matches the publication.
const (
	ScaleSmall Scale = iota + 1
	ScaleMedium
	ScalePaper
)

// String implements fmt.Stringer.
func (s Scale) String() string {
	switch s {
	case ScaleSmall:
		return "small"
	case ScaleMedium:
		return "medium"
	case ScalePaper:
		return "paper"
	default:
		return fmt.Sprintf("scale(%d)", int(s))
	}
}

// Density is the traffic-matrix load factor of Fig. 3.
type Density int

// The paper's three TM densities: the initial sparse matrix and its
// ×10 / ×50 scalings.
const (
	Sparse Density = iota + 1
	Medium
	Dense
)

// Factor returns the TM scale factor.
func (d Density) Factor() float64 {
	switch d {
	case Medium:
		return 10
	case Dense:
		return 50
	default:
		return 1
	}
}

// String implements fmt.Stringer.
func (d Density) String() string {
	switch d {
	case Sparse:
		return "sparse"
	case Medium:
		return "medium"
	case Dense:
		return "dense"
	default:
		return fmt.Sprintf("density(%d)", int(d))
	}
}

// Family names a topology family.
type Family string

// The two evaluated topology families.
const (
	Canonical Family = "canonical"
	FatTree   Family = "fattree"
)

// Scenario bundles one fully initialized experiment instance.
type Scenario struct {
	Topo topology.Topology
	Cl   *cluster.Cluster
	TM   *traffic.Matrix
	Eng  *core.Engine
	Rng  *rand.Rand
	// VMsPerHost is the average initial packing density.
	VMsPerHost int
}

// buildTopology constructs the family at the scale.
func buildTopology(f Family, s Scale) (topology.Topology, error) {
	switch f {
	case Canonical:
		switch s {
		case ScalePaper:
			return topology.NewCanonicalTree(topology.PaperCanonicalConfig())
		case ScaleMedium:
			return topology.NewCanonicalTree(topology.ScaledCanonicalConfig(32, 10))
		default:
			return topology.NewCanonicalTree(topology.ScaledCanonicalConfig(16, 5))
		}
	case FatTree:
		switch s {
		case ScalePaper:
			return topology.NewFatTree(16, 1000)
		case ScaleMedium:
			return topology.NewFatTree(8, 1000)
		default:
			return topology.NewFatTree(4, 1000)
		}
	default:
		return nil, fmt.Errorf("experiments: unknown topology family %q", f)
	}
}

// NewScenario builds a topology, a cluster with 16-slot servers, a
// random initial placement of vmsPerHost·hosts VMs, the hotspot traffic
// matrix at the given density, and a decision engine with the paper's
// exponential link weights.
func NewScenario(f Family, s Scale, d Density, seed int64) (*Scenario, error) {
	topo, err := buildTopology(f, s)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	vmsPerHost := 4

	// 16 VM slots per server at paper scale (Section VI). Scaled-down
	// instances use 8 slots so the ratio of total VMs to per-pod slot
	// capacity stays paper-like (several pods minimum): with the paper's
	// 16 slots a toy instance could collapse every VM into one rack —
	// the "reduced case" of Section III — which would hand the
	// centralized GA an allocation no local scheme could reach.
	slots := 8
	if s == ScalePaper {
		slots = 16
	}
	hosts := cluster.UniformHosts(topo.Hosts(), slots, 32768, 1000)
	cl, err := cluster.New(hosts)
	if err != nil {
		return nil, err
	}
	pm := cluster.NewPlacementManager(cl, 0x0a000001) // 10.0.0.1-style IDs
	numVMs := topo.Hosts() * vmsPerHost
	for i := 0; i < numVMs; i++ {
		if _, err := pm.CreateVM(1024); err != nil {
			return nil, err
		}
	}
	if err := pm.PlaceRandom(rng); err != nil {
		return nil, err
	}

	tm, err := traffic.Generate(traffic.DefaultGenConfig(topo.Racks()), topo, cl, rng)
	if err != nil {
		return nil, err
	}
	if factor := d.Factor(); factor != 1 {
		tm = tm.Scaled(factor)
	}

	cost, err := core.NewCostModel(core.PaperWeights()...)
	if err != nil {
		return nil, err
	}
	eng, err := core.NewEngine(topo, cost, cl, tm, core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	return &Scenario{Topo: topo, Cl: cl, TM: tm, Eng: eng, Rng: rng, VMsPerHost: vmsPerHost}, nil
}

// NewFatTreeScenario builds a fat-tree instance at an explicit k — the
// scale axis of the recorded perf trajectory (k=8 ≈ 128 hosts, k=16 ≈
// 1024, k=24 ≈ 3456, k=32 ≈ 8192). Unlike NewScenario it streams: VMs
// are created and placed in topology order (host 0 first), IDs ascend
// with hosts, and traffic.Generate draws the matrix, streaming its draws
// into a CSR arena — no random-placement retry loop, no pair map, so a
// k=24 instance with 100k+ VMs (vmsPerHost ≈ 30) assembles in seconds.
// Slots carry ~25% headroom over the initial packing so migrations
// remain admissible.
func NewFatTreeScenario(k, vmsPerHost int, d Density, seed int64) (*Scenario, error) {
	if k < 4 || k%2 != 0 {
		return nil, fmt.Errorf("experiments: fat-tree k must be even and ≥ 4, got %d", k)
	}
	if vmsPerHost < 1 {
		return nil, fmt.Errorf("experiments: vmsPerHost must be positive, got %d", vmsPerHost)
	}
	topo, err := topology.NewFatTree(k, 1000)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	slots := vmsPerHost + vmsPerHost/4 + 2
	hosts := cluster.UniformHosts(topo.Hosts(), slots, slots*1024, 1000)
	cl, err := cluster.New(hosts)
	if err != nil {
		return nil, err
	}
	pm := cluster.NewPlacementManager(cl, 0x0a000001) // 10.0.0.1-style IDs
	for h := 0; h < topo.Hosts(); h++ {
		for j := 0; j < vmsPerHost; j++ {
			id, err := pm.CreateVM(1024)
			if err != nil {
				return nil, err
			}
			if err := cl.Place(id, cluster.HostID(h)); err != nil {
				return nil, err
			}
		}
	}

	tm, err := traffic.Generate(traffic.DefaultGenConfig(topo.Racks()), topo, cl, rng)
	if err != nil {
		return nil, err
	}
	if factor := d.Factor(); factor != 1 {
		tm = tm.Scaled(factor)
	}

	cost, err := core.NewCostModel(core.PaperWeights()...)
	if err != nil {
		return nil, err
	}
	eng, err := core.NewEngine(topo, cost, cl, tm, core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	return &Scenario{Topo: topo, Cl: cl, TM: tm, Eng: eng, Rng: rng, VMsPerHost: vmsPerHost}, nil
}

// CloneForRun duplicates the scenario's mutable state (cluster +
// engine) so independent policies start from identical allocations.
func (sc *Scenario) CloneForRun() (*Scenario, error) {
	cl := sc.Cl.Clone()
	eng, err := core.NewEngine(sc.Topo, sc.Eng.CostModel(), cl, sc.TM, sc.Eng.Config())
	if err != nil {
		return nil, err
	}
	return &Scenario{
		Topo: sc.Topo, Cl: cl, TM: sc.TM, Eng: eng,
		Rng: sc.Rng, VMsPerHost: sc.VMsPerHost,
	}, nil
}
