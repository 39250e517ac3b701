// Package topology models layered data-center network topologies.
//
// The paper (Section II, Fig. 1) assumes three communication layers —
// Top-of-Rack (ToR), aggregation, and core — and defines the
// communication level between two servers x̂, ŷ as ℓ = h(x̂, ŷ)/2 where h
// is the shortest-path hop count: 0 for the same server, 1 within a rack,
// 2 within an aggregation pod, 3 across the core. Two topology families
// are evaluated: a canonical tree (2560 hosts, 128 ToR switches, 20 hosts
// per rack) and a fat-tree with k = 16 (1024 hosts).
package topology

import (
	"fmt"

	"github.com/score-dc/score/internal/cluster"
)

// LinkID indexes a physical link within a topology's Links slice.
type LinkID int32

// Link is a physical network link at a given layer of the hierarchy.
// Links that connect servers to ToR switches are 1-level links, ToR to
// aggregation 2-level, aggregation to core 3-level (Section II).
type Link struct {
	ID           LinkID
	Level        int
	CapacityMbps float64
	// Label describes the endpoints, for diagnostics and CSV output.
	Label string
}

// Topology exposes the level structure and link-level routing of a DC
// network. Implementations are immutable after construction and safe for
// concurrent use.
type Topology interface {
	// Name identifies the topology family (for reports).
	Name() string
	// Hosts is the number of physical servers.
	Hosts() int
	// Depth is the highest communication level (3 for both families).
	Depth() int
	// Level returns the communication level ℓ(a, b) = h(a, b)/2 between
	// two servers: 0 if a == b, 1 same rack, 2 same pod, 3 via core.
	Level(a, b cluster.HostID) int
	// Racks is the number of ToR switches.
	Racks() int
	// RackOf returns the rack (ToR) index of a host.
	RackOf(h cluster.HostID) int
	// PodOf returns the aggregation-pod index of a host.
	PodOf(h cluster.HostID) int
	// HostsInRack lists the hosts under one ToR switch. Every host it
	// lists has RackOf == rack, and all of them share one PodOf: a rack
	// sits in one pod. core refuses a topology that breaks this.
	HostsInRack(rack int) []cluster.HostID
	// Links lists every physical link.
	Links() []Link
	// PathLinks appends to dst the links on the path between hosts a and
	// b for a flow with the given ECMP hash, and returns the extended
	// slice. It returns dst unchanged when a == b (no network links).
	PathLinks(dst []LinkID, a, b cluster.HostID, flowHash uint64) []LinkID
}

// Interface compliance checks.
var (
	_ Topology = (*CanonicalTree)(nil)
	_ Topology = (*FatTree)(nil)
)

// CanonicalConfig parameterizes a canonical (oversubscribed) tree.
type CanonicalConfig struct {
	// Racks is the number of ToR switches (paper: 128).
	Racks int
	// HostsPerRack is the number of servers per ToR (paper: 20).
	HostsPerRack int
	// RacksPerPod is how many ToRs share one aggregation switch
	// (paper topology: 8, giving 16 aggregation pods).
	RacksPerPod int
	// CoreSwitches is the number of core switches each pod uplinks to.
	CoreSwitches int
	// HostLinkMbps, TorUplinkMbps, AggUplinkMbps are link capacities,
	// reflecting 1 Gb/s host links and 10 Gb/s switch uplinks.
	HostLinkMbps  float64
	TorUplinkMbps float64
	AggUplinkMbps float64
}

// PaperCanonicalConfig returns the evaluation-scale canonical tree:
// 2560 hosts, 128 ToR switches, 20 hosts per rack (Section VI), with
// 10 Gb/s switch uplinks giving the 2:1 edge and growing core
// oversubscription the paper describes ("the oversubscription ratio
// increases dramatically from edge to core layers", Section V-C).
func PaperCanonicalConfig() CanonicalConfig {
	return withOversubscription(CanonicalConfig{
		Racks: 128, HostsPerRack: 20, RacksPerPod: 8, CoreSwitches: 4,
		HostLinkMbps: 1000,
	})
}

// ScaledCanonicalConfig returns a smaller instance preserving the
// paper-scale shape: the same 2:1 per-layer oversubscription and at
// least 8 aggregation pods, so a workload can never collapse into one
// pod the way a toy two-pod tree would allow.
func ScaledCanonicalConfig(racks, hostsPerRack int) CanonicalConfig {
	rpp := racks / 8
	if rpp < 1 {
		rpp = 1
	}
	for racks%rpp != 0 {
		rpp--
	}
	return withOversubscription(CanonicalConfig{
		Racks: racks, HostsPerRack: hostsPerRack, RacksPerPod: rpp, CoreSwitches: 2,
		HostLinkMbps: 1000,
	})
}

// withOversubscription derives uplink capacities from the host links:
// each ToR uplink carries half its rack's access capacity (2:1), and
// each pod's core uplinks together carry half the pod's ToR uplink
// capacity (another 2:1, i.e. 4:1 host-to-core).
func withOversubscription(cfg CanonicalConfig) CanonicalConfig {
	cfg.TorUplinkMbps = float64(cfg.HostsPerRack) * cfg.HostLinkMbps / 2
	cfg.AggUplinkMbps = float64(cfg.RacksPerPod) * cfg.TorUplinkMbps / (2 * float64(cfg.CoreSwitches))
	return cfg
}

// CanonicalTree is the layered tree of Fig. 1(a): hosts under ToR
// switches, ToRs grouped into aggregation pods, pods joined by a core
// layer. Each ToR has one uplink to its pod's aggregation switch; each
// pod has one uplink per core switch.
type CanonicalTree struct {
	cfg   CanonicalConfig
	pods  int
	links []Link
	// Link index layout:
	//   [0, hosts)                            host↔ToR, level 1
	//   [hosts, hosts+racks)                  ToR↔agg, level 2
	//   [hosts+racks, hosts+racks+pods*cores) agg↔core, level 3
	torBase, coreBase int
}

// NewCanonicalTree validates cfg and builds the topology.
func NewCanonicalTree(cfg CanonicalConfig) (*CanonicalTree, error) {
	switch {
	case cfg.Racks <= 0 || cfg.HostsPerRack <= 0:
		return nil, fmt.Errorf("topology: racks and hosts per rack must be positive, got %d, %d", cfg.Racks, cfg.HostsPerRack)
	case cfg.RacksPerPod <= 0 || cfg.Racks%cfg.RacksPerPod != 0:
		return nil, fmt.Errorf("topology: racks (%d) must divide evenly into pods of %d", cfg.Racks, cfg.RacksPerPod)
	case cfg.CoreSwitches <= 0:
		return nil, fmt.Errorf("topology: need at least one core switch, got %d", cfg.CoreSwitches)
	case cfg.HostLinkMbps <= 0 || cfg.TorUplinkMbps <= 0 || cfg.AggUplinkMbps <= 0:
		return nil, fmt.Errorf("topology: link capacities must be positive")
	}
	t := &CanonicalTree{cfg: cfg, pods: cfg.Racks / cfg.RacksPerPod}
	hosts := cfg.Racks * cfg.HostsPerRack
	t.torBase = hosts
	t.coreBase = hosts + cfg.Racks
	total := t.coreBase + t.pods*cfg.CoreSwitches
	t.links = make([]Link, 0, total)
	for h := 0; h < hosts; h++ {
		t.links = append(t.links, Link{
			ID: LinkID(h), Level: 1, CapacityMbps: cfg.HostLinkMbps,
			Label: fmt.Sprintf("host%d-tor%d", h, h/cfg.HostsPerRack),
		})
	}
	for r := 0; r < cfg.Racks; r++ {
		t.links = append(t.links, Link{
			ID: LinkID(t.torBase + r), Level: 2, CapacityMbps: cfg.TorUplinkMbps,
			Label: fmt.Sprintf("tor%d-agg%d", r, r/cfg.RacksPerPod),
		})
	}
	for p := 0; p < t.pods; p++ {
		for c := 0; c < cfg.CoreSwitches; c++ {
			t.links = append(t.links, Link{
				ID:    LinkID(t.coreBase + p*cfg.CoreSwitches + c),
				Level: 3, CapacityMbps: cfg.AggUplinkMbps,
				Label: fmt.Sprintf("agg%d-core%d", p, c),
			})
		}
	}
	return t, nil
}

// Name implements Topology.
func (t *CanonicalTree) Name() string { return "canonical-tree" }

// Hosts implements Topology.
func (t *CanonicalTree) Hosts() int { return t.cfg.Racks * t.cfg.HostsPerRack }

// Depth implements Topology.
func (t *CanonicalTree) Depth() int { return 3 }

// Racks implements Topology.
func (t *CanonicalTree) Racks() int { return t.cfg.Racks }

// RackOf implements Topology.
func (t *CanonicalTree) RackOf(h cluster.HostID) int { return int(h) / t.cfg.HostsPerRack }

// PodOf implements Topology.
func (t *CanonicalTree) PodOf(h cluster.HostID) int { return t.RackOf(h) / t.cfg.RacksPerPod }

// HostsInRack implements Topology.
func (t *CanonicalTree) HostsInRack(rack int) []cluster.HostID {
	if rack < 0 || rack >= t.cfg.Racks {
		return nil
	}
	out := make([]cluster.HostID, t.cfg.HostsPerRack)
	base := rack * t.cfg.HostsPerRack
	for i := range out {
		out[i] = cluster.HostID(base + i)
	}
	return out
}

// Links implements Topology.
func (t *CanonicalTree) Links() []Link { return t.links }

// Level implements Topology.
func (t *CanonicalTree) Level(a, b cluster.HostID) int {
	switch {
	case a == b:
		return 0
	case t.RackOf(a) == t.RackOf(b):
		return 1
	case t.PodOf(a) == t.PodOf(b):
		return 2
	default:
		return 3
	}
}

// PathLinks implements Topology. The canonical tree has a unique shortest
// path up to the choice of core switch, selected by flowHash.
func (t *CanonicalTree) PathLinks(dst []LinkID, a, b cluster.HostID, flowHash uint64) []LinkID {
	if a == b {
		return dst
	}
	dst = append(dst, LinkID(a), LinkID(b)) // the two host links
	ra, rb := t.RackOf(a), t.RackOf(b)
	if ra == rb {
		return dst
	}
	dst = append(dst, LinkID(t.torBase+ra), LinkID(t.torBase+rb))
	pa, pb := t.PodOf(a), t.PodOf(b)
	if pa == pb {
		return dst
	}
	core := int(flowHash % uint64(t.cfg.CoreSwitches))
	dst = append(dst,
		LinkID(t.coreBase+pa*t.cfg.CoreSwitches+core),
		LinkID(t.coreBase+pb*t.cfg.CoreSwitches+core))
	return dst
}

// FatTree is the k-ary fat-tree of Fig. 1(b) (Al-Fares et al.): k pods,
// each with k/2 edge and k/2 aggregation switches; (k/2)² core switches;
// k²/4 equal-cost paths between hosts in different pods. The paper
// evaluates k = 16 (1024 hosts).
type FatTree struct {
	k            int
	hostLinkMbps float64
	upLinkMbps   float64
	links        []Link
	// Link index layout:
	//   [0, hosts)                 host↔edge, level 1
	//   [edgeBase, +pods*half²)    edge↔agg, level 2 (edge e to agg a in pod p)
	//   [coreBase, +pods*half²)    agg↔core, level 3 (agg a, core port c in pod p)
	edgeBase, coreBase int
}

// NewFatTree builds a k-ary fat-tree; k must be even and ≥ 2.
func NewFatTree(k int, hostLinkMbps float64) (*FatTree, error) {
	if k < 2 || k%2 != 0 {
		return nil, fmt.Errorf("topology: fat-tree k must be even and >= 2, got %d", k)
	}
	if hostLinkMbps <= 0 {
		return nil, fmt.Errorf("topology: link capacity must be positive")
	}
	half := k / 2
	hosts := k * half * half
	t := &FatTree{
		k:            k,
		hostLinkMbps: hostLinkMbps,
		// The rearrangeably non-blocking property of fat-trees comes from
		// all links having identical capacity.
		upLinkMbps: hostLinkMbps,
		edgeBase:   hosts,
	}
	t.coreBase = t.edgeBase + k*half*half
	total := t.coreBase + k*half*half
	t.links = make([]Link, 0, total)
	for h := 0; h < hosts; h++ {
		t.links = append(t.links, Link{
			ID: LinkID(h), Level: 1, CapacityMbps: hostLinkMbps,
			Label: fmt.Sprintf("host%d-edge", h),
		})
	}
	for p := 0; p < k; p++ {
		for e := 0; e < half; e++ {
			for a := 0; a < half; a++ {
				t.links = append(t.links, Link{
					ID:    LinkID(t.edgeBase + (p*half+e)*half + a),
					Level: 2, CapacityMbps: t.upLinkMbps,
					Label: fmt.Sprintf("p%d.edge%d-agg%d", p, e, a),
				})
			}
		}
	}
	for p := 0; p < k; p++ {
		for a := 0; a < half; a++ {
			for c := 0; c < half; c++ {
				t.links = append(t.links, Link{
					ID:    LinkID(t.coreBase + (p*half+a)*half + c),
					Level: 3, CapacityMbps: t.upLinkMbps,
					Label: fmt.Sprintf("p%d.agg%d-core%d", p, a, a*half+c),
				})
			}
		}
	}
	return t, nil
}

// Name implements Topology.
func (t *FatTree) Name() string { return "fat-tree" }

// Hosts implements Topology.
func (t *FatTree) Hosts() int { return t.k * (t.k / 2) * (t.k / 2) }

// Depth implements Topology.
func (t *FatTree) Depth() int { return 3 }

// Racks implements Topology. Each edge switch is the fat-tree's ToR.
func (t *FatTree) Racks() int { return t.k * (t.k / 2) }

// RackOf implements Topology.
func (t *FatTree) RackOf(h cluster.HostID) int { return int(h) / (t.k / 2) }

// PodOf implements Topology.
func (t *FatTree) PodOf(h cluster.HostID) int { return t.RackOf(h) / (t.k / 2) }

// HostsInRack implements Topology.
func (t *FatTree) HostsInRack(rack int) []cluster.HostID {
	if rack < 0 || rack >= t.Racks() {
		return nil
	}
	half := t.k / 2
	out := make([]cluster.HostID, half)
	for i := range out {
		out[i] = cluster.HostID(rack*half + i)
	}
	return out
}

// Links implements Topology.
func (t *FatTree) Links() []Link { return t.links }

// Level implements Topology.
func (t *FatTree) Level(a, b cluster.HostID) int {
	switch {
	case a == b:
		return 0
	case t.RackOf(a) == t.RackOf(b):
		return 1
	case t.PodOf(a) == t.PodOf(b):
		return 2
	default:
		return 3
	}
}

// PathLinks implements Topology. Equal-cost multipath is resolved by
// flowHash: intra-pod flows choose one of k/2 aggregation switches,
// inter-pod flows one of (k/2)² core switches, matching per-flow ECMP.
func (t *FatTree) PathLinks(dst []LinkID, a, b cluster.HostID, flowHash uint64) []LinkID {
	if a == b {
		return dst
	}
	dst = append(dst, LinkID(a), LinkID(b))
	ra, rb := t.RackOf(a), t.RackOf(b)
	if ra == rb {
		return dst
	}
	half := t.k / 2
	pa, pb := ra/half, rb/half
	if pa == pb {
		agg := int(flowHash % uint64(half))
		dst = append(dst,
			LinkID(t.edgeBase+ra*half+agg),
			LinkID(t.edgeBase+rb*half+agg))
		return dst
	}
	// Core switch index c in [0, half²): determines the aggregation
	// switch (c / half) in both pods and the core port (c % half).
	c := int(flowHash % uint64(half*half))
	agg, port := c/half, c%half
	dst = append(dst,
		LinkID(t.edgeBase+ra*half+agg),
		LinkID(t.coreBase+(pa*half+agg)*half+port),
		LinkID(t.coreBase+(pb*half+agg)*half+port),
		LinkID(t.edgeBase+rb*half+agg))
	return dst
}

// PairHash produces a stable ECMP hash for a VM pair, playing the role of
// the 5-tuple hash a switch would compute. It is symmetric so both
// directions of a bidirectional exchange take the same path.
func PairHash(a, b cluster.VMID) uint64 {
	if a > b {
		a, b = b, a
	}
	x := uint64(a)<<32 | uint64(b)
	// SplitMix64 finalizer: cheap, well-distributed.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
