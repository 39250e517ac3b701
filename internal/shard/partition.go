package shard

import (
	"fmt"

	"github.com/score-dc/score/internal/cluster"
	"github.com/score-dc/score/internal/topology"
)

// Granularity selects the topology unit that shard boundaries follow.
// Pod-aligned shards (the default) keep both rack- and pod-local
// migrations intra-shard; rack-aligned shards are finer, pushing
// pod-level moves through the reconciliation queue.
type Granularity int

// Shard alignment units.
const (
	ByPod Granularity = iota
	ByRack
)

// String implements fmt.Stringer.
func (g Granularity) String() string {
	switch g {
	case ByPod:
		return "pod"
	case ByRack:
		return "rack"
	default:
		return fmt.Sprintf("granularity(%d)", int(g))
	}
}

// ParseGranularity resolves "pod" or "rack".
func ParseGranularity(s string) (Granularity, error) {
	switch s {
	case "pod":
		return ByPod, nil
	case "rack":
		return ByRack, nil
	default:
		return 0, fmt.Errorf("shard: unknown granularity %q (want pod or rack)", s)
	}
}

// Partition maps every host — and through the current allocation, every
// placed VM — to one of a fixed number of shards. Units (pods or racks)
// are assigned to shards in contiguous blocks, so a shard is a set of
// whole units and its boundaries coincide with topology levels. The VM
// rings hold the placement as it was when they were filled (Add); they
// follow no later change to it.
type Partition struct {
	shards    int
	hostShard []int32
	vms       [][]cluster.VMID
}

// NewHostPartition derives the host→shard mapping alone, with empty VM
// rings: topology units (pods or racks) are assigned to shards in
// contiguous blocks covering hosts [0, hosts). The effective shard count
// is clamped to the number of units at the chosen granularity. Callers
// that track VM placement themselves (the agent plane, which reads the
// registry rather than a cluster) populate the rings via Add.
func NewHostPartition(topo topology.Topology, hosts int, g Granularity, shards int) (*Partition, error) {
	if topo == nil {
		return nil, fmt.Errorf("shard: nil topology")
	}
	if shards < 1 {
		return nil, fmt.Errorf("shard: shard count %d must be positive", shards)
	}
	if n := topo.Hosts(); n > hosts {
		hosts = n
	}
	unitOf := func(h cluster.HostID) int {
		if g == ByRack {
			return topo.RackOf(h)
		}
		return topo.PodOf(h)
	}
	units := 0
	for h := 0; h < hosts; h++ {
		if u := unitOf(cluster.HostID(h)); u >= units {
			units = u + 1
		}
	}
	if units < 1 {
		units = 1
	}
	if shards > units {
		shards = units
	}
	p := &Partition{shards: shards, hostShard: make([]int32, hosts)}
	for h := 0; h < hosts; h++ {
		u := unitOf(cluster.HostID(h))
		if u < 0 {
			u = 0
		} else if u >= units {
			u = units - 1
		}
		p.hostShard[h] = int32(u * shards / units)
	}
	p.vms = make([][]cluster.VMID, shards)
	return p, nil
}

// NewPartition derives a partition of the cluster's current allocation
// into at most shards shards. The effective shard count is clamped to
// the number of topology units at the chosen granularity.
func NewPartition(topo topology.Topology, cl *cluster.Cluster, g Granularity, shards int) (*Partition, error) {
	if cl == nil {
		return nil, fmt.Errorf("shard: nil dependency")
	}
	p, err := NewHostPartition(topo, cl.NumHosts(), g, shards)
	if err != nil {
		return nil, err
	}
	p.addPlaced(cl)
	return p, nil
}

// empty truncates every ring, keeping its storage: refilling it with
// addPlaced allocates nothing once the rings have grown to size.
func (p *Partition) empty() {
	for s := range p.vms {
		p.vms[s] = p.vms[s][:0]
	}
}

// addPlaced adds every VM the cluster's placement table places, in one
// ascending pass.
func (p *Partition) addPlaced(cl *cluster.Cluster) {
	base, alloc := cl.DenseAlloc()
	for i, h := range alloc {
		if h != cluster.NoHost {
			p.Add(base+cluster.VMID(i), h)
		}
	}
}

// Add appends vm, hosted on h, to the ring of h's shard. A ring is
// walked in slice order and that order must ascend by ID, so callers
// add VMs in ascending ID order, each at most once.
func (p *Partition) Add(vm cluster.VMID, h cluster.HostID) {
	s := p.ShardOfHost(h)
	p.vms[s] = append(p.vms[s], vm)
}

// Shards returns the effective shard count.
func (p *Partition) Shards() int { return p.shards }

// ShardOfHost returns the shard owning host h. Hosts outside the table
// fall into the last shard.
func (p *Partition) ShardOfHost(h cluster.HostID) int {
	if h < 0 {
		return 0
	}
	if int(h) >= len(p.hostShard) {
		return p.shards - 1
	}
	return int(p.hostShard[h])
}

// HostShards returns the host→shard table, owned by the partition.
func (p *Partition) HostShards() []int32 { return p.hostShard }

// VMs returns shard s's VM population in ascending ID order. The slice
// is owned by the partition.
func (p *Partition) VMs(s int) []cluster.VMID { return p.vms[s] }
