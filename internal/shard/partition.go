package shard

import (
	"fmt"
	"slices"

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
// rings hold the cluster's placement as it was at the last addPlaced,
// which patches them from the cluster's placement changelog
// (cluster.MovesSince) and refills them when that refuses.
type Partition struct {
	shards    int
	hostShard []int32
	// rings[s] is shard s's VM ring, a bitmap over the cluster's ID window
	// from base: bit b of rings[s][w] is VM base+64w+b.
	base  cluster.VMID
	rings [][]uint64

	// The placement the rings hold: cl's table, over the ID window of n
	// IDs from base, at generation gen; cl is nil until the first fill.
	// refills counts the full refills.
	cl      *cluster.Cluster
	n       int
	gen     uint64
	refills int
}

// NewHostPartition derives the host→shard mapping alone, with empty VM
// rings: topology units (pods or racks) are assigned to shards in
// contiguous blocks covering hosts [0, hosts). The effective shard count
// is clamped to the number of units at the chosen granularity. The agent
// plane, which reads placement from its registry rather than a cluster,
// uses the table alone.
func NewHostPartition(topo topology.Topology, hosts int, g Granularity, shards int) (*Partition, error) {
	p := &Partition{}
	if err := p.reshape(topo, hosts, g, shards); err != nil {
		return nil, err
	}
	return p, nil
}

// reshape derives the host→shard table of a new shape (NewHostPartition)
// in place and empties the rings for the next addPlaced to refill. The
// table, the rings and the lists keep their storage, rings the new shape
// leaves out included, so a round the tuner reshaped allocates nothing
// here once every shape it plans has been seen at this size.
func (p *Partition) reshape(topo topology.Topology, hosts int, g Granularity, shards int) error {
	if topo == nil {
		return fmt.Errorf("shard: nil topology")
	}
	if shards < 1 {
		return fmt.Errorf("shard: shard count %d must be positive", shards)
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
	p.shards, p.cl = shards, nil
	p.hostShard = slices.Grow(p.hostShard[:0], hosts)[:hosts]
	for h := 0; h < hosts; h++ {
		u := unitOf(cluster.HostID(h))
		if u < 0 {
			u = 0
		} else if u >= units {
			u = units - 1
		}
		p.hostShard[h] = int32(u * shards / units)
	}
	p.rings = slices.Grow(p.rings[:0], shards)[:shards]
	for s := range p.rings {
		p.rings[s] = p.rings[s][:0]
	}
	return nil
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

// patchMax is the most placement writes addPlaced patches: past it, a
// refill — one pass over the ID window — costs less than the patch.
const patchMax = 2048

// addPlaced brings the rings up to the cluster's placement table. When
// they were last filled from the same cluster over the same ID window and
// its changelog serves the writes since, at most patchMax of them, each
// write clears the VM's bit in its old host's shard and sets it in its
// new one's (a re-spec, From == To, clears and sets the same bit);
// otherwise the rings are refilled.
func (p *Partition) addPlaced(cl *cluster.Cluster) {
	if base, alloc := cl.DenseAlloc(); p.cl == cl && base == p.base && len(alloc) == p.n {
		if moves, ok := cl.MovesSince(p.gen); ok && len(moves) <= patchMax {
			for _, m := range moves {
				i := m.VM - p.base
				if m.From != cluster.NoHost {
					p.rings[p.ShardOfHost(m.From)][i>>6] &^= 1 << (i & 63)
				}
				if m.To != cluster.NoHost {
					p.rings[p.ShardOfHost(m.To)][i>>6] |= 1 << (i & 63)
				}
			}
			p.gen = cl.MoveGeneration()
			return
		}
	}
	p.refill(cl)
}

// refill fills the rings with every VM the cluster's placement table
// places, in one pass over the table's ID window: each ring is sized to
// the window and cleared, keeping its storage (a refill allocates nothing
// once the rings have grown to size), then every placed VM sets its bit.
func (p *Partition) refill(cl *cluster.Cluster) {
	base, alloc := cl.DenseAlloc()
	p.cl, p.base, p.n, p.gen = cl, base, len(alloc), cl.MoveGeneration()
	p.refills++
	n := (len(alloc) + 63) / 64
	for s := range p.rings {
		p.rings[s] = slices.Grow(p.rings[s][:0], n)[:n]
		clear(p.rings[s])
	}
	for i, h := range alloc {
		if h != cluster.NoHost {
			p.rings[p.ShardOfHost(h)][i>>6] |= 1 << (i & 63)
		}
	}
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
