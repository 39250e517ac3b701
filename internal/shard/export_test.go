package shard

import (
	"math/bits"

	"github.com/score-dc/score/internal/cluster"
)

// BuildEngine exposes the fat-tree fixture to the package's external
// tests, which import the control plane (itself an importer of shard).
var BuildEngine = buildEngine

// SetWorkers gives c a worker pool of w workers in place of its own, so a
// test can hold a round run with helpers to one run inline (w = 1).
func SetWorkers(c *Coordinator, w int) {
	c.plane.pool.Close()
	p := NewPool(w)
	c.plane.pool, c.Driver.pool = p, p
}

// VMs returns shard s's VM population in ascending ID order.
func (p *Partition) VMs(s int) []cluster.VMID {
	var out []cluster.VMID
	for w, word := range p.rings[s] {
		for ; word != 0; word &= word - 1 {
			out = append(out, p.base+cluster.VMID(64*w+bits.TrailingZeros64(word)))
		}
	}
	return out
}
