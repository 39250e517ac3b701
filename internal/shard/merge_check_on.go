//go:build scorecheck

package shard

import (
	"math"
	"math/rand"

	"github.com/score-dc/score/internal/cluster"
	"github.com/score-dc/score/internal/core"
)

// The scorecheck build tag turns the differential check of the merge's
// clean rule on for a whole test binary (see checkClean), poisons every
// Applied list a Merge lent out before it is reused (see poison), and
// holds every ring pass to its arena segment (see checkArena).
func init() {
	checkClean = true
	poison = scramble
	checkArena = true
}

// scramble overwrites ds from math/rand's global source, which is seeded
// at random at start-up: random VMs and hosts, and a quiet NaN ΔC with a
// random payload. Two runs that both read a stale list therefore
// disagree, and any sum over it is NaN.
func scramble(ds []core.Decision) {
	for i := range ds {
		ds[i] = core.Decision{
			VM:     cluster.VMID(rand.Uint32()),
			From:   cluster.HostID(rand.Int31()),
			Target: cluster.HostID(rand.Int31()),
			Delta:  math.Float64frombits(0x7ff8_0000_0000_0000 | rand.Uint64()&(1<<51-1)),
		}
	}
}
