//go:build scorecheck

package shard

import (
	"math"
	"math/rand/v2"

	"github.com/score-dc/score/internal/cluster"
	"github.com/score-dc/score/internal/core"
)

// The scorecheck build tag turns the differential check of the merge's
// clean rule on for a whole test binary (see checkClean), and poisons
// every Applied list a Merge lent out before it is reused (see poison).
func init() {
	checkClean = true
	poison = scramble
}

// scramble overwrites ds from the unseeded global source: random VMs and
// hosts, and a quiet NaN ΔC with a random payload. Two runs that both read
// a stale list therefore disagree, and any sum over it is NaN.
func scramble(ds []core.Decision) {
	for i := range ds {
		ds[i] = core.Decision{
			VM:     cluster.VMID(rand.Uint32()),
			From:   cluster.HostID(rand.Int32()),
			Target: cluster.HostID(rand.Int32()),
			Delta:  math.Float64frombits(0x7ff8_0000_0000_0000 | rand.Uint64()&(1<<51-1)),
		}
	}
}
