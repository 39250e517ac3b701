package control

import (
	"github.com/score-dc/score/internal/shard"
)

// Recommendation is the planner's structural advice for the sharded
// schedulers: how many concurrent token rings to run and which topology
// unit their boundaries should follow. Shards is pre-clamped to the unit
// count, matching shard.NewHostPartition's own clamp.
type Recommendation struct {
	Shards      int
	Granularity shard.Granularity
}

const (
	// rackLocalShare is the intra-rack rate share at or above which shard
	// boundaries align to racks instead of pods: when nearly all traffic
	// already stays inside single racks, pod-level moves are rare and the
	// finer partition buys more parallel rings for free.
	rackLocalShare = 0.8
	// maxCrossShare caps the rate share a partition may place across
	// shard boundaries, so the parallelism gained never floods the
	// reconciliation queue: pod-local traffic yields one ring per pod,
	// cross-pod-heavy traffic degrades toward the serial token.
	//
	// A rack-aligned plan always fits: it is chosen only when at least
	// rackLocalShare of the rate stays inside racks, so at most
	// 1 − rackLocalShare ≤ maxCrossShare of it crosses any boundary, and
	// one ring per rack needs no look at which racks talk to which.
	maxCrossShare = 0.3
	// stableRounds is how many consecutive evaluations must agree on a
	// recommendation that differs from the adopted one before the
	// controller switches — hysteresis against re-partitioning on every
	// traffic-window wobble.
	stableRounds = 2
)

// Plan derives a recommendation from the summary: the largest shard
// count whose cross-shard rate share stays under maxCrossShare, under the
// partitioner's contiguous-block unit→shard mapping. It is a pure
// function of the summary.
func Plan(s *Summary) Recommendation {
	total := s.Total()
	if total <= 0 {
		return Recommendation{Shards: 1, Granularity: shard.ByPod}
	}
	if s.intraRack/total >= rackLocalShare {
		return Recommendation{Shards: s.numRacks, Granularity: shard.ByRack}
	}
	limit := maxCrossShare * total
	pods := s.numPods
	if s.crossPod <= limit {
		return Recommendation{Shards: pods, Granularity: shard.ByPod}
	}
	// Fewer rings than pods keep some pod pairs inside one shard; which
	// ones depends on n, so each count is scored against the pod-pair
	// table. n = 1 crosses nothing and needs no scan.
	for n := pods - 1; n >= 2; n-- {
		var cross float64
		for pa := 0; pa < pods; pa++ {
			row, block := s.podRate[pa*pods:(pa+1)*pods], pa*n/pods
			for pb := pa + 1; pb < pods; pb++ {
				if pb*n/pods != block {
					cross += row[pb]
				}
			}
		}
		if cross <= limit {
			return Recommendation{Shards: n, Granularity: shard.ByPod}
		}
	}
	return Recommendation{Shards: 1, Granularity: shard.ByPod}
}
