package experiments

import (
	"io"
	"testing"
)

// TestAutoTuneSweepConvergence is the acceptance criterion for the
// adaptive control plane: with no fixed shard flags, the auto-tuned run
// must converge to within 5% of the best fixed shard count's cost
// reduction on both a pod-local and a cross-pod-heavy workload, whose
// optima differ.
func TestAutoTuneSweepConvergence(t *testing.T) {
	res, err := AutoTuneSweep(FatTree, ScaleSmall, 20140630, []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	res.Render(io.Discard) // rendering must not panic

	finals := map[AutoTuneWorkload]int{}
	for _, w := range []AutoTuneWorkload{PodLocal, CrossPod} {
		best, ok := res.BestFixed(w)
		if !ok || best.Reduction <= 0 {
			t.Fatalf("%s: no meaningful fixed baseline (best %+v)", w, best)
		}
		auto, ok := res.AutoRun(w)
		if !ok {
			t.Fatalf("%s: no auto run recorded", w)
		}
		if auto.Reduction < 0.95*best.Reduction {
			t.Fatalf("%s: auto reduction %.2f%% below 95%% of best fixed %.2f%% (fixed-%d)",
				w, 100*auto.Reduction, 100*best.Reduction, best.Shards)
		}
		if len(auto.ChosenShards) == 0 {
			t.Fatalf("%s: auto run recorded no per-round shard choices", w)
		}
		finals[w] = auto.Effective
	}
	// The two workloads are constructed to have different optima: the
	// controller must actually distinguish them.
	if finals[PodLocal] <= finals[CrossPod] {
		t.Fatalf("controller did not separate the workloads: pod-local chose %d shards, cross-pod %d",
			finals[PodLocal], finals[CrossPod])
	}
}
