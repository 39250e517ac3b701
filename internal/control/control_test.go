package control

import (
	"math"
	"math/rand"
	"testing"

	"github.com/score-dc/score/internal/cluster"
	"github.com/score-dc/score/internal/shard"
	"github.com/score-dc/score/internal/topology"
	"github.com/score-dc/score/internal/traffic"
)

// churnFixture builds a fat-tree plane with a placed population and an
// empty matrix, plus a bound controller.
func churnFixture(t testing.TB, k int, seed int64) (topology.Topology, *cluster.Cluster, *traffic.Matrix, *Controller, *rand.Rand) {
	t.Helper()
	topo, err := topology.NewFatTree(k, 1000)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(cluster.UniformHosts(topo.Hosts(), 8, 32768, 1000))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	pm := cluster.NewPlacementManager(cl, 1)
	for i := 0; i < topo.Hosts()*4; i++ {
		if _, err := pm.CreateVM(1024); err != nil {
			t.Fatal(err)
		}
	}
	if err := pm.PlaceRandom(rng); err != nil {
		t.Fatal(err)
	}
	tm := traffic.NewMatrix()
	ctrl := New(topo, Config{})
	detach := ctrl.Bind(tm, cl)
	t.Cleanup(detach)
	return topo, cl, tm, ctrl, rng
}

// bruteSummary is the from-scratch reference for a Summary: the three
// locality sums and the pod-pair rates, computed straight from the matrix
// and the topology without going through AddEdge.
type bruteSummary struct {
	intraRack, intraPod, crossPod float64
	podRate                       map[[2]int]float64 // keyed lo < hi
}

func newBruteSummary(topo topology.Topology, cl *cluster.Cluster, tm *traffic.Matrix) bruteSummary {
	b := bruteSummary{podRate: map[[2]int]float64{}}
	tm.ForEachPair(func(u, v cluster.VMID, rate float64) {
		ha, hb := cl.HostOf(u), cl.HostOf(v)
		if ha == cluster.NoHost || hb == cluster.NoHost {
			return
		}
		pa, pb := topo.PodOf(ha), topo.PodOf(hb)
		switch {
		case topo.RackOf(ha) == topo.RackOf(hb):
			b.intraRack += rate
		case pa == pb:
			b.intraPod += rate
		default:
			b.crossPod += rate
			b.podRate[[2]int{min(pa, pb), max(pa, pb)}] += rate
		}
	})
	return b
}

// compareSummaries holds the incrementally folded summary to the brute
// force one bit for bit: both are sums of rates on traffic's grid.
func compareSummaries(t *testing.T, step int, got *Summary, want bruteSummary) {
	t.Helper()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if !same(got.intraRack, want.intraRack) || !same(got.intraPod, want.intraPod) || !same(got.crossPod, want.crossPod) {
		t.Fatalf("step %d: sums (%v %v %v) vs brute force (%v %v %v)", step,
			got.intraRack, got.intraPod, got.crossPod, want.intraRack, want.intraPod, want.crossPod)
	}
	for pa := 0; pa < got.numPods; pa++ {
		for pb := 0; pb < got.numPods; pb++ {
			// Absent from the map reads as zero: so must the diagonal and
			// the lower triangle of the table.
			if g, w := got.podRate[pa*got.numPods+pb], want.podRate[[2]int{pa, pb}]; !same(g, w) {
				t.Fatalf("step %d: pod pair (%d,%d) %v vs brute force %v", step, pa, pb, g, w)
			}
		}
	}
}

// TestSummaryEquivalenceUnderChurn is the hotspot-summary correctness
// test: under interleaved rate mutations (set, add, remove) and
// placement moves, the incrementally folded summary must stay
// equivalent to a brute-force recompute from the full pair list — with
// queries (which drain the changelog) landing at arbitrary points of
// the interleaving, including none for long stretches (changelog
// overflow → rebuild fallback).
func TestSummaryEquivalenceUnderChurn(t *testing.T) {
	topo, cl, tm, ctrl, rng := churnFixture(t, 4, 99)
	vms := cl.VMs()
	randVM := func() cluster.VMID { return vms[rng.Intn(len(vms))] }
	for step := 1; step <= 4000; step++ {
		switch op := rng.Intn(10); {
		case op < 5: // set a rate (creates, updates)
			tm.Set(randVM(), randVM(), 0.1+rng.Float64()*50)
		case op < 7: // add onto a rate
			tm.Add(randVM(), randVM(), rng.Float64()*10)
		case op < 8: // remove a pair
			tm.Set(randVM(), randVM(), 0)
		default: // placement move (may fail on capacity; that's fine)
			_ = cl.Move(randVM(), cluster.HostID(rng.Intn(topo.Hosts())))
		}
		// Query at irregular intervals so folds happen mid-churn; the
		// long gaps between checks let the changelog overflow and
		// exercise the rebuild fallback too.
		if step%7 == 0 {
			_ = ctrl.Recommendation()
		}
		if step%500 == 0 {
			ctrl.sync()
			compareSummaries(t, step, ctrl.sum, newBruteSummary(topo, cl, tm))
		}
	}
	ctrl.sync()
	compareSummaries(t, -1, ctrl.sum, newBruteSummary(topo, cl, tm))
}

// TestPlannerShapes: synthetic rack-level shapes must map to the
// documented recommendations — pod-local traffic fans out to one ring
// per pod, cross-pod-heavy traffic collapses to the serial token, and a
// rack-dominated matrix flips the granularity to racks.
func TestPlannerShapes(t *testing.T) {
	topo, err := topology.NewFatTree(4, 1000) // 4 pods, 8 racks
	if err != nil {
		t.Fatal(err)
	}
	podLocal := NewSummary(topo)
	for rack := 0; rack < podLocal.Racks(); rack += 2 {
		podLocal.AddEdge(rack, rack+1, 100) // rack pairs inside each pod
	}
	if rec := Plan(podLocal); rec.Shards != podLocal.Pods() || rec.Granularity != shard.ByPod {
		t.Fatalf("pod-local: got %+v, want %d pod-aligned shards", rec, podLocal.Pods())
	}

	crossPod := NewSummary(topo)
	crossPod.AddEdge(0, 7, 100) // pods 0↔3
	crossPod.AddEdge(2, 5, 100) // pods 1↔2
	crossPod.AddEdge(1, 4, 100) // pods 0↔2
	if rec := Plan(crossPod); rec.Shards != 1 {
		t.Fatalf("cross-pod-heavy: got %+v, want 1 shard", rec)
	}

	rackLocal := NewSummary(topo)
	for rack := 0; rack < rackLocal.Racks(); rack++ {
		rackLocal.AddEdge(rack, rack, 100) // pure diagonal
	}
	if rec := Plan(rackLocal); rec.Granularity != shard.ByRack || rec.Shards != rackLocal.Racks() {
		t.Fatalf("rack-local: got %+v, want %d rack-aligned shards", rec, rackLocal.Racks())
	}

	empty := NewSummary(topo)
	if rec := Plan(empty); rec.Shards != 1 || rec.Granularity != shard.ByPod {
		t.Fatalf("empty matrix: got %+v, want the serial default", rec)
	}
}

// TestPlannerHotspotSplit: the shard count must respect the hotspot
// structure, not just aggregate shares — a hot pod pair that a finer
// partition would split caps the fan-out at the coarser count that
// keeps it intra-shard.
func TestPlannerHotspotSplit(t *testing.T) {
	topo, err := topology.NewFatTree(4, 1000)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSummary(topo)
	// Pods 0 and 1 exchange heavy traffic (racks 0..3 are pods 0-1);
	// pods 2 and 3 likewise. n=2 keeps both hot pairs intra-shard, n=4
	// would split them.
	s.AddEdge(0, 2, 100) // pod 0 ↔ pod 1
	s.AddEdge(4, 6, 100) // pod 2 ↔ pod 3
	s.AddEdge(1, 1, 30)  // some local rate too
	s.AddEdge(5, 5, 30)
	rec := Plan(s)
	if rec.Shards != 2 {
		t.Fatalf("paired-pod hotspots: got %+v, want 2 shards", rec)
	}
}

// TestControllerHysteresis: a flipped recommendation must persist for
// stableRounds consecutive evaluations before it is adopted.
func TestControllerHysteresis(t *testing.T) {
	topo, err := topology.NewFatTree(4, 1000)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(cluster.UniformHosts(topo.Hosts(), 8, 32768, 1000))
	if err != nil {
		t.Fatal(err)
	}
	pm := cluster.NewPlacementManager(cl, 1)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < topo.Hosts(); i++ {
		if _, err := pm.CreateVM(1024); err != nil {
			t.Fatal(err)
		}
	}
	if err := pm.PlaceRandom(rng); err != nil {
		t.Fatal(err)
	}
	tm := traffic.NewMatrix()
	vmOnPod := func(pod int) cluster.VMID {
		for _, vm := range cl.VMs() {
			if topo.PodOf(cl.HostOf(vm)) == pod {
				return vm
			}
		}
		t.Fatalf("no VM on pod %d", pod)
		return 0
	}
	// Baseline: a heavy pod-0 ↔ pod-3 pair crosses every contiguous
	// block split, so the first evaluation adopts the serial token.
	a0, b0 := vmOnPod(0), vmOnPod(3)
	ctrl := New(topo, Config{})
	detach := ctrl.Bind(tm, cl)
	defer detach()
	tm.Set(a0, b0, 100)
	first := ctrl.Recommendation()
	if first.Shards != 1 {
		t.Fatalf("cross-pod baseline adopted %+v, want 1 shard", first)
	}
	// Flip the workload to pod-local: the new recommendation must
	// survive hysteresis before adoption.
	tm.Set(a0, b0, 0)
	var u, v cluster.VMID
	for _, vm := range cl.VMs() {
		if topo.PodOf(cl.HostOf(vm)) == 0 && vm != a0 {
			u, v = a0, vm
			break
		}
	}
	if u == v {
		t.Skip("pod 0 holds one VM this seed")
	}
	tm.Set(u, v, 100)
	if rec := ctrl.Recommendation(); rec.Shards != 1 {
		t.Fatalf("hysteresis: first differing evaluation adopted %+v", rec)
	}
	rec := ctrl.Recommendation()
	if rec.Shards == 1 {
		t.Fatalf("hysteresis: second consecutive evaluation still at %+v", rec)
	}
}
