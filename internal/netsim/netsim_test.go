package netsim

import (
	"math"
	"math/rand"
	"testing"

	"github.com/score-dc/score/internal/cluster"
	"github.com/score-dc/score/internal/topology"
	"github.com/score-dc/score/internal/traffic"
)

func TestEngineOrdersEvents(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(3, func() { order = append(order, 3) })
	e.Schedule(1, func() { order = append(order, 1) })
	e.Schedule(2, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("execution order = %v", order)
	}
	if got := e.Now(); got != 3 {
		t.Fatalf("Now = %v, want 3", got)
	}
}

func TestEngineFIFOAtSameTime(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestEngineAfterAndNestedScheduling(t *testing.T) {
	e := NewEngine()
	var times []float64
	e.After(1, func() {
		times = append(times, e.Now())
		e.After(2, func() { times = append(times, e.Now()) })
	})
	e.Run()
	if len(times) != 2 || times[0] != 1 || times[1] != 3 {
		t.Fatalf("nested scheduling times = %v", times)
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.Schedule(1, func() { ran++ })
	e.Schedule(10, func() { ran++ })
	e.RunUntil(5)
	if ran != 1 {
		t.Fatalf("events run = %d, want 1", ran)
	}
	if got := e.Now(); got != 5 {
		t.Fatalf("Now = %v, want 5 (clock advances to horizon)", got)
	}
	if got := e.Pending(); got != 1 {
		t.Fatalf("Pending = %d, want 1", got)
	}
}

func TestEnginePastEventsRunNow(t *testing.T) {
	e := NewEngine()
	e.Schedule(5, func() {
		e.Schedule(1, func() { // in the past: must run at t=5, not rewind
			if e.Now() != 5 {
				t.Fatalf("past event ran at %v", e.Now())
			}
		})
	})
	e.Run()
}

func TestEngineStopResume(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.Schedule(1, func() { ran++; e.Stop() })
	e.Schedule(2, func() { ran++ })
	e.Run()
	if ran != 1 {
		t.Fatalf("Stop did not halt: ran=%d", ran)
	}
	e.Resume()
	e.Run()
	if ran != 2 {
		t.Fatalf("Resume did not continue: ran=%d", ran)
	}
}

func buildNet(t *testing.T) (*Network, topology.Topology, *cluster.Cluster, *traffic.Matrix) {
	t.Helper()
	topo, err := topology.NewCanonicalTree(topology.ScaledCanonicalConfig(8, 4))
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(cluster.UniformHosts(topo.Hosts(), 8, 8192, 1000))
	if err != nil {
		t.Fatal(err)
	}
	for id := cluster.VMID(0); id < cluster.VMID(topo.Hosts()); id++ {
		if err := cl.AddVM(cluster.VM{ID: id, RAMMB: 256}); err != nil {
			t.Fatal(err)
		}
		if err := cl.Place(id, cluster.HostID(id)); err != nil {
			t.Fatal(err)
		}
	}
	tm := traffic.NewMatrix()
	return NewNetwork(topo), topo, cl, tm
}

func TestRecomputeRoutesPairLoads(t *testing.T) {
	net, topo, cl, tm := buildNet(t)
	// VMs 0 and 1 share rack 0 (hosts 0,1): level-1 path, only host links.
	tm.Set(0, 1, 100)
	net.Recompute(tm, cl)
	if got := net.LinkLoadMbps(0); got != 100 {
		t.Fatalf("host link 0 load = %v, want 100", got)
	}
	if got := net.LinkLoadMbps(1); got != 100 {
		t.Fatalf("host link 1 load = %v, want 100", got)
	}
	if got := net.LinkUtilization(0); math.Abs(got-0.1) > 1e-9 {
		t.Fatalf("host link utilization = %v, want 0.1", got)
	}
	// All ToR uplinks idle for intra-rack traffic.
	for _, u := range net.UtilizationAtLevel(2) {
		if u != 0 {
			t.Fatal("intra-rack pair loaded a level-2 link")
		}
	}
	// Cross-pod pair loads exactly two core links.
	far := cluster.VMID(topo.Hosts() - 1)
	tm.Set(0, far, 50)
	net.Recompute(tm, cl)
	coreLoaded := 0
	for _, u := range net.UtilizationAtLevel(3) {
		if u > 0 {
			coreLoaded++
		}
	}
	if coreLoaded != 2 {
		t.Fatalf("core links loaded = %d, want 2", coreLoaded)
	}
}

// sameLoads holds net's link loads to a fresh Recompute of (tm, cl) bit
// for bit: both are sums of rates on traffic's grid.
func sameLoads(t *testing.T, step int, net *Network, topo topology.Topology, tm *traffic.Matrix, cl *cluster.Cluster) {
	t.Helper()
	fresh := NewNetwork(topo)
	fresh.Recompute(tm, cl)
	for _, l := range topo.Links() {
		a, b := net.LinkLoadMbps(l.ID), fresh.LinkLoadMbps(l.ID)
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("step %d link %d: incremental %v vs recomputed %v", step, l.ID, a, b)
		}
	}
}

// TestMoveShiftMatchesRecompute: a move shifts the mover's pairs onto
// their new paths as the cluster applies it, with no call on the network.
func TestMoveShiftMatchesRecompute(t *testing.T) {
	net, topo, cl, tm := buildNet(t)
	rng := rand.New(rand.NewSource(4))
	vms := cl.VMs()
	for i := 0; i < 40; i++ {
		u := vms[rng.Intn(len(vms))]
		v := vms[rng.Intn(len(vms))]
		if u != v {
			tm.Add(u, v, 1+rng.Float64()*50)
		}
	}
	net.Recompute(tm, cl)

	if err := cl.Move(vms[3], cluster.HostID(topo.Hosts()-1)); err != nil {
		t.Fatal(err)
	}
	sameLoads(t, 0, net, topo, tm, cl)
}

// TestSyncFoldsChangelog: folding the matrix's edge changelog must
// reproduce a fresh full-pair recompute through interleaved rate
// mutations and migrations. No Sync precedes a move, so a move often
// lands on rate changes of its own pairs not yet folded, which belong
// at its old host.
func TestSyncFoldsChangelog(t *testing.T) {
	net, topo, cl, tm := buildNet(t)
	rng := rand.New(rand.NewSource(11))
	vms := cl.VMs()
	for i := 0; i < 30; i++ {
		u, v := vms[rng.Intn(len(vms))], vms[rng.Intn(len(vms))]
		if u != v {
			tm.Add(u, v, 1+rng.Float64()*40)
		}
	}
	net.Recompute(tm, cl)

	for step := 0; step < 120; step++ {
		switch rng.Intn(3) {
		case 0: // rate mutation: picked up by the next Sync or move
			u, v := vms[rng.Intn(len(vms))], vms[rng.Intn(len(vms))]
			if u != v {
				tm.Set(u, v, rng.Float64()*60)
			}
		case 1: // migration
			u := vms[rng.Intn(len(vms))]
			target := cluster.HostID(rng.Intn(topo.Hosts()))
			if cl.HostOf(u) == target || !cl.Fits(u, target) {
				continue
			}
			if err := cl.Move(u, target); err != nil {
				t.Fatal(err)
			}
		case 2: // sample tick
			net.Sync(tm, cl)
			sameLoads(t, step, net, topo, tm, cl)
		}
	}
	net.Sync(tm, cl)
	sameLoads(t, -1, net, topo, tm, cl)

	// A matrix swap must fall back to a full recompute.
	swapped := tm.Scaled(2)
	net.Sync(swapped, cl)
	sameLoads(t, -2, net, topo, swapped, cl)
}

func TestMaxUtilization(t *testing.T) {
	net, _, cl, tm := buildNet(t)
	tm.Set(0, 1, 800)
	net.Recompute(tm, cl)
	id, u := net.MaxUtilization()
	if u != 0.8 {
		t.Fatalf("max utilization = %v, want 0.8", u)
	}
	if id != 0 && id != 1 {
		t.Fatalf("max link = %d, want a host link", id)
	}
	if got := net.HostLinkUtilization(0); got != 0.8 {
		t.Fatalf("HostLinkUtilization = %v, want 0.8", got)
	}
}

func TestOutOfRangeLinkQueries(t *testing.T) {
	net, _, _, _ := buildNet(t)
	if got := net.LinkLoadMbps(-1); got != 0 {
		t.Fatalf("negative link load = %v", got)
	}
	if got := net.LinkUtilization(99999); got != 0 {
		t.Fatalf("out-of-range utilization = %v", got)
	}
}
