package remedy

import (
	"math/rand"
	"testing"

	"github.com/score-dc/score/internal/cluster"
	"github.com/score-dc/score/internal/netsim"
	"github.com/score-dc/score/internal/topology"
	"github.com/score-dc/score/internal/traffic"
)

// plant is an 8-rack canonical tree (two racks per pod) with one VM per
// host: VM h on host h, hosts 0..3 in rack 0.
func plant(t *testing.T, slots int, uplinkMbps float64) (topology.Topology, *cluster.Cluster) {
	t.Helper()
	topo, err := topology.NewCanonicalTree(topology.CanonicalConfig{
		Racks: 8, HostsPerRack: 4, RacksPerPod: 2, CoreSwitches: 2,
		HostLinkMbps: 1000, TorUplinkMbps: uplinkMbps, AggUplinkMbps: uplinkMbps,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(cluster.UniformHosts(topo.Hosts(), slots, 32768, 1000))
	if err != nil {
		t.Fatal(err)
	}
	for h := 0; h < topo.Hosts(); h++ {
		if err := cl.AddVM(cluster.VM{ID: cluster.VMID(h), RAMMB: 1024}); err != nil {
			t.Fatal(err)
		}
		if err := cl.Place(cluster.VMID(h), cluster.HostID(h)); err != nil {
			t.Fatal(err)
		}
	}
	return topo, cl
}

// fixture: heavy cross-pod pairs out of rack 0 congest its uplink and
// the core.
func fixture(t *testing.T) (topology.Topology, *cluster.Cluster, *traffic.Matrix) {
	t.Helper()
	topo, cl := plant(t, 8, 2000)
	tm := traffic.NewMatrix()
	// Partner VMs live in the other pod.
	tm.Set(0, 20, 600)
	tm.Set(1, 24, 500)
	tm.Set(2, 28, 400)
	return topo, cl, tm
}

func TestNewControllerValidation(t *testing.T) {
	topo, cl, tm := fixture(t)
	rng := rand.New(rand.NewSource(1))
	if _, err := NewController(nil, cl, tm, rng); err == nil {
		t.Fatal("nil topology accepted")
	}
	if _, err := NewController(topo, cl, tm, rng); err != nil {
		t.Fatal(err)
	}
}

func TestRoundRelievesCongestedLink(t *testing.T) {
	topo, cl, tm := fixture(t)
	rng := rand.New(rand.NewSource(2))
	ctrl, err := NewController(topo, cl, tm, rng)
	if err != nil {
		t.Fatal(err)
	}

	before := netsim.NewNetwork(topo)
	before.Recompute(tm, cl)
	_, maxBefore := before.MaxUtilization()
	if maxBefore < congestionThreshold {
		t.Fatalf("fixture not congested: max util %.2f", maxBefore)
	}

	var total int
	for round := 0; round < 8; round++ {
		migs := ctrl.Round()
		total += len(migs)
		if len(migs) == 0 {
			break
		}
		for _, m := range migs {
			if m.From == m.To {
				t.Fatalf("no-op migration reported: %+v", m)
			}
			if m.ReliefMbps <= 0 {
				t.Fatalf("migration with non-positive relief: %+v", m)
			}
		}
	}
	if total == 0 {
		t.Fatal("controller never migrated despite congestion")
	}

	after := netsim.NewNetwork(topo)
	after.Recompute(tm, cl)
	_, maxAfter := after.MaxUtilization()
	if maxAfter >= maxBefore {
		t.Fatalf("max utilization did not improve: %.3f -> %.3f", maxBefore, maxAfter)
	}
}

func TestRoundIdleWhenUncongested(t *testing.T) {
	topo, cl, _ := fixture(t)
	rng := rand.New(rand.NewSource(3))
	quiet := traffic.NewMatrix()
	quiet.Set(0, 20, 5) // trivial load
	ctrl, err := NewController(topo, cl, quiet, rng)
	if err != nil {
		t.Fatal(err)
	}
	if migs := ctrl.Round(); len(migs) != 0 {
		t.Fatalf("controller migrated %d VMs with no congestion", len(migs))
	}
}

// TestRoundRespectsCapacity: two-slot hosts, each holding one VM, and
// every VM of the first two pods in a heavy cross-pod pair, so rounds run
// to the per-round cap and fill hosts that later moves must skip.
func TestRoundRespectsCapacity(t *testing.T) {
	topo, cl := plant(t, 2, 2000)
	tm := traffic.NewMatrix()
	for i := 0; i < 16; i++ {
		tm.Set(cluster.VMID(i), cluster.VMID(16+i), 300)
	}
	rng := rand.New(rand.NewSource(4))
	ctrl, err := NewController(topo, cl, tm, rng)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for round := 0; round < 5; round++ {
		total += len(ctrl.Round())
	}
	if total <= maxMigrationsPerRound {
		t.Fatalf("%d migrations in 5 rounds: the run never went past one capped round", total)
	}
	full := 0
	for h := 0; h < cl.NumHosts(); h++ {
		id := cluster.HostID(h)
		host, err := cl.Host(id)
		if err != nil {
			t.Fatal(err)
		}
		if cl.UsedSlots(id) > host.Slots {
			t.Fatalf("host %d over capacity", h)
		}
		if cl.UsedSlots(id) == host.Slots {
			full++
		}
	}
	if full == 0 {
		t.Fatal("no host filled up: capacity never bound")
	}
}

// TestCostGateBlocksUneconomicMigrations: 10 Mb/s switch uplinks carry
// three 2 Mb/s cross-pod pairs out of rack 0, so its uplink runs at 60%,
// while each VM's share over HorizonS is 30 MB, far below the ~120 MB a
// pre-copy of the paper's working sets pushes.
func TestCostGateBlocksUneconomicMigrations(t *testing.T) {
	topo, cl := plant(t, 8, 10)
	tm := traffic.NewMatrix()
	tm.Set(0, 20, 2)
	tm.Set(1, 24, 2)
	tm.Set(2, 28, 2)
	net := netsim.NewNetwork(topo)
	net.Recompute(tm, cl)
	if _, hot := net.MaxUtilization(); hot <= congestionThreshold {
		t.Fatalf("fixture not congested: max util %.2f", hot)
	}
	rng := rand.New(rand.NewSource(5))
	ctrl, err := NewController(topo, cl, tm, rng)
	if err != nil {
		t.Fatal(err)
	}
	if migs := ctrl.Round(); len(migs) != 0 {
		t.Fatalf("cost gate ignored: %d migrations", len(migs))
	}
}
