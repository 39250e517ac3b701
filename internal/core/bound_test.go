package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/score-dc/score/internal/cluster"
	"github.com/score-dc/score/internal/topology"
	"github.com/score-dc/score/internal/traffic"
)

// boundFixture is a k=4 fat tree (16 hosts, 4 slots each) with 40 VMs
// and random traffic, on NICs so tight that the 90 % threshold cuts
// through the hosts' loads: bounds refuse, and some of those refusals
// the exact load overturns.
func boundFixture(t *testing.T, seed int64) (*Engine, *cluster.Cluster, *traffic.Matrix) {
	t.Helper()
	topo, err := topology.NewFatTree(4, 1000)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(cluster.UniformHosts(topo.Hosts(), 4, 4096, 1500))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	const vms = 40
	for id := cluster.VMID(1); id <= vms; id++ {
		if err := cl.AddVM(cluster.VM{ID: id, RAMMB: 512 * (1 + rng.Intn(3))}); err != nil {
			t.Fatal(err)
		}
		for {
			if err := cl.Place(id, cluster.HostID(rng.Intn(topo.Hosts()))); err == nil {
				break
			}
		}
	}
	tm := traffic.NewMatrix()
	for i := 0; i < 3*vms; i++ {
		u, v := cluster.VMID(1+rng.Intn(vms)), cluster.VMID(1+rng.Intn(vms))
		tm.Set(u, v, 10+190*rng.Float64())
	}
	cm, err := NewCostModel(PaperWeights()...)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(topo, cm, cl, tm, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return eng, cl, tm
}

// exactLoads recomputes every host's NIC load from the matrix's pairs.
func exactLoads(cl *cluster.Cluster, tm *traffic.Matrix) []float64 {
	out := make([]float64, cl.NumHosts())
	tm.ForEachPair(func(a, b cluster.VMID, rate float64) {
		ha, hb := cl.HostOf(a), cl.HostOf(b)
		if ha == hb {
			return
		}
		if ha != cluster.NoHost {
			out[ha] += rate
		}
		if hb != cluster.NoHost {
			out[hb] += rate
		}
	})
	return out
}

// exactRoom is host h's capacity response with load as its NIC load,
// and u's need of it, computed from the cluster and the matrix alone.
func exactRoom(cl *cluster.Cluster, tm *traffic.Matrix, u cluster.VMID, h cluster.HostID, load float64) (Room, Need) {
	host, _ := cl.Host(h)
	ram, cpu, _ := cl.Demand(u)
	r := Room{
		Slots: cl.FreeSlots(h), RAMMB: cl.FreeRAMMB(h), CPUMilli: cl.FreeCPUMilli(h),
		CPUCap: host.CPUMilli, NICMbps: host.NICMbps, NICLoad: load,
	}
	n := Need{RAMMB: ram, CPUMilli: cpu}
	for _, ed := range tm.NeighborEdges(u) {
		n.Rate += ed.Rate
		if cl.HostOf(ed.Peer) == h {
			n.Internal += ed.Rate
		}
	}
	return r, n
}

// TestNICBoundCoversLoad drives generated streams of Land, foreign Move,
// Set, Respec, Restore and accounting reads through an engine whose NICs
// are tight. After every op, while the bound holds, hostNet + nicUp is
// at least each host's exact load, and equals it bit for bit where nicUp
// is 0; and Admissible equals Admit over an exact recompute for every
// (VM, host), which leaves the bound holding. The streams must reach
// bounds that refuse where the exact load admits — the fallback.
func TestNICBoundCoversLoad(t *testing.T) {
	var raised, overturned, boundAdmits int
	for seed := int64(1); seed <= 6; seed++ {
		eng, cl, tm := boundFixture(t, seed)
		rng := rand.New(rand.NewSource(100 + seed))
		vms := cl.VMs()
		snap := cl.Snapshot()
		checkCover := func(when string) {
			t.Helper()
			if !eng.bounded() {
				return
			}
			for h, want := range exactLoads(cl, tm) {
				got := eng.hostNet[h] + eng.nicUp[h]
				if got < want || (eng.nicUp[h] == 0 && math.Float64bits(got) != math.Float64bits(want)) {
					t.Fatalf("seed %d %s: host %d bound %v (hostNet %v + nicUp %v), exact load %v", seed, when, h, got, eng.hostNet[h], eng.nicUp[h], want)
				}
				if eng.nicUp[h] != 0 {
					raised++
				}
			}
		}
		for op := 0; op < 300; op++ {
			u := vms[rng.Intn(len(vms))]
			h := cluster.HostID(rng.Intn(cl.NumHosts()))
			var when string
			switch p := rng.Intn(100); {
			case p < 55:
				when = "Land"
				if cl.Fits(u, h) || cl.HostOf(u) == h {
					if err := eng.Land(u, h); err != nil {
						t.Fatalf("seed %d op %d: Land(%d, %d): %v", seed, op, u, h, err)
					}
				}
			case p < 65:
				when = "Move"
				if cl.Fits(u, h) {
					if err := cl.Move(u, h); err != nil {
						t.Fatal(err)
					}
				}
			case p < 77:
				when = "Set"
				tm.Set(u, vms[rng.Intn(len(vms))], 200*rng.Float64()-20)
			case p < 85:
				when = "Respec"
				ram, cpu, _ := cl.Demand(u)
				_ = cl.Respec(u, ram+512*(rng.Intn(3)-1), cpu)
			case p < 90:
				when = "Restore"
				if err := cl.Restore(snap); err != nil {
					when = "Snapshot"
					snap = cl.Snapshot()
				}
			case p < 95:
				when = "TotalCost"
				eng.TotalCost()
			default:
				when = "Snapshot"
				snap = cl.Snapshot()
			}
			checkCover(when)
			exact := exactLoads(cl, tm)
			for _, x := range vms {
				for y := cluster.HostID(0); int(y) < cl.NumHosts(); y++ {
					bounded := eng.bounded()
					bound := eng.hostNet[y] + eng.nicUp[y]
					got := eng.Admissible(x, y)
					want := true
					if cl.HostOf(x) != y {
						r, n := exactRoom(cl, tm, x, y, exact[y])
						want = Admit(r, n)
						if bounded && eng.nicUp[y] != 0 {
							r.NICLoad = bound
							switch {
							case want && !Admit(r, n):
								overturned++
							case want:
								boundAdmits++
							}
						}
					}
					if got != want {
						t.Fatalf("seed %d after %s (op %d): Admissible(%d, %d) = %v, exact recompute %v", seed, when, op, x, y, got, want)
					}
				}
			}
			if !eng.bounded() {
				t.Fatalf("seed %d after %s (op %d): the bound does not hold after a sweep of probes", seed, when, op)
			}
			checkCover(when + " and a sweep of probes")
		}
	}
	t.Logf("raised bounds checked %d times; admissions under a raised bound: %d proven by it, %d overturned by the exact load", raised, boundAdmits, overturned)
	if raised == 0 || boundAdmits == 0 || overturned == 0 {
		t.Fatal("the streams never exercised a raised bound both ways: loosen the fixture's NICs")
	}
}

// TestNeighborRankMatchesStableSort: the in-place insertion of
// neighborRank orders generated peer lists — few levels and few rates,
// so keys tie often — as the stable sort by (level descending, rate
// descending) does, ties in row order.
func TestNeighborRankMatchesStableSort(t *testing.T) {
	byKey := func(a, b rankEntry) int {
		if a.level != b.level {
			return int(b.level - a.level)
		}
		switch {
		case a.w > b.w:
			return -1
		case a.w < b.w:
			return 1
		}
		return 0
	}
	rng := rand.New(rand.NewSource(7))
	var k Kernel
	for trial := 0; trial < 2000; trial++ {
		k.peers = k.peers[:0]
		want := []rankEntry(nil)
		rates := 1 + rng.Intn(4)
		for i := rng.Intn(40); i > 0; i-- {
			p := peerEntry{host: cluster.HostID(len(k.peers)), level: int32(rng.Intn(4)), w: float64(rng.Intn(rates))}
			k.peers = append(k.peers, p)
			want = append(want, rankEntry{p.host, p.level, p.w})
		}
		slices.SortStableFunc(want, byKey)
		if got := k.neighborRank(); !slices.Equal(got, want) {
			t.Fatalf("trial %d: rank %v, stable sort %v", trial, got, want)
		}
	}
}
