package core

import (
	"math"
	"math/rand"
	"testing"

	"github.com/score-dc/score/internal/cluster"
	"github.com/score-dc/score/internal/topology"
	"github.com/score-dc/score/internal/traffic"
)

// naiveDelta is Eq. 5 written straight from the formula, against the
// public inputs only — the placement as a function, the Topology
// interface, the cost model — sharing nothing with the kernel's resolved
// peers or flattened keys. Terms are added in row order, which is what
// makes bit equality a fair demand.
func naiveDelta(topo topology.Topology, cm CostModel, tm *traffic.Matrix, hostOf func(cluster.VMID) cluster.HostID, u cluster.VMID, target cluster.HostID) float64 {
	cur := hostOf(u)
	if cur == target || cur == cluster.NoHost {
		return 0
	}
	var delta float64
	for _, ed := range tm.NeighborEdges(u) {
		hz := hostOf(ed.Peer)
		if hz == cluster.NoHost {
			continue
		}
		before := cm.Prefix(topo.Level(hz, cur))
		after := cm.Prefix(topo.Level(hz, target))
		delta += 2 * ed.Rate * (before - after)
	}
	return delta
}

// scoreInstance is a generated instance whose cluster has three hosts
// more than its topology, with every sixth VM left unplaced and the last
// VM placed but isolated (no traffic).
type scoreInstance struct {
	topo topology.Topology
	cl   *cluster.Cluster
	tm   *traffic.Matrix
	eng  *Engine
	vms  []cluster.VMID
}

func newScoreInstance(t *testing.T, topo topology.Topology, seed int64) *scoreInstance {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	hosts := topo.Hosts() + 3
	cl, err := cluster.New(cluster.UniformHosts(hosts, 4, 4096, 1000))
	if err != nil {
		t.Fatal(err)
	}
	in := &scoreInstance{topo: topo, cl: cl, tm: traffic.NewMatrix()}
	for id := cluster.VMID(1); int(id) <= 2*hosts; id++ {
		if err := cl.AddVM(cluster.VM{ID: id, RAMMB: 256}); err != nil {
			t.Fatal(err)
		}
		in.vms = append(in.vms, id)
		if id%6 == 1 { // odd, so never the last
			continue // registered, talking, nowhere
		}
		for {
			if err := cl.Place(id, cluster.HostID(rng.Intn(hosts))); err == nil {
				break
			}
		}
	}
	talkers := in.vms[:len(in.vms)-1]
	for i := 0; i < 4*len(talkers); i++ {
		a, b := talkers[rng.Intn(len(talkers))], talkers[rng.Intn(len(talkers))]
		if a != b {
			in.tm.Set(a, b, 1+40*rng.ExpFloat64())
		}
	}
	cm, err := NewCostModel(PaperWeights()...)
	if err != nil {
		t.Fatal(err)
	}
	if in.eng, err = NewEngine(topo, cm, cl, in.tm, DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	return in
}

// checkView holds one view to the oracle: Delta for every (VM, host) —
// which takes in target == cur, peers on the target, unplaced peers and
// unplaced or isolated holders — and the Delta of every BestMigration
// decision. It reports how many comparisons had an unplaced peer.
func (in *scoreInstance) checkView(t *testing.T, v *AllocView, when string) (unplacedPeers int) {
	t.Helper()
	cm := in.eng.CostModel()
	for _, u := range in.vms {
		for _, ed := range in.tm.NeighborEdges(u) {
			if v.HostOf(ed.Peer) == cluster.NoHost {
				unplacedPeers++
			}
		}
		for h := cluster.HostID(0); int(h) < in.cl.NumHosts(); h++ {
			want := naiveDelta(in.topo, cm, in.tm, v.HostOf, u, h)
			if got := v.Delta(u, h); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: Delta(%d→%d) = %x, oracle %x", when, u, h, math.Float64bits(got), math.Float64bits(want))
			}
		}
		if dec, ok := v.BestMigration(u); ok {
			want := naiveDelta(in.topo, cm, in.tm, v.HostOf, u, dec.Target)
			if math.Float64bits(dec.Delta) != math.Float64bits(want) {
				t.Fatalf("%s: BestMigration(%d) = %+v, oracle ΔC %v", when, u, dec, want)
			}
		}
	}
	return unplacedPeers
}

// TestScoreEqualsNaiveDeltaBitForBit: the kernel's resolve-once scorer is
// the formula, to the bit, through the live view (before and after a
// pass of applied moves) and through a frozen view as it stages commits.
func TestScoreEqualsNaiveDeltaBitForBit(t *testing.T) {
	fat, err := topology.NewFatTree(4, 1000)
	if err != nil {
		t.Fatal(err)
	}
	canon, err := topology.NewCanonicalTree(topology.CanonicalConfig{
		Racks: 6, HostsPerRack: 3, RacksPerPod: 2, CoreSwitches: 2,
		HostLinkMbps: 1000, TorUplinkMbps: 10000, AggUplinkMbps: 10000,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, topo := range []topology.Topology{fat, canon} {
		for seed := int64(1); seed <= 3; seed++ {
			in := newScoreInstance(t, topo, seed)
			isolated := in.vms[len(in.vms)-1]
			if len(in.tm.NeighborEdges(isolated)) != 0 || in.cl.HostOf(isolated) == cluster.NoHost {
				t.Fatal("generator: last VM must be placed and isolated")
			}
			if in.checkView(t, in.eng.liveView(), "live") == 0 {
				t.Fatal("generator: no unplaced peer")
			}

			// Frozen view: stage every move a ring pass finds; the ΔC a
			// commit realizes is the oracle's under the overlay before it.
			view := in.eng.NewView()
			cm := in.eng.CostModel()
			for _, u := range in.vms {
				dec, ok := view.BestMigration(u)
				if !ok {
					continue
				}
				want := naiveDelta(in.topo, cm, in.tm, view.HostOf, u, dec.Target)
				got, err := view.Commit(dec)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("Commit(%+v) realized %v, oracle %v", dec, got, want)
				}
			}
			if len(view.Commits()) == 0 {
				t.Fatal("generator: frozen pass staged nothing")
			}
			in.checkView(t, view, "frozen, staged")

			for _, d := range view.Commits() {
				if _, err := in.eng.Apply(d); err != nil {
					t.Fatal(err)
				}
			}
			in.checkView(t, in.eng.liveView(), "live, after moves")
		}
	}
}
