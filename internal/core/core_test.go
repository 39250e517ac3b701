package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"github.com/score-dc/score/internal/cluster"
	"github.com/score-dc/score/internal/topology"
	"github.com/score-dc/score/internal/traffic"
)

func TestCostModelPrefix(t *testing.T) {
	cm, err := NewCostModel(1, 2, 4)
	if err != nil {
		t.Fatalf("NewCostModel: %v", err)
	}
	tests := []struct {
		level int
		want  float64
	}{
		{0, 0}, {1, 1}, {2, 3}, {3, 7},
		{5, 7},  // clamped to depth
		{-1, 0}, // negative clamps to zero
	}
	for _, tc := range tests {
		if got := cm.Prefix(tc.level); got != tc.want {
			t.Errorf("Prefix(%d) = %v, want %v", tc.level, got, tc.want)
		}
	}
	if got := cm.PairCost(10, 2); got != 2*10*3 {
		t.Errorf("PairCost(10,2) = %v, want 60", got)
	}
	if got := cm.Weight(2); got != 2 {
		t.Errorf("Weight(2) = %v, want 2", got)
	}
	if got := cm.Weight(9); got != 0 {
		t.Errorf("Weight(out of range) = %v, want 0", got)
	}
}

func TestCostModelRejectsBadWeights(t *testing.T) {
	for _, ws := range [][]float64{{}, {0}, {-1, 2}, {1, math.NaN()}, {1, math.Inf(1)}} {
		if _, err := NewCostModel(ws...); err == nil {
			t.Errorf("NewCostModel(%v) succeeded, want error", ws)
		}
	}
}

func TestPaperWeightsShape(t *testing.T) {
	w := PaperWeights()
	if len(w) != 3 {
		t.Fatalf("PaperWeights has %d levels, want 3", len(w))
	}
	// c1 = e^0, c2 = e^1, c3 = e^3 (Section VI).
	if w[0] != 1 || math.Abs(w[1]-math.E) > 1e-12 || math.Abs(w[2]-math.Exp(3)) > 1e-12 {
		t.Fatalf("PaperWeights = %v, want [1, e, e^3]", w)
	}
	if !(w[0] < w[1] && w[1] < w[2]) {
		t.Fatalf("weights must increase: %v", w)
	}
}

// fixture builds a small canonical tree with a deterministic traffic
// matrix for engine tests.
type fixture struct {
	topo *topology.CanonicalTree
	cl   *cluster.Cluster
	tm   *traffic.Matrix
	eng  *Engine
}

func newFixture(t testing.TB, cfg Config) *fixture { return newFixtureNIC(t, cfg, 1000) }

// newFixtureNIC is newFixture on hosts with nicMbps NICs; zero leaves
// them unconstrained.
func newFixtureNIC(t testing.TB, cfg Config, nicMbps float64) *fixture {
	t.Helper()
	topo, err := topology.NewCanonicalTree(topology.CanonicalConfig{
		Racks: 8, HostsPerRack: 4, RacksPerPod: 2, CoreSwitches: 2,
		HostLinkMbps: 1000, TorUplinkMbps: 10000, AggUplinkMbps: 10000,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(cluster.UniformHosts(topo.Hosts(), 4, 4096, nicMbps))
	if err != nil {
		t.Fatal(err)
	}
	pm := cluster.NewPlacementManager(cl, 1)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < topo.Hosts()*2; i++ {
		if _, err := pm.CreateVM(512); err != nil {
			t.Fatal(err)
		}
	}
	if err := pm.PlaceRandom(rng); err != nil {
		t.Fatal(err)
	}
	tm, err := traffic.Generate(traffic.DefaultGenConfig(topo.Racks()), topo, cl, rng)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := NewCostModel(PaperWeights()...)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(topo, cm, cl, tm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{topo: topo, cl: cl, tm: tm, eng: eng}
}

// shallowTopo is a topology that breaks the Topology contract's depth.
type shallowTopo struct{ *topology.CanonicalTree }

func (shallowTopo) Depth() int { return 2 }

// misrackedTopo lists host 4, of rack 1, under rack 0 in place of host 3.
type misrackedTopo struct{ *topology.CanonicalTree }

func (m misrackedTopo) HostsInRack(r int) []cluster.HostID {
	hosts := m.CanonicalTree.HostsInRack(r)
	if r == 0 {
		hosts[3] = 4
	}
	return hosts
}

// splitPodTopo puts host 3, the last of rack 0, in pod 1.
type splitPodTopo struct{ *topology.CanonicalTree }

func (s splitPodTopo) PodOf(h cluster.HostID) int {
	if h == 3 {
		return 1
	}
	return s.CanonicalTree.PodOf(h)
}

// TestRackShapeValidation: the rack walk scores a rack's peer-free hosts
// once, which is exact only if every host HostsInRack lists is in that
// rack and the rack sits in one pod; engine and kernel refuse a topology
// that breaks either, and both topology families pass.
func TestRackShapeValidation(t *testing.T) {
	fx := newFixture(t, DefaultConfig())
	cm := fx.eng.CostModel()
	for _, topo := range []topology.Topology{misrackedTopo{fx.topo}, splitPodTopo{fx.topo}} {
		if _, err := NewEngine(topo, cm, fx.cl, fx.tm, DefaultConfig()); err == nil || !strings.Contains(err.Error(), "Topology contract") {
			t.Errorf("%T: NewEngine err = %v, want a refusal naming the Topology contract", topo, err)
		}
		if _, err := NewKernel(topo, cm, 0); err == nil || !strings.Contains(err.Error(), "Topology contract") {
			t.Errorf("%T: NewKernel err = %v, want a refusal naming the Topology contract", topo, err)
		}
	}
	fat, err := topology.NewFatTree(8, 1000)
	if err != nil {
		t.Fatal(err)
	}
	paper, err := topology.NewCanonicalTree(topology.PaperCanonicalConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, topo := range []topology.Topology{fx.topo, fat, paper} {
		if _, err := NewKernel(topo, cm, 0); err != nil {
			t.Errorf("%s: %v", topo.Name(), err)
		}
	}
}

func TestEngineValidation(t *testing.T) {
	fx := newFixture(t, DefaultConfig())
	if _, err := NewEngine(nil, fx.eng.CostModel(), fx.cl, fx.tm, DefaultConfig()); err == nil {
		t.Fatal("nil topology accepted")
	}
	// The level tables, and the interface's own definition of levels by
	// host, rack and pod, are the depth-3 contract.
	_, err := NewEngine(shallowTopo{fx.topo}, fx.eng.CostModel(), fx.cl, fx.tm, DefaultConfig())
	if err == nil || !strings.Contains(err.Error(), "Topology contract") {
		t.Fatalf("depth-2 topology: err = %v, want a refusal naming the Topology contract", err)
	}
	shallow, _ := NewCostModel(1)
	if _, err := NewEngine(fx.topo, shallow, fx.cl, fx.tm, DefaultConfig()); err == nil {
		t.Fatal("shallow cost model accepted")
	}
}

// TestTotalCostMatchesPairSum verifies Eq. (2): the engine total equals
// the per-pair arithmetic done by hand.
func TestTotalCostMatchesPairSum(t *testing.T) {
	fx := newFixture(t, DefaultConfig())
	pairs, rates := fx.tm.Pairs()
	var want float64
	cm := fx.eng.CostModel()
	for i, p := range pairs {
		lvl := fx.topo.Level(fx.cl.HostOf(p.A), fx.cl.HostOf(p.B))
		want += 2 * rates[i] * cm.Prefix(lvl)
	}
	if got := fx.eng.TotalCost(); math.Abs(got-want) > 1e-6*want {
		t.Fatalf("TotalCost = %v, want %v", got, want)
	}
}

// TestVMCostHalvesTotal verifies C^A = ½ Σ_u C^A(u) (Section III).
func TestVMCostHalvesTotal(t *testing.T) {
	fx := newFixture(t, DefaultConfig())
	var sum float64
	for _, u := range fx.cl.VMs() {
		sum += fx.eng.VMCost(u)
	}
	total := fx.eng.TotalCost()
	if math.Abs(sum/2-total) > 1e-6*total {
		t.Fatalf("½ΣC(u) = %v, want TotalCost %v", sum/2, total)
	}
}

// TestDeltaMatchesRecomputation is the central correctness property of
// the paper's Lemma 3 / Eq. (5): the locally computable ΔC must equal
// the difference of full-cost recomputations for any migration.
func TestDeltaMatchesRecomputation(t *testing.T) {
	fx := newFixture(t, DefaultConfig())
	rng := rand.New(rand.NewSource(7))
	vms := fx.cl.VMs()
	checked := 0
	for trial := 0; trial < 300; trial++ {
		u := vms[rng.Intn(len(vms))]
		target := cluster.HostID(rng.Intn(fx.cl.NumHosts()))
		if !fx.cl.Fits(u, target) || fx.cl.HostOf(u) == target {
			continue
		}
		before := fx.eng.TotalCost()
		delta := fx.eng.Delta(u, target)
		src := fx.cl.HostOf(u)
		if err := fx.cl.Move(u, target); err != nil {
			t.Fatalf("Move: %v", err)
		}
		after := fx.eng.TotalCost()
		if err := fx.cl.Move(u, src); err != nil {
			t.Fatalf("Move back: %v", err)
		}
		if diff := math.Abs((before - after) - delta); diff > 1e-6*(1+math.Abs(delta)) {
			t.Fatalf("Delta(%d->%d) = %v, recomputed %v", u, target, delta, before-after)
		}
		checked++
	}
	if checked < 50 {
		t.Fatalf("only %d migrations checked; fixture too constrained", checked)
	}
}

// TestBestMigrationSatisfiesTheorem1 checks every accepted decision has
// ΔC > c_m and that applying it reduces the global cost by that amount.
func TestBestMigrationSatisfiesTheorem1(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MigrationCost = 5
	fx := newFixture(t, cfg)
	accepted := 0
	for _, u := range fx.cl.VMs() {
		dec, ok := fx.eng.BestMigration(u)
		if !ok {
			continue
		}
		accepted++
		if dec.Delta <= cfg.MigrationCost {
			t.Fatalf("decision for VM %d has delta %v <= cm %v", u, dec.Delta, cfg.MigrationCost)
		}
		before := fx.eng.TotalCost()
		realized, err := fx.eng.Apply(dec)
		if err != nil {
			t.Fatalf("Apply: %v", err)
		}
		after := fx.eng.TotalCost()
		if math.Abs((before-after)-realized) > 1e-6*(1+realized) {
			t.Fatalf("realized delta %v but cost moved %v", realized, before-after)
		}
	}
	if accepted == 0 {
		t.Fatal("no migrations accepted; fixture not exercising the policy")
	}
}

// TestTokenPassReducesCostMonotonically applies one full round of
// decisions and checks the global cost never increases.
func TestTokenPassReducesCostMonotonically(t *testing.T) {
	fx := newFixture(t, DefaultConfig())
	cost := fx.eng.TotalCost()
	for _, u := range fx.cl.VMs() {
		if dec, ok := fx.eng.BestMigration(u); ok {
			if _, err := fx.eng.Apply(dec); err != nil {
				t.Fatalf("Apply: %v", err)
			}
			next := fx.eng.TotalCost()
			if next > cost+1e-6 {
				t.Fatalf("cost increased after migration of %d: %v -> %v", u, cost, next)
			}
			cost = next
		}
	}
}

// TestConvergence runs passes until quiescent; a steady state must be
// reached (no oscillation) and cost must improve substantially.
func TestConvergence(t *testing.T) {
	fx := newFixture(t, DefaultConfig())
	initial := fx.eng.TotalCost()
	var moves int
	for pass := 0; pass < 12; pass++ {
		moves = 0
		for _, u := range fx.cl.VMs() {
			if dec, ok := fx.eng.BestMigration(u); ok {
				if _, err := fx.eng.Apply(dec); err == nil {
					moves++
				}
			}
		}
		if moves == 0 {
			break
		}
	}
	if moves != 0 {
		t.Fatalf("no quiescent state after 12 passes (%d moves in the last)", moves)
	}
	final := fx.eng.TotalCost()
	if final > 0.7*initial {
		t.Fatalf("converged cost %v is above 70%% of initial %v; localization too weak", final, initial)
	}
}

func TestAdmissibleRespectsBandwidthThreshold(t *testing.T) {
	topo, err := topology.NewCanonicalTree(topology.ScaledCanonicalConfig(8, 2))
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(cluster.UniformHosts(topo.Hosts(), 8, 8192, 1000))
	if err != nil {
		t.Fatal(err)
	}
	for id := cluster.VMID(1); id <= 3; id++ {
		if err := cl.AddVM(cluster.VM{ID: id, RAMMB: 256}); err != nil {
			t.Fatal(err)
		}
	}
	// VM 1 and 2 on host 0 exchange nothing; VM 3 on host 5 talks to VM 1
	// at 900 Mb/s, near the NIC limit.
	mustPlace := func(id cluster.VMID, h cluster.HostID) {
		t.Helper()
		if err := cl.Place(id, h); err != nil {
			t.Fatal(err)
		}
	}
	mustPlace(1, 0)
	mustPlace(2, 0)
	mustPlace(3, 5)
	tm := traffic.NewMatrix()
	tm.Set(1, 3, 900)
	tm.Set(2, 3, 300)
	cm, err := NewCostModel(PaperWeights()...)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(topo, cm, cl, tm, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Moving VM 3 to host 0 internalizes both flows: admissible.
	if !eng.Admissible(3, 0) {
		t.Fatal("co-locating move should be admissible (traffic becomes internal)")
	}
	// Moving VM 3 to host 1 (same rack as 0) keeps 1200 Mb/s external on
	// host 1's NIC: inadmissible at the 0.9 threshold.
	if eng.Admissible(3, 1) {
		t.Fatal("move exceeding the bandwidth threshold must be refused")
	}
}

// TestDeltaZeroCases: self-moves and unplaced VMs produce zero delta.
func TestDeltaZeroCases(t *testing.T) {
	fx := newFixture(t, DefaultConfig())
	u := fx.cl.VMs()[0]
	if got := fx.eng.Delta(u, fx.cl.HostOf(u)); got != 0 {
		t.Fatalf("Delta to current host = %v, want 0", got)
	}
	if got := fx.eng.Delta(99999999, 0); got != 0 {
		t.Fatalf("Delta of unknown VM = %v, want 0", got)
	}
}

// TestTotalCostOfSnapshot agrees with the live cluster cost.
func TestTotalCostOfSnapshot(t *testing.T) {
	fx := newFixture(t, DefaultConfig())
	snap := fx.cl.Snapshot()
	live := fx.eng.TotalCost()
	offline := fx.eng.TotalCostOf(snap)
	if math.Abs(live-offline) > 1e-9*live {
		t.Fatalf("TotalCostOf(snapshot) = %v, live = %v", offline, live)
	}
}

// TestDeltaQuick: property over random fixtures — accepted best
// migrations always have positive delta and correct sign convention
// (positive = cost reduction).
func TestDeltaQuick(t *testing.T) {
	fx := newFixture(t, Config{})
	vms := fx.cl.VMs()
	f := func(vi uint16, hi uint16) bool {
		u := vms[int(vi)%len(vms)]
		h := cluster.HostID(int(hi) % fx.cl.NumHosts())
		delta := fx.eng.Delta(u, h)
		if fx.cl.HostOf(u) == h {
			return delta == 0
		}
		// Pure locality: moving toward the host of the heaviest neighbor
		// can never be worse than the stated delta bound |2·Σλ·W(max)|.
		var bound float64
		for _, ed := range fx.tm.NeighborEdges(u) {
			bound += 2 * ed.Rate * fx.eng.CostModel().Prefix(fx.topo.Depth())
		}
		return math.Abs(delta) <= bound+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestVMLevel matches the max over pair levels.
func TestVMLevel(t *testing.T) {
	fx := newFixture(t, DefaultConfig())
	for _, u := range fx.cl.VMs() {
		want := 0
		for _, ed := range fx.tm.NeighborEdges(u) {
			if l := fx.eng.PairLevel(u, ed.Peer); l > want {
				want = l
			}
		}
		if got := fx.eng.VMLevel(u); got != want {
			t.Fatalf("VMLevel(%d) = %d, want %d", u, got, want)
		}
	}
}
