package core

import (
	"math"
	"math/rand"
	"testing"

	"github.com/score-dc/score/internal/cluster"
	"github.com/score-dc/score/internal/topology"
	"github.com/score-dc/score/internal/traffic"
)

// pairSumCost recomputes C^A from scratch, pair by pair — the reference
// the incremental accounting must track.
func pairSumCost(fx *fixture) float64 {
	pairs, rates := fx.tm.Pairs()
	var sum float64
	cm := fx.eng.CostModel()
	depth := fx.topo.Depth()
	for i, p := range pairs {
		ha, hb := fx.cl.HostOf(p.A), fx.cl.HostOf(p.B)
		lvl := depth
		if ha != cluster.NoHost && hb != cluster.NoHost {
			lvl = fx.topo.Level(ha, hb)
		}
		sum += 2 * rates[i] * cm.Prefix(lvl)
	}
	return sum
}

// scratchHostNet recomputes every host's external traffic from scratch.
func scratchHostNet(fx *fixture) []float64 {
	out := make([]float64, fx.cl.NumHosts())
	pairs, rates := fx.tm.Pairs()
	for i, p := range pairs {
		ha, hb := fx.cl.HostOf(p.A), fx.cl.HostOf(p.B)
		if ha != cluster.NoHost && ha != hb {
			out[ha] += rates[i]
		}
		if hb != cluster.NoHost && hb != ha {
			out[hb] += rates[i]
		}
	}
	return out
}

func assertCostAgrees(t *testing.T, fx *fixture, context string) {
	t.Helper()
	got, want := fx.eng.TotalCost(), pairSumCost(fx)
	if math.Abs(got-want) > 1e-6*math.Max(1, math.Abs(want)) {
		t.Fatalf("%s: incremental TotalCost = %v, recomputed %v", context, got, want)
	}
}

// TestIncrementalCostConsistency drives 1k random migrations through the
// cluster (directly, as the simulator does — not via Engine.Apply) and
// checks the running C^A stays within 1e-6 relative error of the pair by
// pair formula throughout, and the per-host net loads equal a
// from-scratch recomputation.
func TestIncrementalCostConsistency(t *testing.T) {
	fx := newFixture(t, DefaultConfig())
	rng := rand.New(rand.NewSource(99))
	vms := fx.cl.VMs()
	fx.eng.TotalCost() // prime the accounting

	moves := 0
	for trial := 0; moves < 1000 && trial < 50000; trial++ {
		u := vms[rng.Intn(len(vms))]
		h := cluster.HostID(rng.Intn(fx.cl.NumHosts()))
		if fx.cl.HostOf(u) == h || !fx.cl.Fits(u, h) {
			continue
		}
		if err := fx.cl.Move(u, h); err != nil {
			t.Fatalf("Move: %v", err)
		}
		moves++
		if moves%100 == 0 {
			assertCostAgrees(t, fx, "mid-run")
		}
	}
	if moves < 1000 {
		t.Fatalf("only %d migrations executed; fixture too constrained", moves)
	}
	assertCostAgrees(t, fx, "after 1k migrations")

	want := scratchHostNet(fx)
	for h := range want {
		got := fx.eng.HostNetLoad(cluster.HostID(h))
		if math.Float64bits(got) != math.Float64bits(want[h]) {
			t.Fatalf("HostNetLoad(%d) = %v, recomputed %v", h, got, want[h])
		}
	}
}

// TestAccountingSurvivesPlace verifies incremental updates across the
// Place path (from == NoHost), not just Move.
func TestAccountingSurvivesPlace(t *testing.T) {
	fx := newFixture(t, DefaultConfig())
	if err := fx.cl.AddVM(cluster.VM{ID: 999999, RAMMB: 128}); err != nil {
		t.Fatal(err)
	}
	other := fx.cl.VMs()[0]
	fx.tm.Set(999999, other, 42) // traffic to an unplaced VM
	fx.eng.TotalCost()           // prime on the new matrix generation
	target := cluster.NoHost
	for h := 0; h < fx.cl.NumHosts(); h++ {
		if fx.cl.Fits(999999, cluster.HostID(h)) {
			target = cluster.HostID(h)
			break
		}
	}
	if target == cluster.NoHost {
		t.Fatal("no host fits the new VM")
	}
	if err := fx.cl.Place(999999, target); err != nil {
		t.Fatal(err)
	}
	assertCostAgrees(t, fx, "after Place")
}

// TestAccountingInvalidatedByRestore: bulk allocation rewrites cannot be
// folded incrementally; the next read must rebuild.
func TestAccountingInvalidatedByRestore(t *testing.T) {
	fx := newFixture(t, DefaultConfig())
	fx.eng.TotalCost()
	snap := fx.cl.Snapshot()
	vms := fx.cl.VMs()
	rng := rand.New(rand.NewSource(5))
	for trial, moves := 0, 0; moves < 20 && trial < 2000; trial++ {
		u := vms[rng.Intn(len(vms))]
		h := cluster.HostID(rng.Intn(fx.cl.NumHosts()))
		if fx.cl.HostOf(u) != h && fx.cl.Fits(u, h) {
			if err := fx.cl.Move(u, h); err == nil {
				moves++
			}
		}
	}
	if err := fx.cl.Restore(snap); err != nil {
		t.Fatal(err)
	}
	assertCostAgrees(t, fx, "after Restore")
}

// TestAccountingInvalidatedByTrafficMutation: mutating the matrix in
// place moves its generation; cached totals must not be served stale.
func TestAccountingInvalidatedByTrafficMutation(t *testing.T) {
	fx := newFixture(t, DefaultConfig())
	before := fx.eng.TotalCost()
	vms := fx.cl.VMs()
	fx.tm.Set(vms[0], vms[len(vms)-1], 12345)
	assertCostAgrees(t, fx, "after in-place Set")
	if fx.eng.TotalCost() == before {
		t.Fatal("TotalCost unchanged by a large in-place rate change")
	}
	// A move made while the accounting is stale must not corrupt the
	// rebuilt totals.
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 2000; trial++ {
		u := vms[rng.Intn(len(vms))]
		h := cluster.HostID(rng.Intn(fx.cl.NumHosts()))
		if fx.cl.HostOf(u) != h && fx.cl.Fits(u, h) {
			fx.tm.Set(vms[1], vms[2], float64(trial+1)) // stale again
			if err := fx.cl.Move(u, h); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	assertCostAgrees(t, fx, "move while stale")
}

// TestAccountingInvalidatedBySetTraffic: swapping matrices (a new
// measurement window) rebuilds against the new rates.
func TestAccountingInvalidatedBySetTraffic(t *testing.T) {
	fx := newFixture(t, DefaultConfig())
	old := fx.eng.TotalCost()
	scaled := fx.tm.Scaled(10)
	fx.eng.SetTraffic(scaled)
	fx.tm = scaled
	assertCostAgrees(t, fx, "after SetTraffic")
	if got := fx.eng.TotalCost(); math.Abs(got-10*old) > 1e-6*10*old {
		t.Fatalf("cost after ×10 scale = %v, want %v", got, 10*old)
	}
}

// TestHostNetLoadMatchesScratch cross-checks the cached per-host loads
// against the definitional sum on the untouched initial allocation.
func TestHostNetLoadMatchesScratch(t *testing.T) {
	fx := newFixture(t, DefaultConfig())
	want := scratchHostNet(fx)
	for h := range want {
		got := fx.eng.HostNetLoad(cluster.HostID(h))
		if math.Float64bits(got) != math.Float64bits(want[h]) {
			t.Fatalf("HostNetLoad(%d) = %v, want %v", h, got, want[h])
		}
	}
	if got := fx.eng.HostNetLoad(cluster.HostID(-5)); got != 0 {
		t.Fatalf("HostNetLoad(invalid) = %v, want 0", got)
	}
}

// TestAccountingFoldEqualsRebuildBitForBit: the engine's accumulators are
// sums of rates on traffic's grid, so after any stream of placement and
// traffic changes, folded at whatever moments the reads fell, TotalCost
// and every HostNetLoad are the bits a fresh engine computes from scratch.
func TestAccountingFoldEqualsRebuildBitForBit(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		fx := newFixture(t, DefaultConfig())
		rng := rand.New(rand.NewSource(seed))
		vms := fx.cl.VMs()
		pick := func() cluster.VMID { return vms[rng.Intn(len(vms))] }
		fx.eng.TotalCost()
		for op := 0; op < 5000; op++ {
			u, h := pick(), cluster.HostID(rng.Intn(fx.cl.NumHosts()))
			switch rng.Intn(10) {
			case 0, 1, 2, 3:
				if fx.cl.HostOf(u) == cluster.NoHost {
					if fx.cl.Fits(u, h) {
						if err := fx.cl.Place(u, h); err != nil {
							t.Fatal(err)
						}
					}
				} else if fx.cl.HostOf(u) != h && fx.cl.Fits(u, h) {
					if err := fx.cl.Move(u, h); err != nil {
						t.Fatal(err)
					}
				}
			case 4, 5:
				fx.tm.Set(u, pick(), 300*rng.Float64()*float64(rng.Intn(4))) // one in four retires the pair
			case 6, 7:
				fx.tm.Add(u, pick(), rng.ExpFloat64()/3)
			case 8:
				switch rng.Intn(3) {
				case 0:
					fx.tm.ClearVM(u)
				case 1:
					if fx.cl.HostOf(u) != cluster.NoHost {
						if err := fx.cl.Remove(u); err != nil {
							t.Fatal(err)
						}
					}
				case 2:
					_ = fx.cl.Respec(u, 256+rng.Intn(512), 0) // refused when the host lacks the room
				}
			case 9:
				fx.eng.TotalCost() // a read: pending rate changes fold here
			}
		}
		fresh, err := NewEngine(fx.topo, fx.eng.CostModel(), fx.cl, fx.tm, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if got, want := fx.eng.TotalCost(), fresh.TotalCost(); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("seed %d: folded TotalCost = %v, rebuilt %v", seed, got, want)
		}
		differ := 0
		for h := 0; h < fx.cl.NumHosts(); h++ {
			got, want := fx.eng.HostNetLoad(cluster.HostID(h)), fresh.HostNetLoad(cluster.HostID(h))
			if math.Float64bits(got) != math.Float64bits(want) {
				differ++
			}
		}
		if differ > 0 {
			t.Errorf("seed %d: folded HostNetLoad differs from a rebuild on %d of %d hosts", seed, differ, fx.cl.NumHosts())
		}
		fresh.Detach()
	}
}

// ---- Allocation-regression tests: the decision hot path must not
// allocate, and BestMigration must stay within a small fixed bound. ----

func TestDeltaZeroAllocs(t *testing.T) {
	fx := newFixture(t, DefaultConfig())
	vms := fx.cl.VMs()
	view := fx.eng.NewView()
	// Warm the peer scratch across the whole population so steady state
	// is measured, not first-touch growth.
	for _, u := range vms {
		fx.eng.Delta(u, 0)
		view.Delta(u, 0)
	}
	i := 0
	if avg := testing.AllocsPerRun(200, func() {
		u := vms[i%len(vms)]
		target := cluster.HostID(i % fx.cl.NumHosts())
		fx.eng.Delta(u, target)
		view.Delta(u, target)
		i++
	}); avg != 0 {
		t.Fatalf("Delta allocates %v times per run, want 0", avg)
	}
}

func TestAdmissibleZeroAllocs(t *testing.T) {
	fx := newFixture(t, DefaultConfig())
	vms := fx.cl.VMs()
	fx.eng.TotalCost() // prime the net-load cache outside the measurement
	i := 0
	if avg := testing.AllocsPerRun(200, func() {
		u := vms[i%len(vms)]
		fx.eng.Admissible(u, cluster.HostID(i%fx.cl.NumHosts()))
		i++
	}); avg != 0 {
		t.Fatalf("Admissible allocates %v times per run, want 0", avg)
	}
	// Refusals of an unknown VM or an out-of-range host build no error.
	unknown, beyond := vms[len(vms)-1]+1000, cluster.HostID(fx.cl.NumHosts())
	if avg := testing.AllocsPerRun(200, func() {
		if fx.eng.Admissible(unknown, 0) || fx.eng.Admissible(vms[0], beyond) || fx.eng.Admissible(vms[0], -1) {
			t.Fatal("admitted an unknown VM or host")
		}
	}); avg != 0 {
		t.Fatalf("refusing Admissible allocates %v times per run, want 0", avg)
	}
}

func TestVMLevelAndVMCostZeroAllocs(t *testing.T) {
	fx := newFixture(t, DefaultConfig())
	vms := fx.cl.VMs()
	i := 0
	if avg := testing.AllocsPerRun(200, func() {
		u := vms[i%len(vms)]
		fx.eng.VMLevel(u)
		fx.eng.VMCost(u)
		i++
	}); avg != 0 {
		t.Fatalf("VMLevel/VMCost allocate %v times per run, want 0", avg)
	}
}

func TestBestMigrationAllocBound(t *testing.T) {
	fx := newFixture(t, DefaultConfig())
	vms := fx.cl.VMs()
	view := fx.eng.NewView()
	// Pre-warm the peer, rank and refusal scratch across the whole
	// population so steady state is measured, not first-touch growth.
	for _, u := range vms {
		fx.eng.BestMigration(u)
		view.BestMigration(u)
	}
	i := 0
	if avg := testing.AllocsPerRun(200, func() {
		fx.eng.BestMigration(vms[i%len(vms)])
		view.BestMigration(vms[i%len(vms)])
		i++
	}); avg != 0 {
		t.Fatalf("BestMigration allocates %v times per run, want 0", avg)
	}
}

func TestTotalCostZeroAllocsWhenWarm(t *testing.T) {
	fx := newFixture(t, DefaultConfig())
	fx.eng.TotalCost()
	if avg := testing.AllocsPerRun(200, func() {
		fx.eng.TotalCost()
	}); avg != 0 {
		t.Fatalf("warm TotalCost allocates %v times per run, want 0", avg)
	}
}

// TestIncrementalAgreesWithApply: the realized ΔC returned by Apply must
// match the movement of the incrementally tracked total.
func TestIncrementalAgreesWithApply(t *testing.T) {
	fx := newFixture(t, DefaultConfig())
	applied := 0
	for _, u := range fx.cl.VMs() {
		dec, ok := fx.eng.BestMigration(u)
		if !ok {
			continue
		}
		before := fx.eng.TotalCost()
		realized, err := fx.eng.Apply(dec)
		if err != nil {
			t.Fatalf("Apply: %v", err)
		}
		after := fx.eng.TotalCost()
		if math.Abs((before-after)-realized) > 1e-6*(1+math.Abs(realized)) {
			t.Fatalf("incremental total moved %v, realized delta %v", before-after, realized)
		}
		applied++
	}
	if applied == 0 {
		t.Fatal("no migrations applied; fixture not exercising the policy")
	}
}

// TestTwoEnginesOneCluster: engines sharing a cluster but holding
// different matrices must each keep their own accounting consistent.
func TestTwoEnginesOneCluster(t *testing.T) {
	fx := newFixture(t, DefaultConfig())
	scaled := fx.tm.Scaled(3)
	eng2, err := NewEngine(fx.topo, fx.eng.CostModel(), fx.cl, scaled, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	c1, c2 := fx.eng.TotalCost(), eng2.TotalCost()
	if math.Abs(c2-3*c1) > 1e-6*c2 {
		t.Fatalf("scaled engine cost %v, want %v", c2, 3*c1)
	}
	vms := fx.cl.VMs()
	rng := rand.New(rand.NewSource(12))
	for trial, moves := 0, 0; moves < 50 && trial < 5000; trial++ {
		u := vms[rng.Intn(len(vms))]
		h := cluster.HostID(rng.Intn(fx.cl.NumHosts()))
		if fx.cl.HostOf(u) != h && fx.cl.Fits(u, h) {
			if err := fx.cl.Move(u, h); err == nil {
				moves++
			}
		}
	}
	assertCostAgrees(t, fx, "engine 1 after shared moves")
	c1, c2 = fx.eng.TotalCost(), eng2.TotalCost()
	if math.Abs(c2-3*c1) > 1e-6*c2 {
		t.Fatalf("engines diverged after shared moves: %v vs 3×%v", c2, c1)
	}
}

// TestDetachedEngineStaysCorrect: a detached engine no longer receives
// allocation callbacks but must keep answering correctly (by
// recomputing instead of tracking incrementally).
func TestDetachedEngineStaysCorrect(t *testing.T) {
	fx := newFixture(t, DefaultConfig())
	fx.eng.TotalCost() // prime while attached
	fx.eng.Detach()
	vms := fx.cl.VMs()
	rng := rand.New(rand.NewSource(8))
	for trial, moves := 0, 0; moves < 30 && trial < 3000; trial++ {
		u := vms[rng.Intn(len(vms))]
		h := cluster.HostID(rng.Intn(fx.cl.NumHosts()))
		if fx.cl.HostOf(u) != h && fx.cl.Fits(u, h) {
			if err := fx.cl.Move(u, h); err == nil {
				moves++
			}
		}
	}
	assertCostAgrees(t, fx, "detached engine after moves")
	fx.eng.Detach() // idempotent
	assertCostAgrees(t, fx, "after double detach")
}

// TestBestMigrationClusterLargerThanTopology: a neighbor hosted beyond
// the topology's host range must degrade gracefully (no rack fallback),
// not panic on the precomputed rack table.
func TestBestMigrationClusterLargerThanTopology(t *testing.T) {
	topo, err := topology.NewCanonicalTree(topology.CanonicalConfig{
		Racks: 2, HostsPerRack: 2, RacksPerPod: 2, CoreSwitches: 1,
		HostLinkMbps: 1000, TorUplinkMbps: 1000, AggUplinkMbps: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(cluster.UniformHosts(6, 4, 4096, 1000)) // 2 hosts beyond the topology
	if err != nil {
		t.Fatal(err)
	}
	for id := cluster.VMID(1); id <= 2; id++ {
		if err := cl.AddVM(cluster.VM{ID: id, RAMMB: 256}); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Place(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := cl.Place(2, 5); err != nil { // outside topo.Hosts()
		t.Fatal(err)
	}
	tm := traffic.NewMatrix()
	tm.Set(1, 2, 100)
	cm, err := NewCostModel(PaperWeights()...)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(topo, cm, cl, tm, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Co-locating with the peer is still the best move (the level
	// arithmetic extrapolates beyond the topology's host count, as the
	// interface implementations always did); the point is that probing
	// host 5 must not panic on the engine's rack table.
	dec, ok := eng.BestMigration(1)
	if !ok || dec.Target != 5 {
		t.Fatalf("BestMigration = %+v, %v; want co-location on host 5", dec, ok)
	}
	if _, err := eng.Apply(dec); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if got := eng.TotalCost(); got != 0 {
		t.Fatalf("cost after co-location = %v, want 0", got)
	}
}

// TestDeltaAgainstTrafficEdges sanity-checks Delta against a manual
// edge-walk over NeighborEdges (the CSR row is the source of truth).
func TestDeltaAgainstTrafficEdges(t *testing.T) {
	fx := newFixture(t, Config{})
	rng := rand.New(rand.NewSource(3))
	vms := fx.cl.VMs()
	cm := fx.eng.CostModel()
	for trial := 0; trial < 200; trial++ {
		u := vms[rng.Intn(len(vms))]
		target := cluster.HostID(rng.Intn(fx.cl.NumHosts()))
		cur := fx.cl.HostOf(u)
		if cur == target {
			continue
		}
		var want float64
		for _, ed := range fx.tm.NeighborEdges(u) {
			hz := fx.cl.HostOf(ed.Peer)
			if hz == cluster.NoHost {
				continue
			}
			want += 2 * ed.Rate * (cm.Prefix(fx.topo.Level(hz, cur)) - cm.Prefix(fx.topo.Level(hz, target)))
		}
		if got := fx.eng.Delta(u, target); math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("Delta(%d→%d) = %v, want %v", u, target, got, want)
		}
	}
}

// TestWindowRolloverFoldsIncrementally: in-place rate updates (a traffic
// window rolling over) must be folded from the matrix changelog without
// dropping the accounting, and the folded totals must match recomputation
// throughout an interleaving of rate updates and migrations.
func TestWindowRolloverFoldsIncrementally(t *testing.T) {
	fx := newFixture(t, DefaultConfig())
	fx.eng.TotalCost() // prime
	rng := rand.New(rand.NewSource(17))
	vms := fx.cl.VMs()
	pairs, rates := fx.tm.Pairs()
	pairList := append([]traffic.Pair(nil), pairs...)
	rateList := append([]float64(nil), rates...)

	for step := 0; step < 400; step++ {
		switch step % 4 {
		case 0, 1: // rate update on an existing pair
			i := rng.Intn(len(pairList))
			fx.tm.Set(pairList[i].A, pairList[i].B, rateList[i]*(0.5+rng.Float64()))
		case 2: // new pair
			fx.tm.Add(vms[rng.Intn(len(vms))], vms[rng.Intn(len(vms))], rng.Float64()*10)
		default: // migration while the accounting is behind the matrix
			u := vms[rng.Intn(len(vms))]
			h := cluster.HostID(rng.Intn(fx.cl.NumHosts()))
			if fx.cl.HostOf(u) != h && fx.cl.Fits(u, h) {
				if err := fx.cl.Move(u, h); err != nil {
					t.Fatal(err)
				}
			}
		}
		if step%50 == 49 {
			assertCostAgrees(t, fx, "rollover interleaving")
		}
	}
	if !fx.eng.acctValid {
		t.Fatal("accounting dropped: changelog fold never kept it alive")
	}
	assertCostAgrees(t, fx, "after rollover interleaving")
	want := scratchHostNet(fx)
	for h := range want {
		got := fx.eng.HostNetLoad(cluster.HostID(h))
		if math.Float64bits(got) != math.Float64bits(want[h]) {
			t.Fatalf("HostNetLoad(%d) = %v, recomputed %v", h, got, want[h])
		}
	}
}
