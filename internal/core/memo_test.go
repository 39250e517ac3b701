package core

import (
	"math"
	"math/rand"
	"os"
	"testing"

	"github.com/score-dc/score/internal/cluster"
	"github.com/score-dc/score/internal/topology"
	"github.com/score-dc/score/internal/traffic"
)

// TestMain turns the differential check on for every test of this
// package: each skipped visit also runs the kernel and panics when the
// kernel would have moved the VM.
func TestMain(m *testing.M) {
	checkSkips = true
	os.Exit(m.Run())
}

// visitPass visits every VM once through the serial engine, applying
// what it finds, and returns how many visits were skipped and the
// decisions applied.
func visitPass(t *testing.T, eng *Engine) (skipped int, applied []Decision) {
	t.Helper()
	for _, u := range eng.cl.VMs() {
		dec, ok, skip := eng.Visit(u)
		if skip {
			skipped++
		}
		if ok {
			if _, err := eng.Apply(dec); err != nil {
				t.Fatalf("apply %+v: %v", dec, err)
			}
			applied = append(applied, dec)
		}
	}
	return skipped, applied
}

// settle runs visit passes until one applies nothing.
func settle(t *testing.T, eng *Engine) {
	t.Helper()
	for i := 0; i < 64; i++ {
		if _, applied := visitPass(t, eng); len(applied) == 0 {
			return
		}
	}
	t.Fatal("visit passes did not converge")
}

// evaluated returns the VMs a visit pass over a settled engine
// re-evaluates (none may move: the differential check is on).
func evaluated(t *testing.T, eng *Engine) map[cluster.VMID]bool {
	t.Helper()
	out := map[cluster.VMID]bool{}
	for _, u := range eng.cl.VMs() {
		if _, _, skip := eng.Visit(u); !skip {
			out[u] = true
		}
	}
	return out
}

func TestVisitSkipsSettledVMs(t *testing.T) {
	fx := newFixture(t, DefaultConfig())
	settle(t, fx.eng)
	n := fx.cl.NumVMs()
	if skipped, _ := visitPass(t, fx.eng); skipped != n {
		t.Fatalf("settled pass skipped %d of %d visits", skipped, n)
	}
}

// TestVisitInvalidation walks the invalidation contract event by event:
// after each, exactly the VMs the contract names (and possibly VMs
// blocked by a relaxed host) are re-evaluated, and the rest stay
// skipped.
func TestVisitInvalidation(t *testing.T) {
	fx := newFixtureNIC(t, DefaultConfig(), 0) // no NIC refusals: the dirtied set is exact
	eng, cl, tm := fx.eng, fx.cl, fx.tm
	settle(t, eng)
	vms := cl.VMs()

	peersOf := func(u cluster.VMID) map[cluster.VMID]bool {
		s := map[cluster.VMID]bool{u: true}
		for _, ed := range eng.tm.NeighborEdges(u) {
			s[ed.Peer] = true
		}
		return s
	}
	// must ⊆ got; got \ must may only hold VMs whose verdict had a refusal.
	check := func(name string, must map[cluster.VMID]bool) {
		t.Helper()
		got := evaluated(t, eng)
		for u := range must {
			if !got[u] {
				t.Errorf("%s: VM %d was skipped", name, u)
			}
		}
		for u := range got {
			i, _ := eng.memo.slot(u)
			if !must[u] && !eng.memo.refused[i] {
				t.Errorf("%s: VM %d re-evaluated without cause", name, u)
			}
		}
		settle(t, eng)
	}

	// Move a VM with peers to some other host with room.
	var mover cluster.VMID
	for _, u := range vms {
		if tm.Degree(u) > 0 {
			mover = u
			break
		}
	}
	want := peersOf(mover)
	for h := 0; h < cl.NumHosts(); h++ {
		if cluster.HostID(h) != cl.HostOf(mover) && cl.Fits(mover, cluster.HostID(h)) {
			if err := cl.Move(mover, cluster.HostID(h)); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	check("move", want)

	// Change one edge's rate, then add a new edge.
	ed := tm.NeighborEdges(mover)[0]
	tm.Set(mover, ed.Peer, ed.Rate*3)
	check("rate change", map[cluster.VMID]bool{mover: true, ed.Peer: true})
	a, b := vms[0], vms[len(vms)-1]
	tm.Set(a, b, 5)
	check("new edge", map[cluster.VMID]bool{a: true, b: true})

	// Re-spec dirties the VM itself.
	if err := cl.Respec(mover, 256, 0); err != nil {
		t.Fatal(err)
	}
	check("respec", map[cluster.VMID]bool{mover: true})

	// Remove: clear the row, then unplace; the peers fold from the changelog.
	want = peersOf(mover)
	delete(want, mover)
	tm.ClearVM(mover)
	if err := cl.Remove(mover); err != nil {
		t.Fatal(err)
	}
	check("remove", want)

	// Place a fresh VM next to nothing: only it is evaluated.
	fresh := vms[len(vms)-1] + 1
	if err := cl.AddVM(cluster.VM{ID: fresh, RAMMB: 64}); err != nil {
		t.Fatal(err)
	}
	for h := 0; h < cl.NumHosts(); h++ {
		if cl.Fits(fresh, cluster.HostID(h)) {
			if err := cl.Place(fresh, cluster.HostID(h)); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	check("place", map[cluster.VMID]bool{fresh: true})

	all := map[cluster.VMID]bool{}
	for _, u := range cl.VMs() {
		all[u] = true
	}
	if err := cl.Restore(cl.Snapshot()); err != nil {
		t.Fatal(err)
	}
	check("restore", all)
	eng.SetTraffic(eng.tm.Clone())
	check("set traffic", all)
	// Outrun the changelog: more mutations than it holds, net no change.
	tm2 := eng.tm
	r := tm2.Rate(a, b)
	for i := 0; i < 5000; i++ {
		tm2.Set(a, b, r+1)
		tm2.Set(a, b, r)
	}
	check("changelog overrun", all)
}

// blockedFixture: three racks of two 2-slot hosts. VM 1 on host 0 talks
// to VM 2 on host 2; both their racks (hosts 0–3) are full of fillers,
// so each one's only gainful targets refuse it. Rack 2 (hosts 4, 5) is
// empty and nobody's candidate.
func blockedFixture(t *testing.T, cfg Config) (*Engine, *cluster.Cluster) {
	t.Helper()
	topo, err := topology.NewCanonicalTree(topology.CanonicalConfig{
		Racks: 3, HostsPerRack: 2, RacksPerPod: 1, CoreSwitches: 1,
		HostLinkMbps: 1000, TorUplinkMbps: 10000, AggUplinkMbps: 10000,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(cluster.UniformHosts(6, 2, 4096, 1000))
	if err != nil {
		t.Fatal(err)
	}
	place := func(id cluster.VMID, h cluster.HostID) {
		if err := cl.AddVM(cluster.VM{ID: id, RAMMB: 1024}); err != nil {
			t.Fatal(err)
		}
		if err := cl.Place(id, h); err != nil {
			t.Fatal(err)
		}
	}
	place(1, 0)
	place(2, 2)
	place(3, 2)
	place(4, 3)
	place(5, 3)
	place(6, 0)
	place(7, 1)
	place(8, 1)
	tm := traffic.NewMatrix()
	tm.Set(1, 2, 10)
	cm, err := NewCostModel(PaperWeights()...)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(topo, cm, cl, tm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng, cl
}

func TestVisitBlockedVerdictFollowsRoom(t *testing.T) {
	eng, cl := blockedFixture(t, DefaultConfig())
	for _, u := range []cluster.VMID{1, 2} {
		if _, ok, skip := eng.Visit(u); ok || skip {
			t.Fatalf("first visit of VM %d: ok=%v skipped=%v, want a full evaluation finding nothing", u, ok, skip)
		}
	}
	if i, _ := eng.memo.slot(1); !eng.memo.refused[i] {
		t.Fatal("VM 1's verdict records no refusal")
	}
	if _, _, skip := eng.Visit(1); !skip {
		t.Fatal("second visit of VM 1 not skipped")
	}
	// Tightening never invalidates: host 4 takes a VM, nothing changes for VM 1.
	if err := cl.AddVM(cluster.VM{ID: 9, RAMMB: 64}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Place(9, 4); err != nil {
		t.Fatal(err)
	}
	if _, _, skip := eng.Visit(1); !skip {
		t.Fatal("tightening an unrelated host invalidated VM 1")
	}
	// A third-party VM leaves blocking host 3: VM 1 must be re-evaluated
	// and now moves there.
	if err := cl.Move(5, 4); err != nil {
		t.Fatal(err)
	}
	dec, ok, skip := eng.Visit(1)
	if skip || !ok || dec.Target != 3 {
		t.Fatalf("after host 3 gained room: dec=%+v ok=%v skipped=%v, want a move to host 3", dec, ok, skip)
	}
}

func TestVisitRespecUnblocks(t *testing.T) {
	eng, cl := blockedFixture(t, DefaultConfig())
	// Make RAM, not slots, the constraint on host 3: one big VM.
	if err := cl.Remove(5); err != nil {
		t.Fatal(err)
	}
	if err := cl.Respec(4, 3500, 0); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := eng.Visit(1); ok {
		t.Fatal("VM 1 fits host 3 although RAM is short")
	}
	if _, _, skip := eng.Visit(1); !skip {
		t.Fatal("VM 1 not memoized")
	}
	// Shrinking VM 1 itself makes it fit (4096-3500 = 596 ≥ 512).
	if err := cl.Respec(1, 512, 0); err != nil {
		t.Fatal(err)
	}
	dec, ok, skip := eng.Visit(1)
	if skip || !ok || dec.Target != 3 {
		t.Fatalf("after shrinking VM 1: dec=%+v ok=%v skipped=%v", dec, ok, skip)
	}
	// Undo, re-memoize, then shrink the blocker instead.
	if err := cl.Respec(1, 1024, 0); err != nil {
		t.Fatal(err)
	}
	if _, ok, skip := eng.Visit(1); ok || skip {
		t.Fatalf("after growing VM 1 back: ok=%v skipped=%v", ok, skip)
	}
	if err := cl.Respec(4, 1024, 0); err != nil {
		t.Fatal(err)
	}
	if dec, ok, skip := eng.Visit(1); skip || !ok || dec.Target != 3 {
		t.Fatalf("after shrinking the blocker: dec=%+v ok=%v skipped=%v", dec, ok, skip)
	}
}

func TestVisitInert(t *testing.T) {
	neverSkips := func(name string, eng *Engine) {
		t.Helper()
		for pass := 0; pass < 3; pass++ {
			for _, u := range eng.cl.VMs() {
				if _, _, skip := eng.Visit(u); skip {
					t.Fatalf("%s: visit of VM %d skipped", name, u)
				}
			}
		}
	}
	fx := newFixture(t, DefaultConfig())
	settle(t, fx.eng)
	fx.eng.Detach()
	neverSkips("detached", fx.eng)
}

// TestVisitFollowsDenseWindow: VMs registered after the table was sized
// are evaluated in full until the next sync resizes it, and verdicts of
// the old window survive the resize.
func TestVisitFollowsDenseWindow(t *testing.T) {
	fx := newFixture(t, DefaultConfig())
	settle(t, fx.eng)
	vms := fx.cl.VMs()
	next := vms[len(vms)-1] + 1
	for i := 0; i < 200; i++ { // enough to grow the record table
		id := next + cluster.VMID(i)
		if err := fx.cl.AddVM(cluster.VM{ID: id, RAMMB: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := fx.cl.Place(next, 0); err != nil && fx.cl.Fits(next, 0) {
		t.Fatal(err)
	}
	skipped := 0
	for _, u := range vms {
		if _, _, skip := fx.eng.Visit(u); skip {
			skipped++
		}
	}
	if skipped < len(vms)-8 {
		t.Fatalf("resize kept %d of %d verdicts", skipped, len(vms))
	}
	if _, _, skip := fx.eng.Visit(next + 150); skip {
		t.Fatal("never-evaluated VM skipped")
	}
	if _, _, skip := fx.eng.Visit(next + 150); !skip {
		t.Fatal("VM in the grown window not memoized")
	}
}

func TestVisitClockWrap(t *testing.T) {
	eng, cl := blockedFixture(t, DefaultConfig())
	eng.Visit(1)
	eng.Visit(2)
	eng.memo.clock = math.MaxUint32
	// Relaxing a blocking host ticks the clock over the edge.
	if err := cl.Move(5, 4); err != nil {
		t.Fatal(err)
	}
	if eng.memo.clock != 1 {
		t.Fatalf("clock after wrap = %d, want 1", eng.memo.clock)
	}
	for i, q := range eng.memo.quiet {
		if q != 0 {
			t.Fatalf("verdict %d survived the wrap", i)
		}
	}
	if dec, ok, skip := eng.Visit(1); skip || !ok || dec.Target != 3 {
		t.Fatalf("after wrap: dec=%+v ok=%v skipped=%v", dec, ok, skip)
	}
}

func TestVisitZeroAllocs(t *testing.T) {
	defer func(on bool) { checkSkips = on }(checkSkips)
	checkSkips = false // the check itself runs the kernel; measure the product path
	fx := newFixture(t, DefaultConfig())
	settle(t, fx.eng)
	vms := fx.cl.VMs()
	view := fx.eng.NewView()
	for _, u := range vms { // warm the peer and rank scratch, record view-side verdicts
		view.BestMigration(u)
		view.Visit(u)
	}
	i := 0
	if n := testing.AllocsPerRun(200, func() {
		if _, _, skip := fx.eng.Visit(vms[i%len(vms)]); !skip {
			t.Fatal("engine visit not skipped")
		}
		i++
	}); n != 0 {
		t.Errorf("skipped engine visit: %v allocs", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, _, skip := view.Visit(vms[i%len(vms)]); !skip {
			t.Fatal("view visit not skipped")
		}
		i++
	}); n != 0 {
		t.Errorf("skipped view visit: %v allocs", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		u := vms[i%len(vms)]
		fx.eng.memo.dirty(u)
		if _, _, skip := fx.eng.Visit(u); skip {
			t.Fatal("dirty engine visit skipped")
		}
		i++
	}); n != 0 {
		t.Errorf("evaluated engine visit: %v allocs", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		u := vms[i%len(vms)]
		fx.eng.memo.dirty(u)
		if _, _, skip := view.Visit(u); skip {
			t.Fatal("dirty view visit skipped")
		}
		i++
	}); n != 0 {
		t.Errorf("evaluated view visit: %v allocs", n)
	}
}

// TestViewVisitRounds drives view rounds the way a coordinator does —
// visit, stage, merge — with a random share of the staged commits
// rejected at merge, against a twin engine whose memo is inert. The
// differential check guards every skip; the twin guards the decisions.
func TestViewVisitRounds(t *testing.T) {
	fx, twin := newFixture(t, DefaultConfig()), newFixture(t, DefaultConfig())
	twin.eng.Detach()
	rng := rand.New(rand.NewSource(7))
	var view, tview *AllocView
	totalSkipped := 0
	for round := 0; round < 12; round++ {
		view, tview = fx.eng.ResetView(view), twin.eng.ResetView(tview)
		for _, u := range fx.cl.VMs() {
			dec, ok, skip := view.Visit(u)
			tdec, tok, tskip := tview.Visit(u)
			if tskip {
				t.Fatal("inert twin skipped a visit")
			}
			if skip {
				totalSkipped++
			}
			if ok != tok || dec != tdec {
				t.Fatalf("round %d VM %d: memo %+v/%v, kernel %+v/%v", round, u, dec, ok, tdec, tok)
			}
			if ok {
				if _, err := view.Commit(dec); err != nil {
					t.Fatal(err)
				}
				if _, err := tview.Commit(tdec); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, d := range view.Commits() {
			// A commit staged into room that a rejected one never freed
			// fails to apply — a rejection too, as in shard.MergeStaged.
			rejected := rng.Intn(3) == 0
			if !rejected {
				if _, err := fx.eng.Apply(d); err != nil {
					rejected = true
				} else if _, err := twin.eng.Apply(d); err != nil {
					t.Fatal(err)
				}
			}
			if rejected {
				fx.eng.Rejected(d)
			}
		}
		// Perturb between rounds so later rounds are not all-quiet.
		vms := fx.cl.VMs()
		a, b := vms[rng.Intn(len(vms))], vms[rng.Intn(len(vms))]
		r := 1 + 50*rng.Float64()
		fx.tm.Set(a, b, r)
		twin.tm.Set(a, b, r)
	}
	if totalSkipped == 0 {
		t.Fatal("no visit was ever skipped; the test exercised nothing")
	}
	if a, b := fx.eng.TotalCost(), twin.eng.TotalCost(); a != b {
		t.Fatalf("total cost diverged: %v vs %v", a, b)
	}
}

// TestRebuildTimingDoesNotChangeDecisions: an accounting rebuild gives
// the bits the folds gave, so forcing one at random points between visits
// changes neither what is decided nor what is skipped. The fixture's
// traffic is scaled until NIC admission refuses moves, so the decisions
// do hang on HostNetLoad.
func TestRebuildTimingDoesNotChangeDecisions(t *testing.T) {
	fx, twin := newFixture(t, DefaultConfig()), newFixture(t, DefaultConfig())
	for _, f := range []*fixture{fx, twin} {
		f.tm = f.tm.Scaled(20)
		f.eng.SetTraffic(f.tm)
	}
	rng := rand.New(rand.NewSource(11))
	vms := fx.cl.VMs()
	var skipped, moved, rebuilds, nicRefusals int
	for pass := 0; pass < 10; pass++ {
		for _, u := range vms {
			if rng.Intn(3) == 0 {
				fx.eng.acct.Invalidate()
				rebuilds++
			}
			dec, ok, skip := fx.eng.Visit(u)
			tdec, tok, tskip := twin.eng.Visit(u)
			if dec != tdec || ok != tok || skip != tskip {
				t.Fatalf("pass %d VM %d: disturbed %+v/%v/skip=%v, undisturbed %+v/%v/skip=%v", pass, u, dec, ok, skip, tdec, tok, tskip)
			}
			if skip {
				skipped++
				continue
			}
			for _, h := range fx.eng.live.k.refusals {
				if fx.cl.Fits(u, h) {
					nicRefusals++
				}
			}
			if ok {
				moved++
				for _, f := range []*fixture{fx, twin} {
					if _, err := f.eng.Apply(dec); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		for i := 0; i < 6; i++ {
			a, b, r := vms[rng.Intn(len(vms))], vms[rng.Intn(len(vms))], 120*rng.Float64()
			fx.tm.Set(a, b, r)
			twin.tm.Set(a, b, r)
		}
	}
	if skipped == 0 || moved == 0 || rebuilds == 0 || nicRefusals == 0 {
		t.Fatalf("exercised nothing: %d skips, %d moves, %d rebuilds, %d bandwidth refusals", skipped, moved, rebuilds, nicRefusals)
	}
	t.Logf("%d skips, %d moves, %d forced rebuilds, %d bandwidth refusals", skipped, moved, rebuilds, nicRefusals)
}
