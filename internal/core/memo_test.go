package core

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
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
func visitPass(t testing.TB, eng *Engine) (skipped int, applied []Decision) {
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
func settle(t testing.TB, eng *Engine) {
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
	// Relaxing a blocking host ticks the clock over the edge when the
	// move is folded.
	if err := cl.Move(5, 4); err != nil {
		t.Fatal(err)
	}
	eng.memoSync()
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

	// A view with a staged commit skips through the near marks, and a
	// reset reuses their storage.
	staged, quiet := stagedQuietView(t, fx)
	if n := testing.AllocsPerRun(200, func() {
		if _, _, skip := staged.Visit(quiet[i%len(quiet)]); !skip {
			t.Fatal("staged view visit not skipped")
		}
		i++
	}); n != 0 {
		t.Errorf("skipped visit after a staged commit: %v allocs", n)
	}
	if n := testing.AllocsPerRun(20, func() { fx.eng.ResetView(staged) }); n != 0 {
		t.Errorf("ResetView of a warmed view: %v allocs", n)
	}
}

// stagedQuietView returns a fresh view over fx's settled engine with one
// commit staged, and the VMs it still skips after the commit.
func stagedQuietView(tb testing.TB, fx *fixture) (*AllocView, []cluster.VMID) {
	tb.Helper()
	vms := fx.cl.VMs()
	v := fx.eng.NewView()
	for h := 0; len(v.Commits()) == 0 && h < fx.cl.NumHosts(); h++ {
		v.Commit(Decision{VM: vms[0], Target: cluster.HostID(h)})
	}
	var quiet []cluster.VMID
	for _, u := range vms {
		if _, _, skip := v.Visit(u); skip {
			quiet = append(quiet, u)
		}
	}
	if len(v.Commits()) == 0 || len(quiet) == 0 {
		tb.Fatalf("%d commits staged, %d visits skipped after them", len(v.Commits()), len(quiet))
	}
	return v, quiet
}

// BenchmarkViewVisitStagedSkip is a quiet visit in a view that has
// staged a commit — what a ring pays per quiet holder after its first
// move. Must read 0 allocs/op (TestVisitZeroAllocs is the hard gate).
func BenchmarkViewVisitStagedSkip(b *testing.B) {
	defer func(on bool) { checkSkips = on }(checkSkips)
	checkSkips = false
	fx := newFixture(b, DefaultConfig())
	settle(b, fx.eng)
	v, quiet := stagedQuietView(b, fx)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Visit(quiet[i%len(quiet)])
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

// rowWalkQuiet is stillQuiet without the near marks: every skip of a view
// with staged commits walks u's row and compares each peer's overlay host
// with the cluster's — the reference the marks must equal.
func rowWalkQuiet(v *AllocView, u cluster.VMID, q uint32, refused bool) bool {
	staged := len(v.commits) > 0
	if !staged && !refused {
		return true
	}
	e := v.eng
	if staged && v.HostOf(u) != e.cl.HostOf(u) {
		return false
	}
	for _, ed := range e.tm.NeighborEdges(u) {
		hz := e.cl.HostOf(ed.Peer)
		if staged && v.HostOf(ed.Peer) != hz {
			return false
		}
		if refused && hz != cluster.NoHost {
			r := e.kern.rackSlot(hz)
			if e.memo.relaxed[r] > q || (staged && v.touched[r] == v.touchEpoch) {
				return false
			}
		}
	}
	return true
}

// TestNearMarksEqualRowWalk: the skip test that reads the near marks
// answers what the full row walk answers, for every VM, refused verdict
// or not, after every commit of random rounds — a VM committed out and
// back, self-moves, commits whose peers lie outside the placement table,
// and ResetView between rounds included.
func TestNearMarksEqualRowWalk(t *testing.T) {
	fx := newFixture(t, DefaultConfig())
	eng, cl, tm := fx.eng, fx.cl, fx.tm
	vms := cl.VMs()
	// far lies outside the placement table and has no bit; it is a peer
	// of vms[0].
	far := vms[len(vms)-1] + 1000
	if base, alloc := cl.DenseAlloc(); int(far-base) < len(alloc) {
		t.Fatalf("VM %d lies inside the placement table", far)
	}
	tm.Set(vms[0], far, 9)
	ids := append(slices.Clone(vms), far, 0)

	rng := rand.New(rand.NewSource(3))
	var view *AllocView
	var checks, nearSkips, farSkips int
	compare := func(when string) {
		t.Helper()
		for _, u := range ids {
			for _, q := range []uint32{1, view.stamp} {
				for _, refused := range []bool{false, true} {
					got, want := view.stillQuiet(u, q, refused), rowWalkQuiet(view, u, q, refused)
					if got != want {
						t.Fatalf("%s: stillQuiet(%d, q=%d, refused=%v) = %v, row walk %v", when, u, q, refused, got, want)
					}
					checks++
					if got && len(view.commits) > 0 && !refused {
						if view.marked(u) {
							nearSkips++
						} else {
							farSkips++
						}
					}
				}
			}
		}
	}
	unmarked := func(when string) {
		t.Helper()
		for i, w := range view.near {
			if w != 0 {
				t.Fatalf("%s: near word %d = %#x, want no marks", when, i, w)
			}
		}
	}
	for round := 0; round < 6; round++ {
		view = eng.ResetView(view)
		unmarked(fmt.Sprintf("round %d reset", round))
		compare(fmt.Sprintf("round %d reset", round))

		// Self-moves stage nothing and mark nothing.
		for _, u := range vms[:8] {
			if _, err := view.Commit(Decision{VM: u, Target: view.HostOf(u)}); err != nil {
				t.Fatal(err)
			}
		}
		if len(view.commits) != 0 {
			t.Fatalf("round %d: self-moves staged %d commits", round, len(view.commits))
		}
		unmarked(fmt.Sprintf("round %d self-moves", round))

		// Out and back: the mover and its peers stay marked, and the walk
		// confirms what the overlay no longer shows.
		u := vms[rng.Intn(len(vms))]
		home := view.HostOf(u)
		for h := 0; h < cl.NumHosts(); h++ {
			if cluster.HostID(h) == home {
				continue
			}
			if _, err := view.Commit(Decision{VM: u, Target: cluster.HostID(h)}); err == nil {
				break
			}
		}
		compare(fmt.Sprintf("round %d VM %d out", round, u))
		if _, err := view.Commit(Decision{VM: u, Target: home}); err != nil {
			t.Fatal(err)
		}
		if !view.marked(u) || view.HostOf(u) != cl.HostOf(u) {
			t.Fatalf("round %d: VM %d back home unmarked or misplaced", round, u)
		}
		compare(fmt.Sprintf("round %d VM %d back", round, u))

		// Visits record verdicts (refusals, blocking hosts) as a ring would.
		// Their moves are staged, and random ones: every third VM, and
		// every other round vms[0], whose peer lies outside the table.
		for i, u := range vms {
			dec, ok, _ := view.Visit(u)
			if !ok && i%3 == 0 {
				dec, ok = Decision{VM: u, Target: cluster.HostID(rng.Intn(cl.NumHosts()))}, true
			}
			if round%2 == 0 && i == 0 {
				dec, ok = Decision{VM: u, Target: cluster.HostID(rng.Intn(cl.NumHosts()))}, true
			}
			if !ok {
				continue
			}
			if _, err := view.Commit(dec); err == nil {
				compare(fmt.Sprintf("round %d commit of VM %d", round, u))
			}
		}
		// Merge some of it so the next round starts elsewhere, with hosts
		// relaxed; the rest is rejected, as a merge would.
		for _, d := range view.Commits() {
			if rng.Intn(2) == 0 {
				if _, err := eng.Apply(d); err == nil {
					continue
				}
			}
			eng.Rejected(d)
		}
	}
	if nearSkips == 0 || farSkips == 0 {
		t.Fatalf("%d comparisons: %d near skips, %d unmarked skips in staged views; the marks were not exercised", checks, nearSkips, farSkips)
	}
	t.Logf("%d comparisons: %d near skips, %d unmarked skips in staged views", checks, nearSkips, farSkips)
}

// TestMemoSurvivesChangelogWrap: a memo that folds the changelog between
// every pass keeps its verdicts however often the log (4,096 entries)
// fills — a pass after a 512-change batch on one pair re-evaluates that
// pair's VMs (and those a relaxed host blocked), never every VM.
func TestMemoSurvivesChangelogWrap(t *testing.T) {
	fx := newFixture(t, DefaultConfig())
	eng, tm := fx.eng, fx.tm
	vms, n := fx.cl.VMs(), fx.cl.NumVMs()
	a, b := vms[0], vms[len(vms)-1]
	r := tm.Rate(a, b)
	batch := func(size int) {
		for i := 0; i < size; i++ {
			tm.Set(a, b, r+float64(1+i%2))
		}
	}
	// Half a batch first, so the log fills in the middle of a batch.
	start := tm.Generation()
	batch(256)
	settle(t, eng)
	for pass := 0; tm.Generation()-start <= 2*4096+512; pass++ {
		batch(512)
		skipped, _ := visitPass(t, eng)
		if skipped == 0 {
			t.Fatalf("pass %d after %d changes evaluated all %d VMs", pass, tm.Generation()-start, n)
		}
	}
}

// checkSettledBits holds the memo's settled bitmap to its definition: bit
// i is set exactly when entry i has a verdict without a refusal. It
// returns how many entries are settled and how many refused.
func checkSettledBits(t *testing.T, when string, m *visitMemo) (settled, refused int) {
	t.Helper()
	if len(m.settled) != (len(m.quiet)+63)/64 {
		t.Fatalf("%s: %d settled words over %d entries", when, len(m.settled), len(m.quiet))
	}
	for i, q := range m.quiet {
		want := q != 0 && !m.refused[i]
		if got := m.settled[i/64].Load()&(1<<(i%64)) != 0; got != want {
			t.Fatalf("%s: entry %d settled=%v, quiet=%d refused=%v", when, i, got, q, m.refused[i])
		}
		if want {
			settled++
		} else if q != 0 {
			refused++
		}
	}
	for w := len(m.quiet); w < 64*len(m.settled); w++ {
		if m.settled[w/64].Load()&(1<<(w%64)) != 0 {
			t.Fatalf("%s: bit %d past the table is set", when, w)
		}
	}
	return settled, refused
}

// TestSettledBitsMatchVerdicts drives the memo through every event of its
// invalidation contract — moves, edge changes, re-specs, staged commits
// merged or stale-rejected, Restore, an admit that regrows the ID window
// and its removal, a clock wrap — and checks after each that the settled
// bits equal the verdicts, and, after every staged commit, that a VM the
// view's Unsettled word passes over is one stillQuiet confirms.
func TestSettledBitsMatchVerdicts(t *testing.T) {
	fx := newFixture(t, DefaultConfig())
	eng, cl, tm := fx.eng, fx.cl, fx.tm
	m := &eng.memo
	rng := rand.New(rand.NewSource(13))
	var view *AllocView
	var settledSeen, refusedSeen, passedOver int
	check := func(when string) {
		t.Helper()
		s, r := checkSettledBits(t, when, m)
		settledSeen += s
		refusedSeen += r
	}
	// walkCheck asserts, for every tracked VM the view's words pass over,
	// that stillQuiet would have skipped it.
	walkCheck := func(when string) {
		t.Helper()
		for i, q := range m.quiet {
			if view.unsettled(m.base, i/64)&(1<<(i%64)) != 0 {
				continue
			}
			u := m.base + cluster.VMID(i)
			if q == 0 || !view.stillQuiet(u, q, m.refused[i]) {
				t.Fatalf("%s: VM %d passed over but not quiet (q=%d refused=%v near=%v)", when, u, q, m.refused[i], view.marked(u))
			}
			passedOver++
		}
	}
	randVM := func() cluster.VMID {
		vms := cl.VMs()
		return vms[rng.Intn(len(vms))]
	}
	var extra cluster.VMID
	for step := 0; step < 120; step++ {
		var what string
		switch op := rng.Intn(9); op {
		case 0:
			what = "move"
			u := randVM()
			for h := rng.Intn(cl.NumHosts()); h < cl.NumHosts(); h++ {
				if cl.Fits(u, cluster.HostID(h)) && cl.HostOf(u) != cluster.HostID(h) {
					if err := cl.Move(u, cluster.HostID(h)); err != nil {
						t.Fatal(err)
					}
					break
				}
			}
		case 1:
			what = "edge change"
			tm.Set(randVM(), randVM(), 1+60*rng.Float64())
		case 2:
			what = "re-spec"
			if err := cl.Respec(randVM(), 256+256*rng.Intn(3), 0); err != nil {
				t.Fatal(err)
			}
		case 3:
			what = "restore"
			if err := cl.Restore(cl.Snapshot()); err != nil {
				t.Fatal(err)
			}
		case 4:
			what = "clock wrap"
			m.clock = math.MaxUint32
			m.tick()
		case 5:
			if extra != 0 {
				what = "remove"
				tm.ClearVM(extra)
				if err := cl.Remove(extra); err != nil {
					t.Fatal(err)
				}
				extra = 0
				break
			}
			what = "admit past the window"
			base, alloc := cl.DenseAlloc()
			extra = base + cluster.VMID(len(alloc))
			if err := cl.AddVM(cluster.VM{ID: extra, RAMMB: 64}); err != nil {
				t.Fatal(err)
			}
			if nb, na := cl.DenseAlloc(); nb == base && len(na) == len(alloc) {
				t.Fatalf("VM %d did not regrow the window", extra)
			}
			for h := 0; h < cl.NumHosts(); h++ {
				if cl.Fits(extra, cluster.HostID(h)) {
					if err := cl.Place(extra, cluster.HostID(h)); err != nil {
						t.Fatal(err)
					}
					break
				}
			}
			tm.Set(extra, randVM(), 20)
		default:
			// A round: a view visits every VM in ID order and stages what
			// it finds; the merge applies some and rejects the rest.
			what = "round"
			view = eng.ResetView(view)
			check(fmt.Sprintf("step %d reset", step))
			for _, u := range cl.VMs() {
				dec, ok, _ := view.Visit(u)
				if !ok {
					continue
				}
				if _, err := view.Commit(dec); err == nil {
					walkCheck(fmt.Sprintf("step %d commit of VM %d", step, u))
				}
			}
			check(fmt.Sprintf("step %d ring", step))
			for _, d := range view.Commits() {
				if rng.Intn(3) > 0 {
					if _, err := eng.Apply(d); err == nil {
						continue
					}
				}
				eng.Rejected(d)
			}
		}
		check(fmt.Sprintf("step %d %s", step, what))
		// Serial visits record verdicts between events.
		for i := 0; i < 24; i++ {
			eng.Visit(randVM())
		}
		check(fmt.Sprintf("step %d %s, visits after", step, what))
	}
	if settledSeen == 0 || refusedSeen == 0 || passedOver == 0 {
		t.Fatalf("exercised too little: %d settled, %d refused verdicts seen, %d VMs passed over after commits", settledSeen, refusedSeen, passedOver)
	}
	t.Logf("%d settled, %d refused verdicts seen; %d VMs passed over after commits", settledSeen, refusedSeen, passedOver)
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
