package core

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"github.com/score-dc/score/internal/cluster"
)

// assertEngineIsFreshView: the engine decides through a view over the
// cluster's own placement table, a frozen view through the same table
// plus an overlay of its own, empty when fresh. The kernel is the same
// code, so what can differ is the state each reads — every engine
// decision method must equal a freshly built view's, bit for bit,
// whatever just happened to the cluster.
func assertEngineIsFreshView(t *testing.T, fx *fixture, when string) {
	t.Helper()
	v := fx.eng.NewView()
	ids := append(fx.cl.VMs(), 0, 1<<31) // plus IDs that may be unknown
	for _, u := range ids {
		if eh, vh := fx.eng.HostOf(u), v.HostOf(u); eh != vh {
			t.Fatalf("%s: HostOf(%d): engine %d, view %d", when, u, eh, vh)
		}
		if el, vl := fx.eng.VMLevel(u), v.VMLevel(u); el != vl {
			t.Fatalf("%s: VMLevel(%d): engine %d, view %d", when, u, el, vl)
		}
		for _, w := range ids {
			if el, vl := fx.eng.PairLevel(u, w), v.PairLevel(u, w); el != vl {
				t.Fatalf("%s: PairLevel(%d,%d): engine %d, view %d", when, u, w, el, vl)
			}
		}
		for h := cluster.HostID(-1); int(h) <= fx.cl.NumHosts(); h++ {
			if ed, vd := fx.eng.Delta(u, h), v.Delta(u, h); math.Float64bits(ed) != math.Float64bits(vd) {
				t.Fatalf("%s: Delta(%d→%d): engine %v, view %v", when, u, h, ed, vd)
			}
			if ea, va := fx.eng.Admissible(u, h), v.Admissible(u, h); ea != va {
				t.Fatalf("%s: Admissible(%d→%d): engine %v, view %v", when, u, h, ea, va)
			}
		}
		ed, eok := fx.eng.BestMigration(u)
		vd, vok := v.BestMigration(u)
		if eok != vok || ed != vd {
			t.Fatalf("%s: BestMigration(%d): engine %+v/%v, view %+v/%v", when, u, ed, eok, vd, vok)
		}
	}
	// Visit last: it records verdicts in the memo both sides share, so
	// whichever side goes second may skip — with the same answer.
	for i, u := range ids {
		var ed, vd Decision
		var eok, vok bool
		if i%2 == 0 {
			ed, eok, _ = fx.eng.Visit(u)
			vd, vok, _ = v.Visit(u)
		} else {
			vd, vok, _ = v.Visit(u)
			ed, eok, _ = fx.eng.Visit(u)
		}
		if eok != vok || ed != vd {
			t.Fatalf("%s: Visit(%d): engine %+v/%v, view %+v/%v", when, u, ed, eok, vd, vok)
		}
	}
}

// TestLiveViewTracksCluster walks the cluster through every kind of
// change that rewrites, regrows, re-bases or abandons its placement
// table and checks the engine against a fresh view after each.
func TestLiveViewTracksCluster(t *testing.T) {
	fx := newFixture(t, DefaultConfig())
	cl, eng := fx.cl, fx.eng
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	// place puts vm on the first host from h on that has room.
	place := func(vm cluster.VMID, h cluster.HostID) {
		t.Helper()
		for i := 0; i < cl.NumHosts(); i++ {
			if at := cluster.HostID((int(h) + i) % cl.NumHosts()); cl.Fits(vm, at) {
				must(cl.Place(vm, at))
				return
			}
		}
		t.Fatalf("no room for VM %d", vm)
	}
	tableAt := func() *cluster.HostID {
		_, alloc := cl.DenseAlloc()
		return &alloc[0]
	}
	vms := cl.VMs()
	last := vms[len(vms)-1]
	before := cl.Snapshot()
	assertEngineIsFreshView(t, fx, "initial")

	moved := 0
	for _, u := range vms {
		if dec, ok := eng.BestMigration(u); ok {
			_, err := eng.Apply(dec)
			must(err)
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("fixture offers no move")
	}
	assertEngineIsFreshView(t, fx, "move")

	must(cl.Remove(vms[3]))
	assertEngineIsFreshView(t, fx, "remove")

	must(cl.AddVM(cluster.VM{ID: vms[3], RAMMB: 256}))
	place(vms[3], 0)
	assertEngineIsFreshView(t, fx, "place")

	// An AddVM that reallocates the table between two engine calls: the
	// engine must not decide the second against the table it read for
	// the first. The moves after the growth are what a stale alias would
	// miss.
	u := vms[0]
	peer := fx.tm.NeighborEdges(u)[0].Peer
	target := cluster.HostID((int(cl.HostOf(u)) + 5) % cl.NumHosts())
	eng.Delta(u, target)
	old := tableAt()
	for i := 1; i <= 200; i++ {
		must(cl.AddVM(cluster.VM{ID: last + cluster.VMID(i), RAMMB: 1}))
	}
	if tableAt() == old {
		t.Fatal("200 new IDs did not reallocate the placement table")
	}
	place(last+1, cl.HostOf(u))
	fx.tm.Set(u, last+1, 40)
	if cl.Fits(peer, target) {
		must(cl.Move(peer, target))
	}
	if got, want := eng.Delta(u, target), eng.NewView().Delta(u, target); got != want {
		t.Fatalf("Delta after table growth: engine %v, fresh view %v", got, want)
	}
	assertEngineIsFreshView(t, fx, "AddVM growing the table")

	old = tableAt()
	must(cl.AddVM(cluster.VM{ID: 0, RAMMB: 1})) // below the window: re-bases it
	if base, _ := cl.DenseAlloc(); base != 0 || tableAt() == old {
		t.Fatalf("AddVM(0) left the table based at %d", base)
	}
	place(0, cl.HostOf(peer))
	fx.tm.Set(0, u, 25)
	assertEngineIsFreshView(t, fx, "AddVM re-basing the table")

	must(cl.Respec(vms[5], 2048, 0))
	assertEngineIsFreshView(t, fx, "Respec")

	for id := range cl.Snapshot() {
		if _, ok := before[id]; !ok {
			before[id] = cluster.NoHost
		}
	}
	must(cl.Restore(before))
	assertEngineIsFreshView(t, fx, "Restore")

	// An ID the cluster refuses changes nothing the engine reads.
	old = tableAt()
	if err := cl.AddVM(cluster.VM{ID: 1 << 30, RAMMB: 64}); !errors.Is(err, cluster.ErrIDOutsideWindow) || tableAt() != old {
		t.Fatalf("AddVM across a 2^30 ID gap: %v", err)
	}
	assertEngineIsFreshView(t, fx, "refused AddVM")
	must(cl.Remove(last + 1))
	assertEngineIsFreshView(t, fx, "remove from the grown table")

	eng.Detach()
	must(cl.Remove(0))
	assertEngineIsFreshView(t, fx, "Detach")
}

// TestViewCommitTracksEngineApply: a sequence of decisions staged in a
// view and then replayed through Engine.Apply must leave the engine at
// the same allocation and cost the view predicted, and the view's
// staged deltas must match what the engine realizes.
func TestViewCommitTracksEngineApply(t *testing.T) {
	fx := newFixture(t, DefaultConfig())
	v := fx.eng.NewView()
	staged := 0
	for _, u := range fx.cl.VMs() {
		dec, ok := v.BestMigration(u)
		if !ok {
			continue
		}
		if _, err := v.Commit(dec); err != nil {
			t.Fatalf("Commit: %v", err)
		}
		staged++
	}
	if staged == 0 {
		t.Fatal("no decisions staged; fixture not exercising the view")
	}
	for _, d := range v.Commits() {
		realized, err := fx.eng.Apply(d)
		if err != nil {
			t.Fatalf("replaying staged decision %+v: %v", d, err)
		}
		if math.Abs(realized-d.Delta) > 1e-9*(1+math.Abs(d.Delta)) {
			t.Fatalf("staged delta %v, engine realized %v", d.Delta, realized)
		}
	}
	for _, d := range v.Commits() {
		if got := fx.cl.HostOf(d.VM); got != d.Target {
			t.Fatalf("VM %d at host %d after replay, staged %d", d.VM, got, d.Target)
		}
	}
}

// TestCommitRealizesFreshDelta: Commit takes the ΔC of the decision the
// view's last BestMigration returned, when nothing was committed or reset
// since, and prices any other decision again; either way what it returns
// equals a fresh Delta under the view bit for bit. Each decision is
// committed right after its BestMigration, as a ring does; then again
// after a peer of the VM was moved next to its target, staged in the
// view or moved in the cluster before a reset, which changes its ΔC.
func TestCommitRealizesFreshDelta(t *testing.T) {
	fx := newFixture(t, DefaultConfig())
	commit := func(v *AllocView, d Decision) bool {
		t.Helper()
		want := v.Delta(d.VM, d.Target)
		got, err := v.Commit(d)
		if err != nil {
			return false
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Commit(%+v) realized %v, a fresh Delta %v", d, got, want)
		}
		return math.Float64bits(got) != math.Float64bits(d.Delta)
	}
	v := fx.eng.NewView()
	fresh := 0
	for _, u := range fx.cl.VMs() {
		if d, ok := v.BestMigration(u); ok {
			commit(v, d)
			fresh++
		}
	}
	// peerTo moves a peer of d.VM onto d.Target with move, which reports
	// whether it did.
	peerTo := func(d Decision, move func(p cluster.VMID) bool) bool {
		for _, ed := range fx.tm.NeighborEdges(d.VM) {
			if fx.cl.HostOf(ed.Peer) != d.Target && move(ed.Peer) {
				return true
			}
		}
		return false
	}
	staged, reset := 0, 0
	for _, u := range fx.cl.VMs() {
		v = fx.eng.ResetView(v)
		d, ok := v.BestMigration(u)
		if ok && peerTo(d, func(p cluster.VMID) bool {
			_, err := v.Commit(Decision{VM: p, Target: d.Target})
			return err == nil && len(v.Commits()) == 1
		}) && commit(v, d) {
			staged++
		}
		v = fx.eng.ResetView(v)
		d, ok = v.BestMigration(u)
		if ok && peerTo(d, func(p cluster.VMID) bool { return fx.cl.Move(p, d.Target) == nil }) {
			v = fx.eng.ResetView(v)
			if commit(v, d) {
				reset++
			}
		}
	}
	if fresh == 0 || staged == 0 || reset == 0 {
		t.Fatalf("%d fresh commits, %d re-priced after a staged peer move, %d after a reset: the fixture does not exercise all three", fresh, staged, reset)
	}
}

// TestViewCapacityIsolation: a view must refuse to stage more VMs onto
// a host than its remaining capacity allows, counting its own staged
// moves.
func TestViewCapacityIsolation(t *testing.T) {
	fx := newFixture(t, DefaultConfig())
	v := fx.eng.NewView()
	vms := fx.cl.VMs()
	// Find a host and fill its free slots through the view.
	var target cluster.HostID = cluster.NoHost
	for h := 0; h < fx.cl.NumHosts(); h++ {
		if fx.cl.FreeSlots(cluster.HostID(h)) >= 1 {
			target = cluster.HostID(h)
			break
		}
	}
	if target == cluster.NoHost {
		t.Fatal("no host with free capacity")
	}
	free := fx.cl.FreeSlots(target)
	staged := 0
	for _, u := range vms {
		if v.HostOf(u) == target {
			continue
		}
		if _, err := v.Commit(Decision{VM: u, Target: target}); err == nil {
			staged++
		}
		if staged == free {
			break
		}
	}
	if staged != free {
		t.Fatalf("staged %d moves onto host %d, want %d", staged, target, free)
	}
	for _, u := range vms {
		if v.HostOf(u) == target {
			continue
		}
		if _, err := v.Commit(Decision{VM: u, Target: target}); err == nil {
			t.Fatal("view overfilled a host past its slot capacity")
		}
		break
	}
	// The engine's real cluster must be untouched by staging.
	if got := fx.cl.FreeSlots(target); got != free {
		t.Fatalf("staging mutated the cluster: %d free slots, want %d", got, free)
	}
}

// TestViewsConcurrentReads: many views deciding concurrently over a
// frozen engine must be race-free (exercised under -race) and each
// reproduce the serial engine's decisions.
func TestViewsConcurrentReads(t *testing.T) {
	fx := newFixture(t, DefaultConfig())
	vms := fx.cl.VMs()
	type out struct {
		dec Decision
		ok  bool
	}
	want := make([]out, len(vms))
	for i, u := range vms {
		want[i].dec, want[i].ok = fx.eng.BestMigration(u)
	}
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	views := make([]*AllocView, workers)
	for w := range views {
		views[w] = fx.eng.NewView()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(v *AllocView) {
			defer wg.Done()
			for i, u := range vms {
				dec, ok := v.BestMigration(u)
				if ok != want[i].ok || dec != want[i].dec {
					errs <- "concurrent view diverged from serial engine"
					return
				}
			}
		}(views[w])
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

// TestResetViewUndoesOnlyItsOwn drives three frozen views with a
// generated stream of staged commits, merges of them, moves between
// rounds, admits that regrow the ID window and Restores. A reset undoes
// only what the view's own commits wrote, so after every reset each view
// must place every ID where the cluster does, hold no near mark, and
// report every host's room as a fresh view does; once warm, a reset and
// the commits before it allocate nothing.
func TestResetViewUndoesOnlyItsOwn(t *testing.T) {
	fx := newFixture(t, DefaultConfig())
	cl, eng := fx.cl, fx.eng
	rng := rand.New(rand.NewSource(39))
	views := []*AllocView{eng.NewView(), eng.NewView(), eng.NewView()}
	check := func(step int, v *AllocView) {
		t.Helper()
		base, alloc := cl.DenseAlloc()
		for id := base - 3; id < base+cluster.VMID(len(alloc))+70; id++ {
			if got, want := v.HostOf(id), cl.HostOf(id); got != want {
				t.Fatalf("step %d: reset view places VM %d on %d, the cluster on %d", step, id, got, want)
			}
		}
		if nb, near := v.Near(); nb != base || slices.ContainsFunc(near, func(w uint64) bool { return w != 0 }) {
			t.Fatalf("step %d: reset view keeps near marks (base %d, cluster's %d)", step, nb, base)
		}
		if len(v.Commits()) != 0 {
			t.Fatalf("step %d: reset view keeps %d commits", step, len(v.Commits()))
		}
		fresh, u := eng.NewView(), cl.VMs()[0]
		for h := 0; h < cl.NumHosts(); h++ {
			got, _, _ := v.probe(u, cluster.HostID(h))
			want, _, _ := fresh.probe(u, cluster.HostID(h))
			if got != want {
				t.Fatalf("step %d: reset view reports host %d as %+v, a fresh view as %+v", step, h, got, want)
			}
		}
	}
	stage := func(v *AllocView) {
		vms := cl.VMs()
		for n := rng.Intn(6); n > 0; n-- {
			u := vms[rng.Intn(len(vms))]
			d, ok := v.BestMigration(u)
			if !ok || rng.Intn(3) == 0 {
				d = Decision{VM: u, Target: cluster.HostID(rng.Intn(cl.NumHosts()))}
			}
			_, _ = v.Commit(d)
		}
	}
	var commits, merged, moves, regrows, restores int
	for step := 0; step < 400; step++ {
		for i := range views {
			views[i] = eng.ResetView(views[i])
			check(step, views[i])
		}
		for _, v := range views {
			stage(v)
			commits += len(v.Commits())
		}
		if rng.Intn(2) == 0 { // the merge phase: every view's commits, in view order
			for _, v := range views {
				for _, d := range v.Commits() {
					if _, err := eng.Apply(d); err == nil {
						merged++
					}
				}
			}
		}
		switch k := rng.Intn(8); {
		case k < 3:
			vms := cl.VMs()
			for n := rng.Intn(10); n > 0; n-- {
				if cl.Move(vms[rng.Intn(len(vms))], cluster.HostID(rng.Intn(cl.NumHosts()))) == nil {
					moves++
				}
			}
		case k == 3 && regrows < 4:
			base, alloc := cl.DenseAlloc()
			id := base + cluster.VMID(len(alloc)+rng.Intn(4))
			if err := cl.AddVM(cluster.VM{ID: id, RAMMB: 256}); err != nil {
				t.Fatal(err)
			}
			if nb, na := cl.DenseAlloc(); nb == base && len(na) == len(alloc) {
				t.Fatalf("step %d: VM %d did not regrow the window", step, id)
			}
			for h := 0; h < cl.NumHosts() && cl.Place(id, cluster.HostID(h)) != nil; h++ {
			}
			regrows++
		case k == 4:
			if err := cl.Restore(cl.Snapshot()); err != nil {
				t.Fatal(err)
			}
			restores++
		}
	}
	t.Logf("%d staged commits, %d merged; %d moves, %d regrows, %d Restores", commits, merged, moves, regrows, restores)
	if commits == 0 || merged == 0 || moves == 0 || regrows == 0 || restores == 0 {
		t.Fatal("the stream did not exercise every case")
	}

	v := eng.ResetView(views[0])
	var staged []Decision
	for _, u := range cl.VMs() {
		if d, ok := v.BestMigration(u); ok {
			if _, err := v.Commit(d); err == nil {
				staged = append(staged, d)
			}
		}
	}
	if len(staged) == 0 {
		t.Fatal("no commit to stage; allocation check vacuous")
	}
	cycle := func() {
		v = eng.ResetView(v)
		for _, d := range staged {
			if _, err := v.Commit(d); err != nil {
				t.Fatal(err)
			}
		}
	}
	cycle()
	if n := testing.AllocsPerRun(50, cycle); n != 0 {
		t.Fatalf("a warm reset with its commits allocates %v times, want 0", n)
	}
}
