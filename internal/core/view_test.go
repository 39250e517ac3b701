package core

import (
	"errors"
	"math"
	"sync"
	"testing"

	"github.com/score-dc/score/internal/cluster"
)

// assertEngineIsFreshView: the engine decides through a view over the
// cluster's own placement table, a frozen view through a copy of it. The
// kernel is the same code, so what can differ is the state each reads —
// every engine decision method must equal a freshly built view's, bit for
// bit, whatever just happened to the cluster.
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
