package shard

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/score-dc/score/internal/cluster"
	"github.com/score-dc/score/internal/core"
)

// TestPatchedEqualsRefilled drives a coordinator with a generated stream
// of rounds under changing shard shapes, serial passes, API moves, admits
// (some regrowing the ID window), removals, re-specs, rate changes,
// Restores and bursts of moves that outrun the placement changelog.
// Rounds reset their views and rings by patching them from the changelog
// where they can (Partition.addPlaced, core.AllocView's reset), so after
// every round the rings must equal those of a partition built from
// scratch before it, and every view must have started the round with the
// cluster's table: it holds that table plus its own staged commits, for
// every ID of the window.
func TestPatchedEqualsRefilled(t *testing.T) {
	var w *world
	var rounds, commits, stale, cross, regrows, restores, bursts int
	round := func(step int) {
		t.Helper()
		want, err := NewPartition(w.eng.Topology(), w.cl, w.tuner.g, w.tuner.shards)
		if err != nil {
			t.Fatal(err)
		}
		base, alloc := w.cl.DenseAlloc()
		before := slices.Clone(alloc)
		r, err := w.coord.RunRound()
		if err != nil {
			t.Fatal(err)
		}
		part := w.coord.part
		if part.base != want.base || part.Shards() != want.Shards() {
			t.Fatalf("step %d: rings over base %d in %d shards, fresh partition base %d in %d",
				step, part.base, part.Shards(), want.base, want.Shards())
		}
		for s := range want.rings {
			if !slices.Equal(part.rings[s], want.rings[s]) {
				t.Fatalf("step %d: shard %d ring %v, fresh partition %v", step, s, part.VMs(s), want.VMs(s))
			}
		}
		for s, view := range w.coord.plane.views[:len(r.Shards)] {
			table := slices.Clone(before)
			for _, d := range view.Commits() {
				table[d.VM-base] = d.Target
			}
			commits += len(view.Commits())
			for i, h := range table {
				if got := view.HostOf(base + cluster.VMID(i)); got != h {
					t.Fatalf("step %d: view %d places VM %d on %d, the table at reset plus its commits on %d",
						step, s, base+cluster.VMID(i), got, h)
				}
			}
		}
		rounds++
		stale += r.StaleRejected
		cross += r.CrossApplied + r.CrossRejected
	}
	bind := func(eng *core.Engine, tuner *stepTuner) {
		t.Helper()
		w = &world{cl: eng.Cluster(), tm: eng.Traffic(), eng: eng, tuner: tuner}
		for _, vm := range w.cl.VMs() {
			w.next = max(w.next, vm+1)
		}
		var err error
		if w.coord, err = NewCoordinator(eng, Config{Tuner: tuner}); err != nil {
			t.Fatal(err)
		}
	}

	// A staged commit the merge rejects as stale stays in its view's
	// table until the view undoes it at the next reset.
	bind(staleInstance(t, core.DefaultConfig()), &stepTuner{shards: 2, g: ByRack})
	for step := -3; step < 0; step++ {
		round(step)
	}
	if stale == 0 {
		t.Fatal("the stale instance no longer rejects a staged commit")
	}

	bind(buildEngine(t, 8, 11, 10), &stepTuner{shards: 8})
	rng := rand.New(rand.NewSource(11))
	for step := 0; step < 1500; step++ {
		switch k := rng.Intn(20); {
		case k < 7:
			if k == 0 {
				w.tuner.shards, w.tuner.g = 1+rng.Intn(16), Granularity(rng.Intn(2))
			}
			round(step)
		case k < 15:
			w.step(byte(3+rng.Intn(7)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)))
		case k == 15:
			w.serialPass()
		case k == 16 && regrows < 8: // an admit past the window's end regrows it (doubles it)
			base, alloc := w.cl.DenseAlloc()
			id := base + cluster.VMID(len(alloc)+rng.Intn(4))
			if err := w.cl.AddVM(cluster.VM{ID: id, RAMMB: 256}); err != nil {
				t.Fatal(err)
			}
			if nb, na := w.cl.DenseAlloc(); nb == base && len(na) == len(alloc) {
				t.Fatalf("step %d: VM %d did not regrow the window", step, id)
			}
			w.next = max(w.next, id+1)
			for h := 0; h < w.cl.NumHosts(); h++ {
				if w.cl.Place(id, cluster.HostID(h)) == nil {
					break
				}
			}
			regrows++
		case k == 17:
			snap, vms := w.cl.Snapshot(), w.cl.VMs()
			for i := 0; i < len(vms)/8; i++ { // swaps keep every host's load
				a, b := vms[rng.Intn(len(vms))], vms[rng.Intn(len(vms))]
				if ra, _, _ := w.cl.Demand(a); ra == 1024 {
					if rb, _, _ := w.cl.Demand(b); rb == 1024 {
						snap[a], snap[b] = snap[b], snap[a]
					}
				}
			}
			if err := w.cl.Restore(snap); err != nil {
				t.Fatal(err)
			}
			restores++
		case k == 18 && rng.Intn(4) == 0: // more writes than the changelog serves
			vm := w.vm(byte(rng.Intn(256)))
			home := w.cl.HostOf(vm)
			for i := 0; home != cluster.NoHost && i < 1200; i++ {
				for h := 0; h < w.cl.NumHosts(); h++ {
					if to := cluster.HostID(h); to != home && w.cl.Move(vm, to) == nil {
						break
					}
				}
				_ = w.cl.Move(vm, home)
			}
			bursts++
		default:
			w.tm.Set(w.vm(byte(rng.Intn(256))), w.vm(byte(rng.Intn(256))), float64(1+rng.Intn(300)))
		}
	}
	copies := 0
	for _, v := range w.coord.plane.views {
		copies += v.Rebuilds()
	}
	t.Logf("%d rounds: %d staged commits, %d stale-rejected, %d cross-shard; %d regrows, %d Restores, %d bursts; views copied the table %d times",
		rounds, commits, stale, cross, regrows, restores, bursts, copies)
	if rounds < 300 || commits == 0 || stale == 0 || cross == 0 || regrows == 0 || restores == 0 || bursts == 0 {
		t.Fatal("the stream did not exercise every case")
	}
}

// TestConvergedRoundsPatch: a converged coordinator's quiet rounds
// rebuild nothing — no ring refill, no full copy of the placement table
// into a view — and each event the changelog cannot describe forces
// exactly one rebuild of what it invalidated: a Restore, an admit that
// regrows the ID window, and more placement writes between two rounds
// than the changelog serves cost the partition one refill and every
// view one copy; a reshape costs the new partition its one fill and no
// view anything.
func TestConvergedRoundsPatch(t *testing.T) {
	eng := buildEngine(t, 8, 3, 10)
	cl := eng.Cluster()
	tuner := &stepTuner{shards: 8, g: ByPod}
	coord, err := NewCoordinator(eng, Config{Tuner: tuner})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	run := func(what string) {
		t.Helper()
		if _, err := coord.RunRound(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	for r := 0; ; r++ {
		res, err := coord.RunRound()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Applied) == 0 {
			break
		}
		if r == 64 {
			t.Fatal("rounds did not converge")
		}
	}
	counts := func() (int, []int) {
		views := make([]int, len(coord.plane.views))
		for s, v := range coord.plane.views {
			views[s] = v.Rebuilds()
		}
		return coord.part.refills, views
	}
	// expect runs a round after event and checks the rebuilds it cost,
	// then that a quiet round after it costs none.
	expect := func(event string, refills, copies int) {
		t.Helper()
		part := coord.part
		r0, v0 := counts()
		run(event)
		if coord.part != part {
			r0 = 0 // a new partition starts unfilled
		}
		r1, v1 := counts()
		if r1-r0 != refills {
			t.Errorf("%s: %d ring refills, want %d", event, r1-r0, refills)
		}
		for s := range v0 {
			if v1[s]-v0[s] != copies {
				t.Errorf("%s: view %d copied the table %d times, want %d", event, s, v1[s]-v0[s], copies)
			}
		}
		r0, v0 = r1, v1
		run("quiet round after " + event)
		if r1, v1 := counts(); r1 != r0 || !slices.Equal(v1, v0) {
			t.Errorf("quiet round after %s: %d ring refills, view copies %v → %v", event, r1-r0, v0, v1)
		}
	}

	expect("nothing", 0, 0)
	expect("nothing, again", 0, 0)

	if err := cl.Restore(cl.Snapshot()); err != nil {
		t.Fatal(err)
	}
	expect("a Restore", 1, 1)

	base, _ := cl.DenseAlloc()
	if err := cl.AddVM(cluster.VM{ID: base - 1, RAMMB: 1024}); err != nil {
		t.Fatal(err)
	}
	if nb, _ := cl.DenseAlloc(); nb == base {
		t.Fatal("the admit did not regrow the window; step vacuous")
	}
	if err := cl.Place(base-1, cluster.HostID(cl.NumHosts()-1)); err != nil {
		t.Fatal(err)
	}
	expect("a regrowing admit", 1, 1)

	// A VM moved away and back: the placement ends as it began, but the
	// changelog serves at most 2,048 writes.
	bounce(t, cl, coord.part, coord.part.VMs(0)[0], 1025)
	expect("2,050 writes between rounds", 1, 1)

	tuner.shards = 4
	expect("a reshape to 4 pods", 1, 0)
}

// bounce moves vm to a host of another shard that fits it and back, n
// times: 2n placement writes that leave the placement as it was.
func bounce(tb testing.TB, cl *cluster.Cluster, part *Partition, vm cluster.VMID, n int) {
	tb.Helper()
	home := cl.HostOf(vm)
	for h := cl.NumHosts() - 1; h >= 0; h-- {
		to := cluster.HostID(h)
		if part.ShardOfHost(to) == part.ShardOfHost(home) || !cl.Fits(vm, to) {
			continue
		}
		for i := 0; i < n; i++ {
			if err := cl.Move(vm, to); err != nil {
				tb.Fatal(err)
			}
			if err := cl.Move(vm, home); err != nil {
				tb.Fatal(err)
			}
		}
		return
	}
	tb.Fatalf("no host outside VM %d's shard fits it", vm)
}

// moveLogWrites bounces fill the cluster's changelog to its size.
const moveLogWrites = 4096

// TestPatchZeroAllocs: patching the rings and the views from the
// changelog allocates nothing once the log has reached its size.
func TestPatchZeroAllocs(t *testing.T) {
	eng := buildEngine(t, 4, 5, 1)
	coord, err := NewCoordinator(eng, Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	cl := eng.Cluster()
	if _, err := coord.RunRound(); err != nil {
		t.Fatal(err)
	}
	part, views := coord.part, coord.plane.views
	vm := part.VMs(0)[0]
	bounce(t, cl, part, vm, moveLogWrites) // the log slides from here on
	patch := func() {
		bounce(t, cl, part, vm, 4)
		part.addPlaced(cl)
		for s := range views {
			views[s] = eng.ResetView(views[s])
		}
	}
	patch()
	refills, copies := part.refills, views[0].Rebuilds()
	if n := testing.AllocsPerRun(50, patch); n != 0 {
		t.Fatalf("patching rings and views allocates %v times per call, want 0", n)
	}
	if part.refills != refills || views[0].Rebuilds() != copies {
		t.Fatal("the rings or views were rebuilt, not patched")
	}
}

// BenchmarkQuietRoundReset is what a converged k=24 round pays before
// its rings start once 100 moves merged since the last: 24 views reset
// (each undoing its own commits and rewriting the 100 entries) and the
// 24 pod rings patched. Must read 0 allocs/op.
func BenchmarkQuietRoundReset(b *testing.B) {
	eng, coord := convergedK24(b)
	cl, part, views := eng.Cluster(), coord.part, coord.plane.views
	rng := rand.New(rand.NewSource(1))
	type move struct {
		vm       cluster.VMID
		from, to cluster.HostID
	}
	var moves []move
	for vms := cl.VMs(); len(moves) < 100; {
		vm := vms[rng.Intn(len(vms))]
		to := cluster.HostID(rng.Intn(cl.NumHosts()))
		if cl.HostOf(vm) != to && cl.Fits(vm, to) && !slices.ContainsFunc(moves, func(m move) bool { return m.vm == vm }) {
			moves = append(moves, move{vm, cl.HostOf(vm), to})
		}
	}
	bounce(b, cl, part, moves[0].vm, moveLogWrites)
	part.addPlaced(cl)
	for s := range views {
		views[s] = eng.ResetView(views[s])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for _, m := range moves {
			to := m.to
			if i%2 == 1 {
				to = m.from
			}
			if err := cl.Move(m.vm, to); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		for s := range views {
			views[s] = eng.ResetView(views[s])
		}
		part.addPlaced(cl)
	}
}
