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
// Rounds patch their rings from the changelog where they can
// (Partition.addPlaced), so after every round the rings must equal those
// of a partition built from scratch before it. A view reset undoes only
// the view's own staged commits, so during every decision phase — after
// the rings ran, before the merge — every view must read the cluster's
// table at reset plus its own staged commits, for every ID of the window.
func TestPatchedEqualsRefilled(t *testing.T) {
	var w *world
	var rounds, commits, stale, cross, regrows, restores, bursts int
	round := func(step int) {
		t.Helper()
		want, err := NewPartition(w.eng.Topology(), w.cl, w.tuner.g, w.tuner.shards)
		if err != nil {
			t.Fatal(err)
		}
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
		w.coord.Driver.plane = viewCheck{w.coord.plane, t, &commits}
	}

	// A staged commit the merge rejects as stale stays in its view's
	// overlay until the view undoes it at the next reset.
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
	t.Logf("%d rounds: %d staged commits, %d stale-rejected, %d cross-shard; %d regrows, %d Restores, %d bursts",
		rounds, commits, stale, cross, regrows, restores, bursts)
	if rounds < 300 || commits == 0 || stale == 0 || cross == 0 || regrows == 0 || restores == 0 || bursts == 0 {
		t.Fatal("the stream did not exercise every case")
	}
}

// TestConvergedRoundsPatch: a converged coordinator's quiet rounds
// refill no ring, and each event the changelog cannot describe forces
// exactly one refill: a Restore, an admit that regrows the ID window, and
// more placement writes between two rounds than the changelog serves
// cost the partition one refill; a reshape costs the new partition its
// one fill.
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
	// expect runs a round after event and checks the refills it cost,
	// then that a quiet round after it costs none.
	expect := func(event string, refills int) {
		t.Helper()
		part := coord.part
		r0 := coord.part.refills
		run(event)
		if coord.part != part {
			r0 = 0 // a new partition starts unfilled
		}
		r1 := coord.part.refills
		if r1-r0 != refills {
			t.Errorf("%s: %d ring refills, want %d", event, r1-r0, refills)
		}
		run("quiet round after " + event)
		if r2 := coord.part.refills; r2 != r1 {
			t.Errorf("quiet round after %s: %d ring refills", event, r2-r1)
		}
	}

	expect("nothing", 0)
	expect("nothing, again", 0)

	if err := cl.Restore(cl.Snapshot()); err != nil {
		t.Fatal(err)
	}
	expect("a Restore", 1)

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
	expect("a regrowing admit", 1)

	// A VM moved away and back: the placement ends as it began, but the
	// changelog serves at most 2,048 writes.
	bounce(t, cl, coord.part, coord.part.VMs(0)[0], 1025)
	expect("2,050 writes between rounds", 1)

	tuner.shards = 4
	expect("a reshape to 4 pods", 1)
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

// TestPatchZeroAllocs: patching the rings from the changelog and
// resetting the views allocates nothing once the log has reached its
// size.
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
	refills := part.refills
	if n := testing.AllocsPerRun(50, patch); n != 0 {
		t.Fatalf("patching rings and resetting views allocates %v times per call, want 0", n)
	}
	if part.refills != refills {
		t.Fatal("the rings were rebuilt, not patched")
	}
}

// BenchmarkQuietRoundReset is what a converged k=24 round pays before
// its rings start once 100 moves merged since the last: 24 views reset
// (each undoing only its own commits; none here) and the 24 pod rings
// patched. Must read 0 allocs/op.
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

// viewCheck is the in-process plane with a check of its views after the
// rings ran, before the merge — the decision phase: every view places
// every ID of the window where the cluster's table did when the round
// began, or where the view's own commits put it. It counts the commits.
type viewCheck struct {
	*enginePlane
	t       *testing.T
	commits *int
}

func (p viewCheck) Run(r *Round, part *Partition, mg *Merge) ([]Ring, error) {
	base, alloc := p.eng.Cluster().DenseAlloc()
	before := slices.Clone(alloc)
	rings, err := p.enginePlane.Run(r, part, mg)
	for s, view := range p.views[:len(rings)] {
		table := slices.Clone(before)
		for _, d := range view.Commits() {
			table[d.VM-base] = d.Target
		}
		*p.commits += len(view.Commits())
		for i, h := range table {
			if got := view.HostOf(base + cluster.VMID(i)); got != h {
				p.t.Fatalf("round %d: view %d places VM %d on %d, the table at reset plus its commits on %d",
					r.Number, s, base+cluster.VMID(i), got, h)
			}
		}
	}
	return rings, err
}

// BenchmarkRackShardReset is what a converged round of the restored
// daemon's shape pays before its rings start — k=16, 30 VMs per host, 128
// rack shards — once 250 moves merged since the last: every view staged
// its share of them (intra-rack, so committed), the merge applied them,
// and the 128 views reset (each undoing only its own commits) and the 128
// rack rings patched. Must read 0 allocs/op.
func BenchmarkRackShardReset(b *testing.B) {
	eng, coord := packedFatTree(b, 16, Config{Shards: 128, Granularity: ByRack})
	converge(b, coord)
	cl, part, views := eng.Cluster(), coord.part, coord.plane.views
	if part.Shards() != 128 {
		b.Fatalf("%d rack shards, want 128", part.Shards())
	}
	rng := rand.New(rand.NewSource(1))
	type move struct {
		vm       cluster.VMID
		from, to cluster.HostID
	}
	var moves []move
	for vms := cl.VMs(); len(moves) < 250; {
		vm := vms[rng.Intn(len(vms))]
		from := cl.HostOf(vm)
		mates := eng.Topology().HostsInRack(eng.Topology().RackOf(from))
		to := mates[rng.Intn(len(mates))]
		if to != from && cl.Fits(vm, to) && !slices.ContainsFunc(moves, func(m move) bool { return m.vm == vm }) {
			moves = append(moves, move{vm, from, to})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for _, m := range moves {
			from, to := m.from, m.to
			if i%2 == 1 {
				from, to = to, from
			}
			if _, err := views[part.ShardOfHost(from)].Commit(core.Decision{VM: m.vm, Target: to}); err != nil {
				b.Fatal(err)
			}
		}
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
