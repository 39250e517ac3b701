package traffic

import (
	"math"
	"math/rand"
	"testing"

	"github.com/score-dc/score/internal/cluster"
)

// hostSums is the brute-force consumer: the summed rate per host pair,
// cluster.NoHost included.
type hostSums map[[2]cluster.HostID]float64

func (s hostSums) add(_, _ cluster.VMID, ha, hb cluster.HostID, delta float64) {
	s[[2]cluster.HostID{min(ha, hb), max(ha, hb)}] += delta
}

// scratchSums sums every pair of m from scratch at the current hosts.
func scratchSums(m *Matrix, cl *cluster.Cluster) hostSums {
	s := hostSums{}
	pairs, rates := m.Pairs()
	for i, p := range pairs {
		s.add(p.A, p.B, cl.HostOf(p.A), cl.HostOf(p.B), rates[i])
	}
	return s
}

func sameSums(t *testing.T, step int, got, want hostSums) {
	t.Helper()
	for k, w := range want {
		if g := got[k]; math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("step %d: hosts %v carry %v folded, %v from scratch", step, k, g, w)
		}
	}
	for k, g := range got {
		if math.Float64bits(g) != math.Float64bits(want[k]) {
			t.Fatalf("step %d: hosts %v carry %v folded, %v from scratch", step, k, g, want[k])
		}
	}
}

// TestFollowerEqualsScratchUnderStream drives a follower with a generated
// stream of rate changes (Set, Add, ClearVM, Compact), placement changes
// (Place, Move, Remove, Respec, Restore) and follower calls (Retarget,
// Invalidate, a fresh Follow), including bursts that outrun either
// changelog between two syncs and moves on top of unfolded rate changes
// to the mover's own pairs. After every Sync the folded sums equal a
// from-scratch sum bit for bit.
func TestFollowerEqualsScratchUnderStream(t *testing.T) {
	const hosts, ids = 12, 48
	cl, err := cluster.New(cluster.UniformHosts(hosts, ids, 1<<20, 0))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	randVM := func() cluster.VMID { return cluster.VMID(1 + rng.Intn(ids)) }
	randHost := func() cluster.HostID { return cluster.HostID(rng.Intn(hosts)) }
	rate := func() float64 { return 0.001 + 50*rng.Float64() }
	for id := cluster.VMID(1); id <= ids; id++ {
		if err := cl.AddVM(cluster.VM{ID: id, RAMMB: 1}); err != nil {
			t.Fatal(err)
		}
		if id%6 != 0 { // a few stay unplaced
			if err := cl.Place(id, randHost()); err != nil {
				t.Fatal(err)
			}
		}
	}
	mats := [2]*Matrix{NewMatrix(), NewMatrix()}
	cur := 0

	got := hostSums{}
	f := Follow(mats[cur], cl, func() { clear(got) }, got.add)
	var syncs, overruns, refollows, moveOverruns int
	sync := func(step int) {
		t.Helper()
		f.Sync()
		syncs++
		sameSums(t, step, got, scratchSums(mats[cur], cl))
	}
	for step := 0; step < 6000; step++ {
		m := mats[cur]
		switch op := rng.Intn(27); {
		case op < 5:
			m.Set(randVM(), randVM(), rate())
		case op < 7:
			m.Add(randVM(), randVM(), rate())
		case op == 7:
			m.Set(randVM(), randVM(), 0)
		case op == 8:
			m.ClearVM(randVM())
		case op == 9:
			m.Compact()
		case op == 10: // the mover's own pair changed and is not folded yet
			vm := randVM()
			m.Set(vm, randVM(), rate())
			_ = cl.Move(vm, randHost())
		case op == 11:
			_ = cl.Move(randVM(), randHost())
		case op == 12: // place, registering a removed VM again first
			vm := randVM()
			if _, _, ok := cl.Demand(vm); !ok {
				if err := cl.AddVM(cluster.VM{ID: vm, RAMMB: 1}); err != nil {
					t.Fatal(err)
				}
			}
			_ = cl.Place(vm, randHost())
		case op == 13:
			_ = cl.Remove(randVM())
		case op == 14:
			snap := cl.Snapshot()
			for vm := range snap {
				if rng.Intn(4) == 0 {
					snap[vm] = randHost()
				}
			}
			if err := cl.Restore(snap); err != nil {
				t.Fatal(err)
			}
		case op == 15: // the matrix not followed changes
			mats[1-cur].Set(randVM(), randVM(), rate())
		case op == 16:
			cur = 1 - cur
			f.Retarget(mats[cur])
		case op == 17:
			f.Invalidate()
		case op == 18 && rng.Intn(10) == 0: // outrun the changelog, a move amid it
			overruns++
			before := f.Rebuilds()
			// A move amid the burst: the matrix's window must slide past
			// the last sync before the next one.
			for i := 0; i < changeLogCap/2+2*changeLogCap; i++ {
				m.Set(randVM(), randVM(), rate())
				if i == changeLogCap/2 {
					_ = cl.Move(randVM(), randHost())
				}
			}
			sync(step)
			if f.Rebuilds() != before+1 {
				t.Fatalf("step %d: an outrun changelog folded instead of rebuilding", step)
			}
		case op == 19 && rng.Intn(10) == 0: // drop the follower, then follow afresh
			refollows++
			f.Sync()
			m.Set(randVM(), randVM(), rate())
			_ = cl.Move(randVM(), randHost())
			sync(step)
			f = Follow(mats[cur], cl, func() { clear(got) }, got.add)
		case op == 20: // both endpoints of a pair move between two syncs
			f.Sync()
			a, b := randVM(), randVM()
			m.Set(a, b, rate())
			_ = cl.Move(a, randHost())
			_ = cl.Move(b, randHost())
			sync(step)
		case op == 21: // a VM moves twice, another away and back
			f.Sync()
			vm := randVM()
			_ = cl.Move(vm, randHost())
			m.Set(vm, randVM(), rate())
			_ = cl.Move(vm, randHost())
			back := randVM()
			if from := cl.HostOf(back); from != cluster.NoHost {
				_ = cl.Move(back, (from+1)%hosts)
				m.Set(back, randVM(), rate())
				_ = cl.Move(back, from)
			}
			sync(step)
		case op == 22: // Remove, re-AddVM and Place of one ID
			f.Sync()
			vm := randVM()
			_ = cl.Remove(vm)
			m.Set(vm, randVM(), rate())
			if err := cl.AddVM(cluster.VM{ID: vm, RAMMB: 1}); err != nil {
				t.Fatal(err)
			}
			_ = cl.Place(vm, randHost())
			sync(step)
		case op == 23: // ClearVM after Remove, with or without a Sync between
			f.Sync()
			vm := randVM()
			_ = cl.Remove(vm)
			if rng.Intn(2) == 0 {
				sync(step)
			}
			m.ClearVM(vm)
			sync(step)
		case op == 24: // re-specs, placed and unplaced, amid a move
			f.Sync()
			_ = cl.Respec(randVM(), 1+rng.Intn(3), 0)
			_ = cl.Move(randVM(), randHost())
			_ = cl.Respec(randVM(), 1+rng.Intn(3), 0)
			sync(step)
		case op == 25 && rng.Intn(10) == 0: // more placement writes than the log reaches
			moveOverruns++
			f.Sync()
			before, gen := f.Rebuilds(), cl.MoveGeneration()
			for cl.MoveGeneration()-gen <= hosts*ids { // the plant's VM slots
				_ = cl.Move(randVM(), randHost())
			}
			sync(step)
			if f.Rebuilds() != before+1 {
				t.Fatalf("step %d: an outrun placement log folded instead of rebuilding", step)
			}
		case op == 26: // a Restore between moves and rate changes
			f.Sync()
			_ = cl.Move(randVM(), randHost())
			m.Set(randVM(), randVM(), rate())
			snap := cl.Snapshot()
			for vm := range snap {
				if rng.Intn(4) == 0 {
					snap[vm] = randHost()
				}
			}
			if err := cl.Restore(snap); err != nil {
				t.Fatal(err)
			}
			_ = cl.Move(randVM(), randHost())
			sync(step)
		}
		if rng.Intn(4) == 0 {
			sync(step)
		}
	}
	sync(-1)
	if overruns == 0 || refollows == 0 || moveOverruns == 0 {
		t.Fatalf("stream had %d overruns, %d placement-log overruns and %d fresh follows; it exercised too little", overruns, moveOverruns, refollows)
	}
	t.Logf("%d syncs, %d overruns, %d placement-log overruns, %d fresh follows", syncs, overruns, moveOverruns, refollows)
}

// TestFollowerZeroAllocs: folding a batch of rate changes and shifting a
// move allocate nothing once the matrix and the cluster are warm.
func TestFollowerZeroAllocs(t *testing.T) {
	cl, err := cluster.New(cluster.UniformHosts(4, 16, 1<<20, 0))
	if err != nil {
		t.Fatal(err)
	}
	m := NewMatrix()
	for id := cluster.VMID(1); id <= 16; id++ {
		if err := cl.AddVM(cluster.VM{ID: id, RAMMB: 1}); err != nil {
			t.Fatal(err)
		}
		if err := cl.Place(id, cluster.HostID(id%4)); err != nil {
			t.Fatal(err)
		}
		m.Set(id, id%16+1, float64(id))
	}
	load := make([]float64, 4)
	f := Follow(m, cl, func() { clear(load) }, func(_, _ cluster.VMID, ha, hb cluster.HostID, delta float64) {
		if ha != hb && ha != cluster.NoHost && hb != cluster.NoHost {
			load[ha] += delta
			load[hb] += delta
		}
	})
	set := func(i int) { m.Set(cluster.VMID(i%16+1), cluster.VMID((i+1)%16+1), float64(1+i%5)) }
	for i := 0; i <= changeLogCap; i++ { // the changelog reaches its full capacity
		set(i)
	}
	f.Sync()
	i := 0
	if a := testing.AllocsPerRun(100, func() {
		for j := 0; j < 32; j++ {
			set(i)
			i++
		}
		f.Sync()
	}); a != 0 {
		t.Fatalf("Sync after a batch of Sets: %v allocs", a)
	}
	to := cluster.HostID(0)
	if a := testing.AllocsPerRun(100, func() {
		to = (to + 1) % 4
		if err := cl.Move(3, to); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Fatalf("Move: %v allocs", a)
	}
	if f.Rebuilds() != 1 {
		t.Fatalf("%d rebuilds; the folds fell back", f.Rebuilds())
	}
}
