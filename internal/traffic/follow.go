package traffic

import "github.com/score-dc/score/internal/cluster"

// Follower keeps a consumer's sum over communicating pairs current while
// the matrix's rates change and the cluster's VMs move. It is the one
// implementation of that protocol; the engine's cost accounting, the
// planner's summary and the link loads each supply only add, which folds
// delta — a pair's rate, or a change of it — into the sum for the pair
// (a, b) with a on host ha and b on hb (either may be cluster.NoHost),
// and reset, which empties the sum.
//
// The follower is passive: it reads the matrix's changelog and the
// cluster's placement changelog (cluster.MovesSince) on Sync, and every
// read of a followed sum syncs first. Sync folds what changed since the
// last one in two phases. First every rate change, at its endpoints'
// hosts as of the last sync (a moved VM's is the From of its first write
// since). Then every pair of a VM whose host differs from that one, once
// per pair: −rate at the endpoints' last-sync hosts, +rate at their
// current ones. Every sum of rates is exact, so neither the order of
// those adds nor batching them can change a bit, and a fold equals a
// rebuild. A rebuild — reset, then one add per pair at the endpoints'
// current hosts — replaces the fold when either changelog refuses (it
// was outrun, or the cluster was Restored), after Invalidate or
// Retarget, on the first Sync, and when more placement writes than a
// quarter of the registered VMs landed since the last one: the fold adds
// twice at each end of a moved VM's edges, about 4 × writes ÷ VMs adds
// per pair, where the rebuild adds once.
//
// A Follower is not safe for concurrent use.
type Follower struct {
	m     *Matrix
	cl    *cluster.Cluster
	reset func()
	add   func(a, b cluster.VMID, ha, hb cluster.HostID, delta float64)

	// gen and mgen are the matrix and placement generations folded in;
	// valid is false when the next Sync must rebuild.
	gen, mgen uint64
	valid     bool
	rebuilds  int

	// Sync scratch: was[vm-wasBase] is where a VM the placement log names
	// sat at the last sync, unmoved for the others; movers lists the VMs
	// whose host differs from it.
	wasBase cluster.VMID
	was     []cluster.HostID
	movers  []cluster.VMID
}

// unmoved marks a was entry that holds no host.
const unmoved = cluster.NoHost - 1

// Follow returns a follower of (m, cl) that keeps the consumer's sum
// through reset and add. The sum is built on the first Sync.
func Follow(m *Matrix, cl *cluster.Cluster, reset func(), add func(a, b cluster.VMID, ha, hb cluster.HostID, delta float64)) *Follower {
	return &Follower{m: m, cl: cl, reset: reset, add: add}
}

// Sync brings the sum up to date with the matrix and the placement.
func (f *Follower) Sync() {
	if f.valid && f.fold() {
		return
	}
	f.reset()
	f.m.ForEachPair(func(a, b cluster.VMID, rate float64) {
		f.add(a, b, f.cl.HostOf(a), f.cl.HostOf(b), rate)
	})
	f.gen, f.mgen, f.valid = f.m.Generation(), f.cl.MoveGeneration(), true
	f.rebuilds++
}

// Invalidate makes the next Sync rebuild.
func (f *Follower) Invalidate() { f.valid = false }

// Retarget follows m instead of the current matrix from the next Sync on.
func (f *Follower) Retarget(m *Matrix) {
	f.m = m
	f.valid = false
}

// Current reports whether the sum holds the matrix's rates as they stand:
// it was built, nothing invalidated or retargeted it since, and no rate
// changed since the last Sync. Placement writes are the caller's to check
// (cluster.MoveGeneration); the sum follows them on the next Sync.
func (f *Follower) Current() bool { return f.valid && f.gen == f.m.Generation() }

// Rebuilds reports how many times Sync rebuilt the sum from every pair.
func (f *Follower) Rebuilds() int { return f.rebuilds }

// fold folds both changelogs since the last sync; false when either
// refuses or a rebuild costs less.
func (f *Follower) fold() bool {
	gen, mgen := f.m.Generation(), f.cl.MoveGeneration()
	if gen == f.gen && mgen == f.mgen {
		return true
	}
	changes, ok := f.m.ChangesSince(f.gen)
	if !ok {
		return false
	}
	moves, ok := f.cl.MovesSince(f.mgen)
	if !ok || 4*len(moves) > f.cl.NumVMs() {
		return false
	}
	f.note(moves)
	for _, ch := range changes {
		f.add(ch.A, ch.B, f.wasOn(ch.A, f.cl.HostOf(ch.A)), f.wasOn(ch.B, f.cl.HostOf(ch.B)), ch.New-ch.Old)
	}
	for _, u := range f.movers {
		hu := f.cl.HostOf(u)
		hu0 := f.wasOn(u, hu)
		for _, ed := range f.m.NeighborEdges(u) {
			z := ed.Peer
			hz := f.cl.HostOf(z)
			hz0 := f.wasOn(z, hz)
			if z < u && hz0 != hz {
				continue // a mover too: folded from z's row
			}
			f.add(u, z, hu0, hz0, -ed.Rate)
			f.add(u, z, hu, hz, ed.Rate)
		}
	}
	for _, ch := range moves {
		f.was[ch.VM-f.wasBase] = unmoved
	}
	f.gen, f.mgen = gen, mgen
	return true
}

// note records, for every VM moves names, the host it sat on at the last
// sync, and lists in movers those that sit elsewhere now. was covers the
// IDs moves names: it is re-based and grown here, never shrunk.
func (f *Follower) note(moves []cluster.AllocChange) {
	f.movers = f.movers[:0]
	if len(moves) == 0 {
		return
	}
	lo, hi := moves[0].VM, moves[0].VM
	for _, ch := range moves {
		lo, hi = min(lo, ch.VM), max(hi, ch.VM)
	}
	n := int(hi-lo) + 1
	if cap(f.was) < n {
		f.was = make([]cluster.HostID, n)
		for i := range f.was {
			f.was[i] = unmoved
		}
	}
	f.wasBase, f.was = lo, f.was[:cap(f.was)]
	for _, ch := range moves {
		if i := ch.VM - lo; f.was[i] == unmoved {
			f.was[i] = ch.From
			f.movers = append(f.movers, ch.VM)
		}
	}
	kept := f.movers[:0]
	for _, u := range f.movers {
		if f.was[u-lo] != f.cl.HostOf(u) {
			kept = append(kept, u)
		}
	}
	f.movers = kept
}

// wasOn returns where vm, on host now, sat at the last sync; valid
// during a fold.
func (f *Follower) wasOn(vm cluster.VMID, now cluster.HostID) cluster.HostID {
	if i := int64(vm) - int64(f.wasBase); uint64(i) < uint64(len(f.was)) && f.was[i] != unmoved {
		return f.was[i]
	}
	return now
}
