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
// Rate changes are folded on Sync, from the changelog, at the endpoints'
// current hosts. Moves are folded as they happen, from the cluster's
// allocation observer: first the pending rate changes, with the moving
// VM pinned at its pre-move host (they happened while it sat there),
// then the VM's row, −rate at the old host and +rate at the new one.
// Every sum of rates is exact, so the order of those adds cannot change
// a bit and a fold equals a rebuild. A rebuild — reset, then one add per
// pair at the endpoints' current hosts — replaces the fold when the
// changelog window was outrun, after a Restore, after Invalidate or
// Retarget, and on every Sync once detached, when moves no longer arrive.
//
// A Follower is not safe for concurrent use: its observer runs on the
// goroutine that moves VMs.
type Follower struct {
	m     *Matrix
	cl    *cluster.Cluster
	reset func()
	add   func(a, b cluster.VMID, ha, hb cluster.HostID, delta float64)

	// gen is the matrix generation folded in; valid is false when the next
	// Sync must rebuild.
	gen       uint64
	valid     bool
	rebuilds  int
	unobserve func() // nil once detached
}

// Follow registers a follower of (m, cl) that keeps the consumer's sum
// through reset and add. The sum is built on the first Sync.
func Follow(m *Matrix, cl *cluster.Cluster, reset func(), add func(a, b cluster.VMID, ha, hb cluster.HostID, delta float64)) *Follower {
	f := &Follower{m: m, cl: cl, reset: reset, add: add}
	f.unobserve = cl.Observe(f.moved, f.Invalidate)
	return f
}

// Sync brings the sum up to date with the matrix and the placement.
func (f *Follower) Sync() {
	// Pinning VM 0 where it sits pins nothing.
	if f.valid && f.unobserve != nil && f.fold(0, f.cl.HostOf(0)) {
		return
	}
	f.reset()
	f.m.ForEachPair(func(a, b cluster.VMID, rate float64) {
		f.add(a, b, f.cl.HostOf(a), f.cl.HostOf(b), rate)
	})
	f.gen, f.valid = f.m.Generation(), true
	f.rebuilds++
}

// Invalidate makes the next Sync rebuild; the cluster calls it on Restore.
func (f *Follower) Invalidate() { f.valid = false }

// Retarget follows m instead of the current matrix from the next Sync on.
func (f *Follower) Retarget(m *Matrix) {
	f.m = m
	f.valid = false
}

// Detach unregisters the follower's observer. A detached follower stays
// usable: it rebuilds on every Sync. Detach is idempotent.
func (f *Follower) Detach() {
	if f.unobserve != nil {
		f.unobserve()
		f.unobserve = nil
	}
}

// Rebuilds reports how many times Sync rebuilt the sum from every pair.
func (f *Follower) Rebuilds() int { return f.rebuilds }

// fold adds the changes since gen at the endpoints' hosts, reading pin at
// at; false when the changelog window was outrun.
func (f *Follower) fold(pin cluster.VMID, at cluster.HostID) bool {
	changes, ok := f.m.ChangesSince(f.gen)
	if !ok {
		return false
	}
	for _, ch := range changes {
		ha, hb := f.cl.HostOf(ch.A), f.cl.HostOf(ch.B)
		if ch.A == pin {
			ha = at
		} else if ch.B == pin {
			hb = at
		}
		f.add(ch.A, ch.B, ha, hb, ch.New-ch.Old)
	}
	f.gen = f.m.Generation()
	return true
}

// moved is the allocation observer: vm went from → to (either may be
// NoHost), and the cluster already holds the new placement.
func (f *Follower) moved(vm cluster.VMID, from, to cluster.HostID) {
	if !f.valid {
		return // the next Sync rebuilds at the new placement
	}
	if !f.fold(vm, from) {
		f.valid = false
		return
	}
	for _, ed := range f.m.NeighborEdges(vm) {
		hz := f.cl.HostOf(ed.Peer)
		f.add(vm, ed.Peer, from, hz, -ed.Rate)
		f.add(vm, ed.Peer, to, hz, ed.Rate)
	}
}
