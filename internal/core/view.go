package core

import (
	"fmt"

	"github.com/score-dc/score/internal/cluster"
)

// AllocView is the placement half of the decision rule, evaluated against
// one placement: the cluster's, plus the moves staged in the view. It
// answers where a peer sits (HostOf) and whether a host admits a VM
// (Admissible), runs the token visit and its memo, and decides through a
// Kernel of its own — the half that needs no placement. The rule is the
// same whatever state it reads; only the state differs:
//
//   - A frozen view (NewView/ResetView) decides against a private copy of
//     the placement table and stages moves into it with Commit. Many
//     frozen views can evaluate and stage concurrently — the building
//     block of the sharded token scheduler (internal/shard), where each
//     shard's ring commits intra-shard moves into its own view lock-free.
//   - The engine's live view has an empty overlay and reads the cluster's
//     own table; every Engine decision method is a call on it.
//
// A decision locates the holder's neighbors once, as the paper's token
// holder does (Section V-B4's location request), then costs one
// Kernel.Score per peer host and one per walked rack (Kernel.Best).
//
// Contract for frozen views: between NewView and the last use of any
// view, the cluster, the traffic matrix and the engine itself must not
// be mutated (no Move/Place/Restore, no Set/Add, no engine reads that
// trigger accounting rebuilds). The coordinator enforces this by
// splitting rounds into a concurrent decision phase (views only) and a
// sequential merge phase (engine only).
type AllocView struct {
	eng *Engine
	// live marks the engine's own view: the per-host net loads are not
	// frozen under it, so the capacity probe brings the accounting up to
	// date first (see probe). Nothing else in the kernel asks.
	live bool

	// Placement and overlay. dense is the placement table HostOf reads,
	// dense[id-denseBase], over the cluster's ID window: a frozen view's
	// private copy of the cluster's table with the staged moves written
	// in, or — live view — the cluster's table itself, read-only.
	// slotD/ramD/cpuD/netD are the capacity and NIC-load deltas the staged
	// moves imply (all zero in the live view).
	denseBase cluster.VMID
	dense     []cluster.HostID
	slotD     []int32
	ramD      []int32
	cpuD      []int32
	netD      []float64
	commits   []Decision

	// denseGen is the cluster's placement generation a frozen view's table
	// was last brought up to, valid once denseOK (see syncAlloc); rebuilds
	// counts the table's full copies.
	denseGen uint64
	denseOK  bool
	rebuilds int

	// k is the view's kernel: the engine's level tables, scratch reused
	// across this view's decisions.
	k Kernel

	// Visit state (see visitMemo): stamp is the engine's memo clock as of
	// the view's last sync — frozen at reset, or the live view's current
	// one; touched[r] == touchEpoch marks rack r as rewritten by one of
	// this view's staged commits; near is a bitmap over the placement
	// table's window marking every VM this view moved and every peer of
	// one (see stillQuiet).
	stamp      uint32
	touched    []uint32
	touchEpoch uint32
	near       []uint64
}

// NewView creates a frozen decision view over the engine's current
// state. It primes the engine's incremental accounting so concurrent
// views can read the per-host net loads without synchronization; create
// views sequentially, then use them concurrently.
func (e *Engine) NewView() *AllocView { return e.ResetView(nil) }

// ResetView re-primes an existing frozen view for a fresh decision
// phase, reusing its buffers: the overlay deltas are zeroed, staged
// commits dropped, and the placement table brought up to the cluster's
// (syncAlloc). A reset view is indistinguishable from a new one — round
// loops keep per-shard views alive across rounds and pay O(hosts) stores
// plus one per staged commit and per placement write since the last
// reset, instead of O(hosts + |V|) fresh allocations each round. A nil
// or foreign view is replaced by a new one.
func (e *Engine) ResetView(v *AllocView) *AllocView {
	if v == nil || v.eng != e {
		v = &AllocView{eng: e, k: *e.kern.Clone()}
	}
	e.acct.Sync()
	v.sizeScratch()
	v.syncAlloc()
	v.commits = v.commits[:0]
	v.primeMemo()
	if n := (len(v.dense) + 63) / 64; cap(v.near) < n {
		v.near = make([]uint64, n)
	} else {
		v.near = v.near[:n]
		clear(v.near)
	}
	return v
}

// syncAlloc makes the view's table equal the cluster's. When the
// cluster's changelog (MovesSince) covers the writes since the last sync
// (which implies the same ID window), it rewrites only the entries the
// view's staged commits and those writes touched, from the cluster's
// table; otherwise it copies the whole table.
func (v *AllocView) syncAlloc() {
	cl := v.eng.cl
	if v.denseOK {
		if moves, ok := cl.MovesSince(v.denseGen); ok {
			base, alloc := cl.DenseAlloc()
			for _, d := range v.commits {
				v.dense[d.VM-base] = alloc[d.VM-base]
			}
			for _, m := range moves {
				v.dense[m.VM-base] = alloc[m.VM-base]
			}
			v.denseGen = cl.MoveGeneration()
			return
		}
	}
	v.denseBase, v.dense = cl.DenseAllocSnapshotInto(v.dense)
	v.denseGen, v.denseOK = cl.MoveGeneration(), true
	v.rebuilds++
}

// Rebuilds reports how many resets copied the whole placement table
// rather than patching it (syncAlloc).
func (v *AllocView) Rebuilds() int { return v.rebuilds }

// sizeScratch sizes the per-host overlay deltas, zeroing them.
func (v *AllocView) sizeScratch() {
	n := v.eng.cl.NumHosts()
	if len(v.slotD) != n {
		v.slotD = make([]int32, n)
		v.ramD = make([]int32, n)
		v.cpuD = make([]int32, n)
		v.netD = make([]float64, n)
	} else {
		clear(v.slotD)
		clear(v.ramD)
		clear(v.cpuD)
		clear(v.netD)
	}
}

// HostOf returns where the view places vm: its staged position if this
// view moved it, otherwise the cluster's allocation. The table covers
// every registered VM (the cluster's own invariant), so an ID outside it
// is unknown. This is all the kernel's per-edge loops pay — it must stay
// within the inliner's budget (CI checks).
func (v *AllocView) HostOf(vm cluster.VMID) cluster.HostID {
	// VMID arithmetic wraps, so an ID below the base lands past any
	// table a 32-bit ID space can hold.
	if uint(vm-v.denseBase) < uint(len(v.dense)) {
		return v.dense[vm-v.denseBase]
	}
	return cluster.NoHost
}

// Commits returns the decisions staged so far, in commit order. The
// slice is owned by the view.
func (v *AllocView) Commits() []Decision { return v.commits }

// Near returns the view's near marks: bit i of words[i/64] is set for VM
// base+i when one of the view's staged commits moved it or a peer of it
// (Commit). The words are owned by the view, valid until its next reset.
func (v *AllocView) Near() (base cluster.VMID, words []uint64) { return v.denseBase, v.near }

// PairLevel returns ℓ^A(u, w) under the view's allocation.
func (v *AllocView) PairLevel(u, w cluster.VMID) int {
	return v.eng.levelOrDepth(v.HostOf(u), v.HostOf(w))
}

// VMLevel returns ℓ^A(u) = max_{w∈Vu} ℓ^A(u, w), the highest
// communication level of VM u (Section II); 0 for VMs with no traffic.
func (v *AllocView) VMLevel(u cluster.VMID) int {
	e := v.eng
	max := 0
	hu := v.HostOf(u)
	for _, ed := range e.tm.NeighborEdges(u) {
		if l := e.levelOrDepth(hu, v.HostOf(ed.Peer)); l > max {
			max = l
			if max == e.depth {
				break
			}
		}
	}
	return max
}

// resolve locates the neighbors of u, placed on cur, for one decision:
// a single pass over u's row feeds the kernel each placed peer, in row
// order.
func (v *AllocView) resolve(u cluster.VMID, cur cluster.HostID) {
	k := &v.k
	k.Begin(cur)
	for _, ed := range v.eng.tm.NeighborEdges(u) {
		if hz := v.HostOf(ed.Peer); hz != cluster.NoHost {
			k.Peer(hz, ed.Rate)
		}
	}
}

// Delta returns ΔC for migrating u to target (Eq. 5, Kernel.Score),
// computed purely from u's local knowledge: its neighbors, their rates,
// and the levels before and after the move: the guards, one resolve of u
// and one score of target. It performs no allocation.
func (v *AllocView) Delta(u cluster.VMID, target cluster.HostID) float64 {
	cur := v.HostOf(u)
	if cur == target || cur == cluster.NoHost || !v.k.Covers(target) {
		return 0
	}
	v.resolve(u, cur)
	return v.k.Score(target)
}

// Room is a host as Section V-B5's capacity response reports it, after
// the asking plane's staged moves: free slots, RAM and CPU, its CPU and
// NIC capacity (zero: unconstrained), and its NIC load.
type Room struct {
	Slots, RAMMB, CPUMilli, CPUCap int
	NICMbps, NICLoad               float64
}

// Need is what a VM asks of a target: its demand, its rate, and its rate
// to the peers on the target. Without rates it asks for capacity alone.
type Need struct {
	RAMMB, CPUMilli int
	Rate, Internal  float64
}

// Shift is the target's NIC-load change when the VM arrives: its rate,
// less its traffic with the peers there, which stops crossing the NIC at
// both ends. Leaving a host shifts it by −Shift with the peers there.
func (n Need) Shift() float64 { return n.Rate - 2*n.Internal }

// Admit is the admission rule of every plane: a free slot, the VM's RAM
// and, on a host with CPU capacity, its CPU; on a host with NIC capacity,
// a projected NIC load under 90 % of it ("the next best choice with
// adequate bandwidth will be considered", Section V-C) or, on an
// already-hot NIC, no higher than now — co-locating a heavy pair lowers
// both NICs' load, and refusing it would freeze an overloaded cluster.
func Admit(r Room, n Need) bool {
	if r.Slots < 1 || r.RAMMB < n.RAMMB || (r.CPUCap > 0 && r.CPUMilli < n.CPUMilli) {
		return false
	}
	if r.NICMbps <= 0 {
		return true
	}
	projected, limit := r.NICLoad+n.Shift(), 0.9*r.NICMbps
	if r.NICLoad > limit {
		return projected <= r.NICLoad
	}
	return projected <= limit
}

// probe is target's capacity response under the view, staged moves
// folded in (the live view brings the NIC loads up to date first), and
// u's demand; ok is false for an unregistered VM or an unknown host.
func (v *AllocView) probe(u cluster.VMID, target cluster.HostID) (r Room, n Need, ok bool) {
	e := v.eng
	n.RAMMB, n.CPUMilli, ok = e.cl.Demand(u)
	if !ok || target < 0 || int(target) >= e.cl.NumHosts() {
		return r, n, false
	}
	if v.live {
		e.acct.Sync()
	}
	host, _ := e.cl.Host(target)
	return Room{
		Slots:    e.cl.FreeSlots(target) - int(v.slotD[target]),
		RAMMB:    e.cl.FreeRAMMB(target) - int(v.ramD[target]),
		CPUMilli: e.cl.FreeCPUMilli(target) - int(v.cpuD[target]),
		CPUCap:   host.CPUMilli, NICMbps: host.NICMbps,
		NICLoad: e.hostNet[target] + v.netD[target],
	}, n, true
}

// Admissible reports whether target admits u (Admit), with u's peers
// where the view places them. A VM is admissible on its own host.
func (v *AllocView) Admissible(u cluster.VMID, target cluster.HostID) bool {
	r, n, ok := v.probe(u, target)
	if !ok || v.HostOf(u) == target {
		return ok
	}
	for _, ed := range v.eng.tm.NeighborEdges(u) {
		n.Rate += ed.Rate
		if v.HostOf(ed.Peer) == target {
			n.Internal += ed.Rate
		}
	}
	return Admit(r, n)
}

// BestMigration evaluates the S-CORE migration policy for token-holder u
// (Kernel.Best): u's neighbors are resolved once, and the kernel asks
// Admissible of the candidates that could become the answer.
//
// BestMigration is the pure kernel: it always evaluates in full and
// writes nothing but the view's own scratch (the refusing hosts stay in
// the kernel for Visit). Round drivers call Visit.
func (v *AllocView) BestMigration(u cluster.VMID) (Decision, bool) {
	cur := v.HostOf(u)
	if cur == cluster.NoHost {
		v.k.refusals = v.k.refusals[:0]
		return Decision{}, false
	}
	v.resolve(u, cur)
	return v.k.Best(u, v)
}

// Commit stages a decision in the view: the VM is recorded at its new
// host and the capacity and NIC-load deltas are folded, so subsequent
// decisions in this view see the move. The underlying cluster is not
// touched; the caller replays Commits against the engine in a
// sequential merge phase. Returns the ΔC realized under the view.
func (v *AllocView) Commit(d Decision) (float64, error) {
	if d.Target == cluster.NoHost {
		return 0, fmt.Errorf("core: view commit has no target")
	}
	cur := v.HostOf(d.VM)
	if cur == cluster.NoHost {
		return 0, fmt.Errorf("core: view commit of unplaced VM %d", d.VM)
	}
	if cur == d.Target {
		return 0, nil
	}
	// Staging checks capacity alone: a decision's NIC verdict was
	// Admissible's.
	r, n, ok := v.probe(d.VM, d.Target)
	if !ok || !Admit(r, n) {
		return 0, fmt.Errorf("core: view commit of VM %d: %w", d.VM, cluster.ErrNoCapacity)
	}
	realized := v.Delta(d.VM, d.Target)
	v.slotD[cur]--
	v.slotD[d.Target]++
	v.ramD[cur] -= int32(n.RAMMB)
	v.ramD[d.Target] += int32(n.RAMMB)
	v.cpuD[cur] -= int32(n.CPUMilli)
	v.cpuD[d.Target] += int32(n.CPUMilli)
	// Every host whose room or NIC load this commit rewrites is touched,
	// and the mover and its peers are marked, for Visit (see stillQuiet).
	// The NIC-load deltas are folded before the overlay records the move
	// so peers' positions are read consistently.
	v.touch(cur)
	v.touch(d.Target)
	v.mark(d.VM)
	for _, ed := range v.eng.tm.NeighborEdges(d.VM) {
		hz := v.HostOf(ed.Peer)
		v.touch(hz)
		v.mark(ed.Peer)
		foldNICLoad(v.netD, cur, d.Target, hz, ed.Rate)
	}
	v.dense[d.VM-v.denseBase] = d.Target // placed, so inside the table
	v.commits = append(v.commits, Decision{VM: d.VM, From: cur, Target: d.Target, Delta: realized})
	return realized, nil
}
