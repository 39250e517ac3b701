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
// Kernel.Score per peer host and one per expanded rack (Kernel.Best).
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
	// frozen under it, so the NIC probe brings the accounting up to date
	// first (see hostNetLoad). Nothing else in the kernel asks.
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

	// k is the view's kernel: the engine's level tables, scratch reused
	// across this view's decisions.
	k Kernel

	// Visit state (see visitMemo): stamp is the engine's memo clock as of
	// the view's last sync — frozen at reset, or the live view's current
	// one; touched[r] == touchEpoch marks rack r as rewritten by one of
	// this view's staged commits.
	stamp      uint32
	touched    []uint32
	touchEpoch uint32
}

// NewView creates a frozen decision view over the engine's current
// state. It primes the engine's incremental accounting so concurrent
// views can read the per-host net loads without synchronization; create
// views sequentially, then use them concurrently.
func (e *Engine) NewView() *AllocView { return e.ResetView(nil) }

// ResetView re-primes an existing frozen view for a fresh decision
// phase, reusing its buffers: the overlay deltas are zeroed, staged
// commits dropped, and the placement table re-copied in place. A reset
// view is indistinguishable from a new one — round loops keep per-shard
// views alive across rounds and pay O(hosts + |V|) stores instead of
// O(hosts + |V|) fresh allocations each round. A nil or foreign view is
// replaced by a new one.
func (e *Engine) ResetView(v *AllocView) *AllocView {
	if v == nil || v.eng != e {
		v = &AllocView{eng: e, k: *e.kern.Clone()}
	}
	e.ensureAccounting()
	v.sizeScratch()
	v.commits = v.commits[:0]
	v.primeMemo()
	v.denseBase, v.dense = e.cl.DenseAllocSnapshotInto(v.dense)
	return v
}

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

// fits reports whether u can be admitted to target under slot, RAM and
// CPU capacity (cluster.Fits) less the view's staged occupancy. A VM
// always fits on the host it already occupies.
func (v *AllocView) fits(u cluster.VMID, target cluster.HostID) bool {
	e := v.eng
	ram, cpu, ok := e.cl.Demand(u)
	if !ok || target < 0 || int(target) >= e.cl.NumHosts() {
		return false
	}
	if v.HostOf(u) == target {
		return true
	}
	if e.cl.FreeSlots(target)-int(v.slotD[target]) < 1 {
		return false
	}
	if e.cl.FreeRAMMB(target)-int(v.ramD[target]) < ram {
		return false
	}
	// A host with zero CPU capacity is unconstrained and reports a
	// sentinel free value the staged delta must not be subtracted from.
	if host, _ := e.cl.Host(target); host.CPUMilli > 0 && e.cl.FreeCPUMilli(target)-int(v.cpuD[target]) < cpu {
		return false
	}
	return true
}

// hostNetLoad is the view's external traffic on h: the engine's per-host
// load plus this view's staged deltas. A frozen view reads loads primed
// when it was reset; the live view brings the accounting up to date
// here, on reaching the NIC probe — a detached engine rebuilds on every
// read, which Delta, never getting this far, must not pay.
func (v *AllocView) hostNetLoad(h cluster.HostID) float64 {
	e := v.eng
	if h < 0 || int(h) >= len(e.hostNet) {
		return 0
	}
	if v.live {
		e.ensureAccounting()
	}
	return e.hostNet[h] + v.netD[h]
}

// Admissible reports whether target can accept u: free slot, enough RAM
// and CPU (the capacity-response fields of Section V-B5), the configured
// admission hook and, when a bandwidth threshold is configured, enough
// NIC headroom after accounting for the traffic that becomes
// host-internal (Section V-C). A non-nil Config.Admission hook must be
// safe for concurrent use when views run in parallel.
func (v *AllocView) Admissible(u cluster.VMID, target cluster.HostID) bool {
	e := v.eng
	if !v.fits(u, target) {
		return false
	}
	if e.cfg.Admission != nil && !e.cfg.Admission(u, target) {
		return false
	}
	if e.cfg.BandwidthThreshold <= 0 {
		return true
	}
	host, err := e.cl.Host(target)
	if err != nil || host.NICMbps <= 0 {
		return false
	}
	// Traffic between u and VMs already on target leaves the NIC; the
	// rest of u's load joins it.
	var internal, load float64
	for _, ed := range e.tm.NeighborEdges(u) {
		load += ed.Rate
		if v.HostOf(ed.Peer) == target {
			internal += ed.Rate
		}
	}
	current := v.hostNetLoad(target)
	projected := current + load - 2*internal
	// Admit when the projection stays under the policy threshold, or
	// when the move does not worsen an already-hot NIC (co-locating a
	// heavy pair *reduces* both NICs' load; refusing such moves would
	// freeze an overloaded cluster in exactly the state that needs
	// fixing).
	limit := e.cfg.BandwidthThreshold * host.NICMbps
	if current > limit {
		return projected <= current
	}
	return projected <= limit
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
	if !v.fits(d.VM, d.Target) {
		return 0, fmt.Errorf("core: view commit of VM %d: %w", d.VM, cluster.ErrNoCapacity)
	}
	realized := v.Delta(d.VM, d.Target)
	ram, cpu, _ := v.eng.cl.Demand(d.VM) // registered: fits passed
	v.slotD[cur]--
	v.slotD[d.Target]++
	v.ramD[cur] -= int32(ram)
	v.ramD[d.Target] += int32(ram)
	v.cpuD[cur] -= int32(cpu)
	v.cpuD[d.Target] += int32(cpu)
	// Every host whose room or NIC load this commit rewrites is touched
	// for Visit (see stillQuiet). The NIC-load deltas are folded before
	// the overlay records the move so peers' positions are read
	// consistently.
	v.touch(cur)
	v.touch(d.Target)
	for _, ed := range v.eng.tm.NeighborEdges(d.VM) {
		hz := v.HostOf(ed.Peer)
		v.touch(hz)
		foldNICLoad(v.netD, cur, d.Target, hz, ed.Rate)
	}
	v.dense[d.VM-v.denseBase] = d.Target // placed, so inside the table
	v.commits = append(v.commits, Decision{VM: d.VM, From: cur, Target: d.Target, Delta: realized})
	return realized, nil
}
