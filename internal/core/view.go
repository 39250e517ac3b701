package core

import (
	"fmt"
	"slices"

	"github.com/score-dc/score/internal/cluster"
)

// AllocView is the decision kernel — ΔC (Eq. 5), the admission test, the
// rank order of Section V-B5, the candidate fold, BestMigration and the
// token visit — evaluated against one placement: the cluster's, plus the
// moves staged in the view. It shares the engine's immutable inputs
// (topology, cost model, flattened level tables, traffic matrix, per-host
// net loads) but owns its scratch buffers and its overlay. The rule is
// the same whatever state it reads; only the state differs:
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
// holder does (Section V-B4's location request), and evaluates Eq. 5 for
// every candidate from that: one resolve pass over the holder's row, then
// candidates × degree multiply-adds (see resolve and score).
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

	// Scratch reused across decisions: the holder's resolved peers, in row
	// order and in probe order, and the probed-host set — a 32-bit epoch
	// array with an explicit wrap reset when the epoch counter overflows.
	peers      []peerEntry
	rank       []rankEntry
	probed     []uint32 // probed[h] == probeEpoch ⇒ already probed this decision
	probeEpoch uint32
	// refusals lists the hosts that refused the last evaluation while
	// offering ΔC > c_m and more than the running best — what Visit
	// records as the blocking hosts of a no-move verdict.
	refusals []cluster.HostID

	// Visit state (see visitMemo): stamp is the engine's memo clock as of
	// the view's last sync — frozen at reset, or the live view's current
	// one; touched[r] == touchEpoch marks rack r as rewritten by one of
	// this view's staged commits.
	stamp      uint32
	touched    []uint32
	touchEpoch uint32
}

// peerEntry is one placed neighbor of the holder being decided, resolved
// once per decision: everything its term of Eq. 5 needs that does not
// depend on the candidate — its host with the flattened rack and pod
// keys, w = 2·λ, and before = Σ_{i≤ℓ} c_i at its level to the holder's
// current host.
type peerEntry struct {
	host      cluster.HostID
	rack, pod int32
	w, before float64
}

// rankEntry is one placed neighbor in probe order: its current host and
// level are resolved once so the rank sort and the candidate loop do no
// repeated lookups.
type rankEntry struct {
	host  cluster.HostID
	level int
	rate  float64
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
		v = &AllocView{eng: e}
	}
	e.ensureAccounting()
	v.sizeScratch()
	v.commits = v.commits[:0]
	v.primeMemo()
	v.denseBase, v.dense = e.cl.DenseAllocSnapshotInto(v.dense)
	return v
}

// sizeScratch sizes the per-host overlay deltas and the probed-host set
// (every host ID the topology or the cluster knows), zeroing the deltas.
// Probed marks are epoch-scoped: stale entries from prior rounds can
// never equal a yet-unused epoch, so that scratch carries over as-is.
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
	if span := max(v.eng.topo.Hosts(), n); len(v.probed) != span {
		v.probed = make([]uint32, span)
		v.probeEpoch = 0
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
// a single pass over u's row fills v.peers, in row order, with each
// placed peer's candidate-independent share of Eq. 5, and v.rank with the
// same peers for BestMigration to sort.
func (v *AllocView) resolve(u cluster.VMID, cur cluster.HostID) {
	e := v.eng
	v.peers, v.rank = v.peers[:0], v.rank[:0]
	for _, ed := range e.tm.NeighborEdges(u) {
		hz := v.HostOf(ed.Peer)
		if hz == cluster.NoHost {
			continue
		}
		l := e.level(hz, cur)
		v.peers = append(v.peers, peerEntry{hz, e.rackOf[hz], e.podOf[hz], 2 * ed.Rate, e.prefix[l]})
		v.rank = append(v.rank, rankEntry{host: hz, level: l, rate: ed.Rate})
	}
}

// score is ΔC (Eq. 5) of moving the resolved holder to target, a host the
// level tables cover. Per peer, the level after the move follows from the
// target's keys by the rule Engine.level states, and the terms are added
// in row order: the one implementation of Eq. 5, so every sum for a
// (holder, target) is the same sequence of float64 operations.
func (v *AllocView) score(target cluster.HostID) float64 {
	e := v.eng
	rack, pod := e.rackOf[target], e.podOf[target]
	var delta float64
	for i := range v.peers {
		p := &v.peers[i]
		after := e.prefix[3]
		switch {
		case p.host == target:
			after = e.prefix[0]
		case p.rack == rack:
			after = e.prefix[1]
		case p.pod == pod:
			after = e.prefix[2]
		}
		delta += p.w * (p.before - after)
	}
	return delta
}

// Delta returns ΔC for migrating u to target (Eq. 5):
//
//	ΔC = 2 Σ_{z∈Vu} λ(z,u) · (Σ_{i≤ℓ^A(z,u)} c_i − Σ_{i≤ℓ^{A'}(z,u)} c_i)
//
// computed purely from u's local knowledge: its neighbors, their rates,
// and the levels before and after the move: the guards, one resolve of u
// and one score of target. It performs no allocation.
func (v *AllocView) Delta(u cluster.VMID, target cluster.HostID) float64 {
	cur := v.HostOf(u)
	if cur == target || cur == cluster.NoHost || !v.eng.validLevelHost(target) {
		return 0
	}
	v.resolve(u, cur)
	return v.score(target)
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

// neighborRank orders the resolved neighbors from highest to lowest
// communication level, breaking ties by descending rate — the probe order
// of Section V-B5 ("rank neighboring VMs from highest to lowest
// communication levels"). The returned slice is the view's reusable
// scratch buffer, valid until the next resolve.
func (v *AllocView) neighborRank() []rankEntry {
	slices.SortStableFunc(v.rank, func(a, b rankEntry) int {
		if a.level != b.level {
			return b.level - a.level
		}
		switch {
		case a.rate > b.rate:
			return -1
		case a.rate < b.rate:
			return 1
		}
		return 0
	})
	return v.rank
}

// considerTarget probes one candidate host for the resolved holder u:
// skip duplicates and the current host, and fold the target into the
// running best. ΔC comes first and the admission probe is asked only of a
// host that could become the answer — one offering more than c_m and more
// than the running best (exact; see visitMemo).
func (v *AllocView) considerTarget(u cluster.VMID, cur, h cluster.HostID, best *Decision) {
	if h == cur || h < 0 || int(h) >= len(v.probed) || v.probed[h] == v.probeEpoch {
		return
	}
	v.probed[h] = v.probeEpoch
	d := v.score(h)
	if d <= v.eng.cfg.MigrationCost || (best.Target != cluster.NoHost && d <= best.Delta) {
		return
	}
	if !v.Admissible(u, h) {
		v.refusals = append(v.refusals, h)
		return
	}
	best.Target, best.Delta = h, d
}

// BestMigration evaluates the S-CORE migration policy for token-holder u
// and returns the admissible move with the largest ΔC, provided it
// satisfies Theorem 1 (ΔC > c_m). The candidate set is the servers of
// u's neighbors in rank order, falling back to other servers in the same
// rack when a neighbor's own server refuses the capacity probe. u's
// neighbors are resolved once; each candidate then costs one score.
//
// BestMigration is the pure kernel: it always evaluates in full and
// writes nothing but the view's own scratch (the refusing hosts stay in
// v.refusals for Visit). Round drivers call Visit.
func (v *AllocView) BestMigration(u cluster.VMID) (Decision, bool) {
	v.refusals = v.refusals[:0]
	e := v.eng
	cur := v.HostOf(u)
	if cur == cluster.NoHost {
		return Decision{}, false
	}
	best := Decision{VM: u, From: cur, Target: cluster.NoHost}
	v.probeEpoch++
	if v.probeEpoch == 0 { // epoch wrapped: stale marks would collide
		clear(v.probed)
		v.probeEpoch = 1
	}

	v.resolve(u, cur)
	for _, ent := range v.neighborRank() {
		v.considerTarget(u, cur, ent.host, &best)
		// The neighbor's server may be full; try the rest of its rack,
		// which still collapses the pair to level 1. Hosts outside the
		// topology's rack table (cluster larger than topology) have no
		// rack to fall back to, like HostsInRack returning nil.
		if r := e.rackSlot(ent.host); r < len(e.rackHosts) {
			for _, alt := range e.rackHosts[r] {
				v.considerTarget(u, cur, alt, &best)
			}
		}
	}

	if best.Target == cluster.NoHost || best.Delta <= e.cfg.MigrationCost {
		return Decision{}, false
	}
	return best, true
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
