package core

import (
	"fmt"

	"github.com/score-dc/score/internal/cluster"
)

// AllocView is a shard-scoped decision view over an Engine: it shares
// the engine's immutable inputs (topology, cost model, flattened level
// tables, traffic matrix, frozen per-host net loads) but owns its
// scratch buffers and overlays a private set of uncommitted moves. Many
// views can therefore evaluate and stage migration decisions
// concurrently against a frozen cluster — the building block of the
// sharded token scheduler (internal/shard), where each shard's ring
// commits intra-shard moves into its own view lock-free.
//
// Contract: between NewView and the last use of any view, the cluster,
// the traffic matrix and the engine itself must not be mutated (no
// Move/Place/Restore, no Set/Add, no engine reads that trigger
// accounting rebuilds). The coordinator enforces this by splitting
// rounds into a concurrent decision phase (views only) and a sequential
// merge phase (engine only).
//
// With an empty overlay a view reproduces the engine's decisions
// exactly: Delta, Admissible and BestMigration mirror the engine's
// semantics term for term (see TestViewMatchesEngine).
type AllocView struct {
	eng *Engine

	// Overlay: placements staged by Commit, and the capacity / NIC-load
	// deltas they imply, all private to this view. When the cluster's
	// dense VMID mirror exists, dense is a private copy of it with the
	// staged moves written in — HostOf is then a bounds check and a
	// slice load, matching the engine's hot path. moved tracks staged
	// placements for the sparse fallback.
	denseBase cluster.VMID
	dense     []cluster.HostID
	moved     map[cluster.VMID]cluster.HostID
	slotD     []int32
	ramD      []int32
	cpuD      []int32
	netD      []float64
	commits   []Decision

	// Scratch reused across decisions (the engine's own scratch is
	// reserved for its single-threaded paths).
	rank       []rankEntry
	probed     []uint32
	probeEpoch uint32
	refusals   []cluster.HostID

	// Visit state (see visitMemo): stamp is the engine's memo clock
	// frozen when the view was primed; touched[r] == touchEpoch marks
	// rack r as rewritten by one of this view's staged commits.
	stamp      uint32
	touched    []uint32
	touchEpoch uint32
}

// NewView creates a decision view over the engine's current state. It
// primes the engine's incremental accounting so concurrent views can
// read the frozen per-host net loads without synchronization; create
// views sequentially, then use them concurrently.
func (e *Engine) NewView() *AllocView {
	e.ensureAccounting()
	n := e.cl.NumHosts()
	v := &AllocView{
		eng:    e,
		slotD:  make([]int32, n),
		ramD:   make([]int32, n),
		cpuD:   make([]int32, n),
		netD:   make([]float64, n),
		probed: make([]uint32, len(e.probed)),
	}
	var ok bool
	if v.denseBase, v.dense, ok = e.cl.DenseAllocSnapshot(); !ok {
		v.moved = make(map[cluster.VMID]cluster.HostID)
	}
	v.primeMemo()
	return v
}

// ResetView re-primes an existing view for a fresh decision phase,
// reusing its buffers: the overlay deltas are zeroed, staged commits
// dropped, and the dense allocation mirror re-snapshotted in place. A
// reset view is indistinguishable from a NewView one — round loops keep
// per-shard views alive across rounds and pay O(hosts + |V|) stores
// instead of O(hosts + |V|) fresh allocations each round. A nil or
// foreign view falls back to NewView.
func (e *Engine) ResetView(v *AllocView) *AllocView {
	if v == nil || v.eng != e {
		return e.NewView()
	}
	e.ensureAccounting()
	n := e.cl.NumHosts()
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
	if len(v.probed) != len(e.probed) {
		v.probed = make([]uint32, len(e.probed))
		v.probeEpoch = 0
	}
	// probed marks are epoch-scoped: stale entries from prior rounds can
	// never equal a yet-unused epoch, so the scratch carries over as-is.
	v.commits = v.commits[:0]
	v.rank = v.rank[:0]
	v.primeMemo()
	var ok bool
	if v.denseBase, v.dense, ok = e.cl.DenseAllocSnapshotInto(v.dense); ok {
		v.moved = nil
		return v
	}
	v.dense = nil
	if v.moved == nil {
		v.moved = make(map[cluster.VMID]cluster.HostID)
	} else {
		clear(v.moved)
	}
	return v
}

// HostOf returns where the view places vm: its staged position if this
// view moved it, otherwise the frozen cluster allocation.
func (v *AllocView) HostOf(vm cluster.VMID) cluster.HostID {
	if d := v.dense; d != nil {
		// A live mirror covers every registered VM (the cluster's own
		// invariant), so out-of-range IDs are unknown.
		if i := int64(vm) - int64(v.denseBase); uint64(i) < uint64(len(d)) {
			return d[i]
		}
		return cluster.NoHost
	}
	if h, ok := v.moved[vm]; ok {
		return h
	}
	return v.eng.cl.HostOf(vm)
}

// setHost stages vm at h in the overlay.
func (v *AllocView) setHost(vm cluster.VMID, h cluster.HostID) {
	if d := v.dense; d != nil {
		if i := int64(vm) - int64(v.denseBase); uint64(i) < uint64(len(d)) {
			d[i] = h
		}
		return
	}
	v.moved[vm] = h
}

// Commits returns the decisions staged so far, in commit order. The
// slice is owned by the view.
func (v *AllocView) Commits() []Decision { return v.commits }

// PairLevel returns ℓ(u, w) under the view's allocation.
func (v *AllocView) PairLevel(u, w cluster.VMID) int {
	return v.eng.levelOrDepth(v.HostOf(u), v.HostOf(w))
}

// VMLevel returns ℓ(u) = max over u's peers, mirroring Engine.VMLevel.
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

// Delta returns ΔC (Eq. 5) for migrating u to target under the view's
// allocation, mirroring Engine.Delta.
func (v *AllocView) Delta(u cluster.VMID, target cluster.HostID) float64 {
	e := v.eng
	cur := v.HostOf(u)
	if cur == target || cur == cluster.NoHost || !e.validLevelHost(target) {
		return 0
	}
	var delta float64
	for _, ed := range e.tm.NeighborEdges(u) {
		hz := v.HostOf(ed.Peer)
		if hz == cluster.NoHost {
			continue
		}
		before := e.cost.Prefix(e.level(hz, cur))
		after := e.cost.Prefix(e.level(hz, target))
		delta += 2 * ed.Rate * (before - after)
	}
	return delta
}

// fits checks slot/RAM/CPU capacity on target under the view's staged
// occupancy, mirroring cluster.Fits plus the overlay deltas.
func (v *AllocView) fits(u cluster.VMID, target cluster.HostID) bool {
	e := v.eng
	vm, err := e.cl.VM(u)
	if err != nil || target < 0 || int(target) >= e.cl.NumHosts() {
		return false
	}
	if v.HostOf(u) == target {
		return true
	}
	if e.cl.FreeSlots(target)-int(v.slotD[target]) < 1 {
		return false
	}
	if e.cl.FreeRAMMB(target)-int(v.ramD[target]) < vm.RAMMB {
		return false
	}
	host, err := e.cl.Host(target)
	if err != nil {
		return false
	}
	if host.CPUMilli > 0 && e.cl.FreeCPUMilli(target)-int(v.cpuD[target]) < vm.CPUMilli {
		return false
	}
	return true
}

// hostNetLoad is the view's external traffic on h: the engine's frozen
// per-host load plus this view's staged deltas.
func (v *AllocView) hostNetLoad(h cluster.HostID) float64 {
	if h < 0 || int(h) >= len(v.eng.hostNet) {
		return 0
	}
	return v.eng.hostNet[h] + v.netD[h]
}

// Admissible mirrors Engine.Admissible under the view's allocation:
// capacity, the configured admission hook, and the bandwidth-threshold
// check of Section V-C. A non-nil Config.Admission hook must be safe for
// concurrent use when views run in parallel.
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
	var internal, load float64
	for _, ed := range e.tm.NeighborEdges(u) {
		load += ed.Rate
		if v.HostOf(ed.Peer) == target {
			internal += ed.Rate
		}
	}
	current := v.hostNetLoad(target)
	projected := current + load - 2*internal
	limit := e.cfg.BandwidthThreshold * host.NICMbps
	if current > limit {
		return projected <= current
	}
	return projected <= limit
}

// neighborRank mirrors Engine.neighborRank into the view's own scratch.
func (v *AllocView) neighborRank(u cluster.VMID) []rankEntry {
	e := v.eng
	hu := v.HostOf(u)
	v.rank = v.rank[:0]
	for _, ed := range e.tm.NeighborEdges(u) {
		hz := v.HostOf(ed.Peer)
		v.rank = append(v.rank, rankEntry{
			peer:  ed.Peer,
			host:  hz,
			level: e.levelOrDepth(hu, hz),
			rate:  ed.Rate,
		})
	}
	sortRank(v.rank)
	return v.rank
}

// considerTarget mirrors Engine.considerTarget against the view.
func (v *AllocView) considerTarget(u cluster.VMID, cur, h cluster.HostID, best *Decision, probes *int) {
	if h == cur || h < 0 || int(h) >= len(v.probed) || v.probed[h] == v.probeEpoch {
		return
	}
	v.probed[h] = v.probeEpoch
	*probes++
	d := v.Delta(u, h)
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
// under the view's allocation, mirroring Engine.BestMigration: probe the
// servers of u's neighbors in rank order with same-rack fallback, and
// return the admissible move with the largest ΔC if it clears c_m. Like
// the engine's, it is the pure kernel and writes nothing but the view's
// own scratch; ring passes call Visit.
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
	probes := 0
	limit := e.cfg.MaxCandidates

	for _, ent := range v.neighborRank(u) {
		if limit > 0 && probes >= limit {
			break
		}
		hz := ent.host
		if hz == cluster.NoHost {
			continue
		}
		v.considerTarget(u, cur, hz, &best, &probes)
		if r := e.topo.RackOf(hz); r >= 0 && r < len(e.rackHosts) {
			for _, alt := range e.rackHosts[r] {
				if limit > 0 && probes >= limit {
					break
				}
				v.considerTarget(u, cur, alt, &best, &probes)
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
	e := v.eng
	realized := v.Delta(d.VM, d.Target)
	vm, err := e.cl.VM(d.VM)
	if err != nil {
		return 0, err
	}
	v.slotD[cur]--
	v.slotD[d.Target]++
	v.ramD[cur] -= int32(vm.RAMMB)
	v.ramD[d.Target] += int32(vm.RAMMB)
	v.cpuD[cur] -= int32(vm.CPUMilli)
	v.cpuD[d.Target] += int32(vm.CPUMilli)
	// Every host whose room or NIC load this commit rewrites is touched
	// for Visit (see stillQuiet). NIC-load deltas mirror
	// Engine.onAllocChange, evaluated before the overlay records the
	// move so peers' positions are read consistently.
	v.touch(cur)
	v.touch(d.Target)
	for _, ed := range e.tm.NeighborEdges(d.VM) {
		hz := v.HostOf(ed.Peer)
		v.touch(hz)
		if hz != cur {
			v.netD[cur] -= ed.Rate
		}
		if hz != d.Target {
			v.netD[d.Target] += ed.Rate
		}
		if hz != cluster.NoHost {
			if cur != hz {
				v.netD[hz] -= ed.Rate
			}
			if d.Target != hz {
				v.netD[hz] += ed.Rate
			}
		}
	}
	v.setHost(d.VM, d.Target)
	v.commits = append(v.commits, Decision{VM: d.VM, From: cur, Target: d.Target, Delta: realized})
	return realized, nil
}
