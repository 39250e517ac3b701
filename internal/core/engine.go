package core

import (
	"fmt"

	"github.com/score-dc/score/internal/cluster"
	"github.com/score-dc/score/internal/topology"
	"github.com/score-dc/score/internal/traffic"
)

// Config tunes the migration decision engine.
type Config struct {
	// MigrationCost is c_m, the cost a migration's ΔC must exceed
	// (Theorem 1). The evaluation initially sets it to zero "to allow
	// for a fair comparison", then sweeps it.
	MigrationCost float64
	// BandwidthThreshold is the fraction of a host NIC that the
	// projected aggregate VM traffic may occupy after an in-migration;
	// above it the capacity probe refuses the VM ("if the target host
	// does not have sufficient bandwidth to accommodate the requesting
	// VM, the next best choice with adequate bandwidth will be
	// considered", Section V-C). Zero disables the check.
	BandwidthThreshold float64
	// Admission, when non-nil, is consulted in addition to the built-in
	// slot/RAM/bandwidth checks. No caller in this module sets it, and
	// setting it makes the visit memo inert (memoSync): an opaque
	// predicate's dependencies are unknown, so every visit runs in full.
	Admission func(vm cluster.VMID, target cluster.HostID) bool
}

// DefaultConfig returns the configuration used by the simulations:
// free migrations (c_m = 0) and a 90% bandwidth admission threshold.
func DefaultConfig() Config {
	return Config{MigrationCost: 0, BandwidthThreshold: 0.9}
}

// Decision is a migration the engine recommends for a token holder.
type Decision struct {
	VM     cluster.VMID
	From   cluster.HostID
	Target cluster.HostID
	// Delta is ΔC (Eq. 5): the global communication-cost reduction the
	// move achieves. Positive deltas reduce cost.
	Delta float64
}

// Engine evaluates S-CORE migration decisions against the current
// cluster allocation. It reads the cluster and traffic matrix but never
// mutates them; executing a decision is the caller's (simulator's or
// hypervisor's) responsibility, matching the paper's split between the
// decision process and the Xen migration machinery.
//
// The decision rule itself is implemented once: AllocView around a
// Kernel. The engine's decision methods are calls on its live view, so a
// decision against the live state and one against a shard's staged state
// run the same code. That path is allocation-free: neighbor edges are
// iterated straight off the traffic matrix's CSR rows, and the kernel's
// buffers are scratch state reused across calls.
//
// The engine itself keeps incremental accounting — the rate carried at
// each communication level (C^A is their weighted sum) and per-host
// external traffic loads — registered as a cluster allocation observer,
// so TotalCost and HostNetLoad are O(1) between traffic windows instead
// of O(|pairs|) per call. In-place traffic mutations are folded edge by
// edge from the matrix's changelog (ChangesSince); only swapping matrices
// (SetTraffic) or outrunning the changelog window forces a full rebuild.
// Every accumulator is a sum of rates on traffic's grid, hence exact: a
// fold and a rebuild give the same bits, in any order.
//
// Engine is not safe for concurrent use: scratch buffers and the
// accounting caches are mutated by reads.
type Engine struct {
	topo  topology.Topology
	cost  CostModel
	cl    *cluster.Cluster
	tm    *traffic.Matrix
	cfg   Config
	depth int

	// kern holds the level tables over every host ID the topology or the
	// cluster knows; views decide through clones, so its scratch is unused.
	kern Kernel

	// live is the view the engine's own decision methods run through; use
	// liveView, which points it at the cluster's current placement table.
	live AllocView

	// memo is the quiet-VM memo behind Visit (see visitMemo).
	memo visitMemo

	// Incremental accounting (see TotalCost / HostNetLoad): lvl[ℓ] is
	// the summed rate of the pairs communicating at level ℓ.
	acctValid bool
	acctTMGen uint64
	lvl       [4]float64
	hostNet   []float64

	// detach unregisters the cluster observers; nil once detached.
	detach func()
}

// NewEngine assembles a decision engine. The traffic matrix may be
// swapped later via SetTraffic as measurement windows roll over. The
// engine registers itself as an allocation observer on cl, so it must
// not outlive uses of the cluster that assume no observers.
func NewEngine(topo topology.Topology, cost CostModel, cl *cluster.Cluster, tm *traffic.Matrix, cfg Config) (*Engine, error) {
	if cl == nil || tm == nil {
		return nil, fmt.Errorf("core: nil dependency")
	}
	if err := checkLevels(topo, cost); err != nil {
		return nil, err
	}
	if cfg.BandwidthThreshold < 0 || cfg.BandwidthThreshold > 1 {
		return nil, fmt.Errorf("core: bandwidth threshold %v outside [0,1]", cfg.BandwidthThreshold)
	}
	e := &Engine{topo: topo, cost: cost, cl: cl, tm: tm, cfg: cfg, depth: topo.Depth()}
	e.kern = newKernel(topo, cost, cfg.MigrationCost, max(topo.Hosts(), cl.NumHosts()))
	e.live = AllocView{eng: e, live: true, k: *e.kern.Clone()}
	e.live.sizeScratch()
	e.hostNet = make([]float64, cl.NumHosts())
	unobserve := cl.Observe(e.onAllocChange, e.onAllocReset)
	unobserveRespec := cl.ObserveRespec(e.onRespec)
	e.detach = func() { unobserve(); unobserveRespec() }
	return e, nil
}

// Detach unregisters the engine's cluster observers. Call it when
// replacing an engine that shares a cluster with its successor, so the
// discarded engine stops receiving (and paying for) allocation
// callbacks. A detached engine remains usable: it recomputes totals on
// every read instead of tracking them incrementally, and Visit evaluates
// every holder in full.
func (e *Engine) Detach() {
	if e.detach != nil {
		e.detach()
		e.detach = nil
	}
	e.acctValid = false
	e.memo.off()
}

// SetTraffic replaces the traffic matrix, e.g. when a new measurement
// window's averages become available. The incremental accounting is
// invalidated and rebuilt lazily on the next TotalCost/HostNetLoad.
func (e *Engine) SetTraffic(tm *traffic.Matrix) {
	if tm != nil {
		e.tm = tm
		e.invalidateAccounting()
		e.memo.drop()
		e.memo.tmGen = tm.Generation()
	}
}

// Traffic returns the engine's current traffic matrix.
func (e *Engine) Traffic() *traffic.Matrix { return e.tm }

// Cluster returns the engine's cluster.
func (e *Engine) Cluster() *cluster.Cluster { return e.cl }

// Topology returns the engine's topology.
func (e *Engine) Topology() topology.Topology { return e.topo }

// CostModel returns the engine's cost model.
func (e *Engine) CostModel() CostModel { return e.cost }

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// Kernel returns a kernel over the engine's level tables and c_m, with
// scratch of its own, for a caller that places the peers itself.
func (e *Engine) Kernel() *Kernel { return e.kern.Clone() }

// levelSafe is level for host IDs of unknown provenance (snapshot maps,
// public-API targets): out-of-table IDs take the interface path, which
// tolerates them like the pre-flattening code did.
func (e *Engine) levelSafe(a, b cluster.HostID) int {
	if e.kern.Covers(a) && e.kern.Covers(b) {
		return e.kern.level(a, b)
	}
	return e.topo.Level(a, b)
}

// levelOrDepth is PairLevel over explicit hosts: unplaced endpoints read
// as the worst-case level.
func (e *Engine) levelOrDepth(a, b cluster.HostID) int {
	if a == cluster.NoHost || b == cluster.NoHost {
		return e.depth
	}
	return e.kern.level(a, b)
}

// liveView returns the engine's own view with its placement slice
// pointed at the cluster's table as it stands now. The alias goes stale
// when AddVM regrows the table, so every engine method fetches it on
// entry and none holds it across a call that could register a VM.
func (e *Engine) liveView() *AllocView {
	v := &e.live
	v.denseBase, v.dense = e.cl.DenseAlloc()
	return v
}

// HostOf returns the server hosting vm under the current allocation.
func (e *Engine) HostOf(vm cluster.VMID) cluster.HostID { return e.cl.HostOf(vm) }

// PairLevel returns ℓ^A(u, v) under the current allocation.
func (e *Engine) PairLevel(u, v cluster.VMID) int { return e.liveView().PairLevel(u, v) }

// VMLevel returns ℓ^A(u) under the current allocation (AllocView.VMLevel).
func (e *Engine) VMLevel(u cluster.VMID) int { return e.liveView().VMLevel(u) }

// VMCost returns C^A(u) (Eq. 1): twice the sum over Vu of λ·Σc_i.
func (e *Engine) VMCost(u cluster.VMID) float64 {
	var sum float64
	hu := e.cl.HostOf(u)
	for _, ed := range e.tm.NeighborEdges(u) {
		sum += e.cost.PairCost(ed.Rate, e.levelOrDepth(hu, e.cl.HostOf(ed.Peer)))
	}
	return sum
}

// invalidateAccounting drops the running C^A and per-host net loads;
// they are rebuilt from scratch on the next read.
func (e *Engine) invalidateAccounting() { e.acctValid = false }

// onAllocReset is the cluster's bulk-rewrite notification (Restore).
func (e *Engine) onAllocReset() {
	e.invalidateAccounting()
	e.memo.drop()
}

// foldTrafficChanges advances the accounting from its traffic-matrix
// snapshot to the matrix's current generation by replaying the matrix's
// edge-level changelog — the window-rollover fast path that replaces the
// O(|pairs|) rebuild for in-place rate updates. It reports whether the
// accounting is now current; false means the changelog window was
// outrun and the caller must rebuild.
//
// The rate deltas predate any allocation change being folded on top of
// them, so when called from the allocation observer (whose cluster has
// already applied the move) the moved VM must be read at its pre-move
// host: movedVM/movedFrom override HostOf for that VM; pass
// movedVM = 0, override = false from paths with no in-flight move.
func (e *Engine) foldTrafficChanges(movedVM cluster.VMID, movedFrom cluster.HostID, override bool) bool {
	if !e.acctValid {
		return false
	}
	changes, ok := e.tm.ChangesSince(e.acctTMGen)
	if !ok {
		return false
	}
	for _, ch := range changes {
		ha, hb := e.cl.HostOf(ch.A), e.cl.HostOf(ch.B)
		if override {
			if ch.A == movedVM {
				ha = movedFrom
			}
			if ch.B == movedVM {
				hb = movedFrom
			}
		}
		d := ch.New - ch.Old
		e.lvl[e.levelOrDepth(ha, hb)] += d
		if ha != cluster.NoHost && ha != hb {
			e.hostNet[ha] += d
		}
		if hb != cluster.NoHost && hb != ha {
			e.hostNet[hb] += d
		}
	}
	e.acctTMGen = e.tm.Generation()
	return true
}

// onAllocChange folds one placement change into the running totals:
// every affected pair level and host boundary crossing is O(1) given
// the moved VM's adjacency row.
func (e *Engine) onAllocChange(vm cluster.VMID, from, to cluster.HostID) {
	e.memoMove(vm, from, to)
	if !e.acctValid {
		return
	}
	if e.tm.Generation() != e.acctTMGen && !e.foldTrafficChanges(vm, from, true) {
		e.acctValid = false // traffic outran the changelog; rebuild lazily
		return
	}
	for _, ed := range e.tm.NeighborEdges(vm) {
		hz := e.cl.HostOf(ed.Peer)
		e.lvl[e.levelOrDepth(from, hz)] -= ed.Rate
		e.lvl[e.levelOrDepth(to, hz)] += ed.Rate
		foldNICLoad(e.hostNet, from, to, hz, ed.Rate)
	}
}

// foldNICLoad folds into the per-host external loads one edge of a VM
// moving from → to (either may be NoHost) whose peer sits on hz: the
// pair loads a NIC exactly when its endpoints sit on different hosts.
// The engine's accounting and a view's staged deltas share it.
func foldNICLoad(load []float64, from, to, hz cluster.HostID, rate float64) {
	if from != cluster.NoHost && hz != from {
		load[from] -= rate
	}
	if to != cluster.NoHost && hz != to {
		load[to] += rate
	}
	if hz != cluster.NoHost {
		if from != hz {
			load[hz] -= rate
		}
		if to != hz {
			load[hz] += rate
		}
	}
}

// rebuildAccounting recomputes the per-level rates and host net loads
// from scratch — the O(|pairs|) slow path taken once per traffic window.
// It streams the matrix via ForEachPair instead of forcing the pair-list
// cache to materialize — at 100k VMs that cache is tens of MB the rebuild
// does not need.
func (e *Engine) rebuildAccounting() {
	clear(e.hostNet)
	e.lvl = [4]float64{}
	e.tm.ForEachPair(func(a, b cluster.VMID, rate float64) {
		ha, hb := e.cl.HostOf(a), e.cl.HostOf(b)
		e.lvl[e.levelOrDepth(ha, hb)] += rate
		if ha != cluster.NoHost && ha != hb {
			e.hostNet[ha] += rate
		}
		if hb != cluster.NoHost && hb != ha {
			e.hostNet[hb] += rate
		}
	})
	e.acctTMGen = e.tm.Generation()
	e.acctValid = true
}

// ensureAccounting brings the accumulators up to date: a window rollover
// replays the changelog, anything else rebuilds. A detached engine
// receives no allocation changes, so its cached sums would go silently
// stale; it always rebuilds.
func (e *Engine) ensureAccounting() {
	if e.detach == nil || !e.foldTrafficChanges(0, cluster.NoHost, false) {
		e.rebuildAccounting()
	}
}

// TotalCost returns C^A (Eq. 2) for the current allocation. Between
// traffic-matrix changes it is served from the per-level rates maintained
// across allocation changes — amortized O(1) rather than O(|pairs|).
func (e *Engine) TotalCost() float64 {
	e.ensureAccounting()
	var sum float64
	for l, rate := range e.lvl {
		sum += e.cost.PairCost(rate, l)
	}
	return sum
}

// TotalCostOf evaluates C^A for a hypothetical allocation snapshot
// without touching the live cluster — used by the GA baseline and by
// what-if analyses.
func (e *Engine) TotalCostOf(alloc map[cluster.VMID]cluster.HostID) float64 {
	pairs, rates := e.tm.Pairs()
	var sum float64
	depth := e.depth
	for i, p := range pairs {
		ha, okA := alloc[p.A]
		hb, okB := alloc[p.B]
		lvl := depth
		if okA && okB && ha != cluster.NoHost && hb != cluster.NoHost {
			lvl = e.levelSafe(ha, hb)
		}
		sum += e.cost.PairCost(rates[i], lvl)
	}
	return sum
}

// Delta returns ΔC (Eq. 5) for migrating u to target under the current
// allocation (AllocView.Delta).
func (e *Engine) Delta(u cluster.VMID, target cluster.HostID) float64 {
	return e.liveView().Delta(u, target)
}

// HostNetLoad returns the aggregate external traffic (Mb/s) crossing the
// host's NIC: for each hosted VM, its rates to peers on other hosts.
// Served from the incrementally maintained per-host cache.
func (e *Engine) HostNetLoad(h cluster.HostID) float64 {
	if h < 0 || int(h) >= len(e.hostNet) {
		return 0
	}
	e.ensureAccounting()
	return e.hostNet[h]
}

// Admissible reports whether target can accept u under the current
// allocation (AllocView.Admissible).
func (e *Engine) Admissible(u cluster.VMID, target cluster.HostID) bool {
	return e.liveView().Admissible(u, target)
}

// BestMigration evaluates the S-CORE migration policy for token-holder u
// against the current allocation (AllocView.BestMigration): the pure
// kernel, always evaluated in full. Round drivers call Visit.
func (e *Engine) BestMigration(u cluster.VMID) (Decision, bool) {
	return e.liveView().BestMigration(u)
}

// Apply executes a previously computed decision against the cluster,
// enforcing capacity at execution time (the allocation may have drifted
// since the probe). It returns the realized ΔC. The cluster move
// notifies the engine's allocation observer, which folds the change
// into the running C^A and host net loads.
func (e *Engine) Apply(d Decision) (float64, error) {
	if d.Target == cluster.NoHost {
		return 0, fmt.Errorf("core: decision has no target")
	}
	realized := e.Delta(d.VM, d.Target)
	if err := e.cl.Move(d.VM, d.Target); err != nil {
		return 0, fmt.Errorf("core: applying migration of VM %d: %w", d.VM, err)
	}
	return realized, nil
}
