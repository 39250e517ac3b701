package core

import (
	"fmt"

	"github.com/score-dc/score/internal/cluster"
	"github.com/score-dc/score/internal/topology"
	"github.com/score-dc/score/internal/traffic"
)

// Config tunes the migration decision engine. Admission is not a
// setting: every plane admits through Admit.
type Config struct {
	// MigrationCost is c_m, the cost a migration's ΔC must exceed
	// (Theorem 1). The evaluation initially sets it to zero "to allow
	// for a fair comparison", then sweeps it.
	MigrationCost float64
}

// DefaultConfig returns the configuration used by the simulations: free
// migrations (c_m = 0).
func DefaultConfig() Config { return Config{} }

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
// external traffic loads — through a traffic.Follower of its matrix and
// cluster, which TotalCost and HostNetLoad sync before they read, so a
// read costs what changed since the last one instead of O(|pairs|).
// Every accumulator is a sum of rates on traffic's grid, hence exact: a
// fold and a rebuild give the same bits, in any order. Neither the
// follower nor the visit memo registers anything with the cluster: both
// read its placement changelog, so an engine that is dropped needs no
// release.
//
// Admission does not sync: it reads an upper bound on a host's NIC load.
// A move landed through Land (Apply lands through it) raises the bound of
// its source and its target by the mover's rate, the most either load can
// change by; every other host's load is unchanged bit for bit
// (foldNICLoad). While the follower holds the matrix's current rates and
// every placement write since its last sync was a Land, hostNet + nicUp is
// at least every host's load, and a bound that admits proves admission
// (Admit's NIC clause never turns to admit as the load rises). Only a NIC
// refusal under a raised bound reads the host's exact load, from its VMs'
// rows (exactNICLoad); any other placement or traffic write voids the
// bound, and the next probe syncs as a read of the accounting does.
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

	// Incremental accounting (see TotalCost / HostNetLoad), kept by acct:
	// lvl[ℓ] is the summed rate of the pairs communicating at level ℓ,
	// hostNet[h] the rate crossing h's NIC, as of acct's last sync.
	acct    *traffic.Follower
	lvl     [4]float64
	hostNet []float64

	// The NIC bound (see Land): nicUp[h] is what the moves landed since
	// acct's last sync can have added to h's load, non-zero exactly on the
	// hosts upHosts lists; boundGen is the placement generation it covers.
	nicUp    []float64
	upHosts  []cluster.HostID
	boundGen uint64

	// detached turns the visit memo off for good (Detach).
	detached bool
}

// NewEngine assembles a decision engine. The traffic matrix may be
// swapped later via SetTraffic as measurement windows roll over.
func NewEngine(topo topology.Topology, cost CostModel, cl *cluster.Cluster, tm *traffic.Matrix, cfg Config) (*Engine, error) {
	if cl == nil || tm == nil {
		return nil, fmt.Errorf("core: nil dependency")
	}
	if err := checkLevels(topo, cost); err != nil {
		return nil, err
	}
	e := &Engine{topo: topo, cost: cost, cl: cl, tm: tm, cfg: cfg, depth: topo.Depth()}
	e.kern = newKernel(topo, cost, cfg.MigrationCost, max(topo.Hosts(), cl.NumHosts()))
	e.live = AllocView{eng: e, live: true, k: *e.kern.Clone()}
	e.live.sizeScratch()
	e.hostNet, e.nicUp = make([]float64, cl.NumHosts()), make([]float64, cl.NumHosts())
	e.acct = traffic.Follow(tm, cl, e.resetAccounting, e.addPair)
	return e, nil
}

// Detach turns the visit memo off: Visit then evaluates every holder in
// full, as BestMigration. Tests use it for a kernel-only twin of an
// engine; the accounting is unaffected. Detach is idempotent.
func (e *Engine) Detach() {
	e.detached = true
	e.memo.off()
}

// SetTraffic replaces the traffic matrix, e.g. when a new measurement
// window's averages become available. The incremental accounting is
// rebuilt lazily on the next TotalCost/HostNetLoad or probe.
func (e *Engine) SetTraffic(tm *traffic.Matrix) {
	if tm != nil {
		e.tm = tm
		e.acct.Retarget(tm)
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

// HostLevel returns ℓ(a, b), the level at which two hosts communicate,
// from the engine's level tables; an endpoint that is cluster.NoHost
// reads as the worst-case level, as an unplaced VM does in PairLevel.
// Both hosts must otherwise be ones the tables cover (the topology's and
// the cluster's).
func (e *Engine) HostLevel(a, b cluster.HostID) int { return e.levelOrDepth(a, b) }

// PairLevel returns ℓ^A(u, v) under the current allocation.
func (e *Engine) PairLevel(u, v cluster.VMID) int { return e.liveView().PairLevel(u, v) }

// VMLevel returns ℓ^A(u) under the current allocation (AllocView.VMLevel).
func (e *Engine) VMLevel(u cluster.VMID) int { return e.liveView().VMLevel(u) }

// sync brings the accounting up to date with both changelogs and lowers
// the NIC bound to the loads it folded: the one caller of acct.Sync.
func (e *Engine) sync() {
	e.acct.Sync()
	for _, h := range e.upHosts {
		e.nicUp[h] = 0
	}
	e.upHosts = e.upHosts[:0]
	e.boundGen = e.cl.MoveGeneration()
}

// bounded reports that hostNet + nicUp is at least every host's NIC load:
// the follower holds the matrix's current rates, and every placement
// write since its last sync was a Land.
func (e *Engine) bounded() bool {
	return e.boundGen == e.cl.MoveGeneration() && e.acct.Current()
}

// syncUnbounded syncs the accounting unless the NIC bound holds: what
// admission needs of it.
func (e *Engine) syncUnbounded() {
	if !e.bounded() {
		e.sync()
	}
}

// Land moves vm to target in the cluster (Cluster.Move) and, while the
// NIC bound holds, raises it at both ends by the mover's rate: a host's
// load changes by its peers' rates there, at most VMLoad(vm), and only
// the source's and the target's change. The accounting folds the move on
// its next sync.
func (e *Engine) Land(vm cluster.VMID, target cluster.HostID) error {
	from, held := e.cl.HostOf(vm), e.boundGen == e.cl.MoveGeneration()
	if err := e.cl.Move(vm, target); err != nil {
		return err
	}
	if !held || from == target {
		return nil
	}
	r := e.tm.VMLoad(vm)
	e.raise(from, r)
	e.raise(target, r)
	e.boundGen = e.cl.MoveGeneration()
	return nil
}

// raise adds r to h's NIC bound, listing h when it becomes non-zero.
func (e *Engine) raise(h cluster.HostID, r float64) {
	if r == 0 {
		return
	}
	if e.nicUp[h] == 0 {
		e.upHosts = append(e.upHosts, h)
	}
	e.nicUp[h] += r
}

// exactNICLoad returns h's NIC load under the cluster's placement, read
// off its VMs' rows: each one's rates to peers placed elsewhere. It is
// the sum hostNet folds, and every sum of rates is exact, so after a sync
// the two are the same bits. It reads only the cluster and the matrix, so
// frozen views may call it concurrently.
func (e *Engine) exactNICLoad(h cluster.HostID) float64 {
	var load float64
	for _, y := range e.cl.Residents(h) {
		for _, ed := range e.tm.NeighborEdges(y) {
			if e.cl.HostOf(ed.Peer) != h {
				load += ed.Rate
			}
		}
	}
	return load
}

// resetAccounting empties the accumulators before acct refolds them.
func (e *Engine) resetAccounting() {
	e.lvl = [4]float64{}
	clear(e.hostNet)
}

// addPair folds delta into the accumulators for the pair (a, b) on hosts
// (ha, hb): its level's rate and, when it crosses NICs, theirs.
func (e *Engine) addPair(_, _ cluster.VMID, ha, hb cluster.HostID, delta float64) {
	e.lvl[e.levelOrDepth(ha, hb)] += delta
	if ha == hb {
		return
	}
	if ha != cluster.NoHost {
		e.hostNet[ha] += delta
	}
	if hb != cluster.NoHost {
		e.hostNet[hb] += delta
	}
}

// foldNICLoad folds into the per-host external loads one edge of a VM
// moving from → to (either may be NoHost) whose peer sits on hz: the
// pair loads a NIC exactly when its endpoints sit on different hosts.
// A view's staged deltas use it. A peer's host other than from and to
// takes −rate then +rate: rates sit on a 2^-20 Mb/s grid, so the two net
// to exactly 0 and the host's load is unchanged bit for bit (the visit
// memo relaxes only from and to).
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

// TotalCost returns C^A (Eq. 2) for the current allocation. Between
// traffic-matrix changes it is served from the per-level rates maintained
// across allocation changes — amortized O(1) rather than O(|pairs|).
func (e *Engine) TotalCost() float64 {
	e.sync()
	var sum float64
	for l, rate := range e.lvl {
		sum += e.cost.PairCost(rate, l)
	}
	return sum
}

// TotalCostOf evaluates C^A for a hypothetical allocation snapshot
// without touching the live cluster.
func (e *Engine) TotalCostOf(alloc map[cluster.VMID]cluster.HostID) float64 {
	var sum float64
	e.tm.ForEachPair(func(a, b cluster.VMID, rate float64) {
		ha, okA := alloc[a]
		hb, okB := alloc[b]
		lvl := e.depth
		if okA && okB && ha != cluster.NoHost && hb != cluster.NoHost {
			lvl = e.levelSafe(ha, hb)
		}
		sum += e.cost.PairCost(rate, lvl)
	})
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
	e.sync()
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
// since the probe). It returns the realized ΔC. The move lands through
// Land, and the next read of C^A or a host's net load folds it.
func (e *Engine) Apply(d Decision) (float64, error) {
	if d.Target == cluster.NoHost {
		return 0, fmt.Errorf("core: decision has no target")
	}
	realized := e.Delta(d.VM, d.Target)
	if err := e.Land(d.VM, d.Target); err != nil {
		return 0, fmt.Errorf("core: applying migration of VM %d: %w", d.VM, err)
	}
	return realized, nil
}
