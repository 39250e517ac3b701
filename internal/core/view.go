package core

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"github.com/score-dc/score/internal/cluster"
)

// AllocView is the placement half of the decision rule, evaluated against
// one placement: the cluster's, plus the moves staged in the view. It
// answers where a peer sits (HostOf) and whether a host admits a VM
// (Admissible, from the engine's bound on the host's NIC load, reading
// the exact load only when the bound refuses), runs the token visit and
// its memo, and decides through a Kernel of its own — the half that needs
// no placement. The rule is the same whatever state it reads; only the
// state differs. Every view is the cluster's own placement table,
// read-only, plus an overlay of its own:
//
//   - A frozen view (NewView/ResetView) stages moves with Commit: the
//     overlay holds the staged positions of the VMs its commits moved or
//     are peers of, and the room and NIC-load deltas they imply. Many
//     frozen views can evaluate and stage concurrently — the building
//     block of the sharded token scheduler (internal/shard), where each
//     shard's ring commits intra-shard moves into its own view lock-free.
//   - The engine's live view never stages, so its overlay stays empty;
//     every Engine decision method is a call on it.
//
// A decision locates the holder's neighbors once, as the paper's token
// holder does (Section V-B4's location request), then costs one
// Kernel.Score per peer host and one per rack whose bound lets its key
// win (Kernel.Best).
//
// Contract for frozen views: between NewView and the last use of any
// view, the cluster, the traffic matrix and the engine itself must not
// be mutated (no Move/Place/Restore, no Set/Add, no engine reads that
// trigger accounting rebuilds). The coordinator enforces this by
// splitting rounds into a concurrent decision phase (views only) and a
// sequential merge phase (engine only). What a view reads of the cluster
// after the merge is the merged placement; its commits and near marks
// stay its own until the next reset.
type AllocView struct {
	eng *Engine
	// live marks the engine's own view: the per-host net loads are not
	// frozen under it, so the capacity probe syncs the accounting first
	// unless the engine's NIC bound holds (see probe). Nothing else in the
	// kernel asks.
	live bool

	// Placement and overlay. dense is the cluster's placement table,
	// dense[id-denseBase] over its ID window, fetched at reset (the live
	// view: on every engine call). near is a bitmap over the same window
	// marking every VM one of the view's staged commits moved and every
	// peer of one (see mark). A non-zero near word w has the view's own
	// positions of its 64 VMs in staged[w], a block taken from blocks
	// (lent by StageInto) or, when none is lent, from own; words lists
	// those w in the order they were staged. slotD/ramD/cpuD/netD are
	// the capacity and NIC-load deltas the staged moves imply, non-zero
	// only on the hosts set in dirty (all zero in the live view).
	denseBase cluster.VMID
	dense     []cluster.HostID
	near      []uint64
	staged    []*[64]cluster.HostID
	words     []int32
	blocks    *StageBlocks
	own       StageBlocks
	slotD     []int32
	ramD      []int32
	cpuD      []int32
	netD      []float64
	dirty     []uint64
	// commits are the staged decisions, in commit order: in storage the
	// caller lent (StageInto) when lent is set, else the view's own.
	commits []Decision
	lent    bool

	// best is the decision the view's last BestMigration returned when
	// hasBest is set, which lasts while nothing the view reads has changed
	// (no Commit, no reset): its ΔC is what Commit would price again.
	best    Decision
	hasBest bool

	// k is the view's kernel: the engine's level tables, scratch reused
	// across this view's decisions.
	k Kernel

	// Visit state (see visitMemo): stamp is the engine's memo clock as of
	// the view's last sync — frozen at reset, or the live view's current
	// one; touched[r] == touchEpoch marks rack r as holding the source or
	// the target of one of this view's staged commits.
	stamp      uint32
	touched    []uint32
	touchEpoch uint32
}

// NewView creates a frozen decision view over the engine's current
// state. It primes the engine's NIC loads — synced, or bounded (see
// Engine) — so concurrent views can read them without synchronization;
// create views sequentially, then use them concurrently.
func (e *Engine) NewView() *AllocView { return e.ResetView(nil) }

// Sync folds what the placement and traffic changelogs logged since the
// last sync into the engine's own state: the visit memo, and the cost
// accounting unless the NIC bound holds (every placement write since its
// last sync was a Land), which leaves the accounting to the next read of
// a cost or a load. Every view reset syncs the same way first, so calling
// it only moves that work earlier. It reads the cluster and the traffic
// matrix and writes only the accounting and the memo, so it may run
// beside other readers of both — a round driver folds here while its
// tuner plans — but not beside any other use of the engine.
func (e *Engine) Sync() {
	e.syncUnbounded()
	e.memoSync()
}

// ResetView re-primes an existing frozen view for a fresh decision
// phase, reusing its buffers: it undoes what the view's staged commits
// wrote (unstage) and points the view at the cluster's table as it stands
// now. A reset view is indistinguishable from a new one — round loops
// keep per-shard views alive across rounds and pay for what each staged,
// not for the hosts or the VMs. A nil or foreign view is replaced by a
// new one. After Sync, with nothing written since, the reset finds the
// engine's changelog folds done.
func (e *Engine) ResetView(v *AllocView) *AllocView {
	if v == nil || v.eng != e {
		v = &AllocView{eng: e, k: *e.kern.Clone()}
		v.sizeScratch()
	}
	e.syncUnbounded()
	v.unstage()
	v.denseBase, v.dense = e.cl.DenseAlloc()
	if n := (len(v.dense) + 63) / 64; len(v.near) != n {
		v.near, v.staged = make([]uint64, n), make([]*[64]cluster.HostID, n)
	}
	v.primeMemo()
	return v
}

// unstage drops the view's staged commits and clears what they wrote:
// their near words and staged positions, and the deltas of the hosts
// they touched. Lent commit storage goes back to its lender.
func (v *AllocView) unstage() {
	for _, w := range v.words {
		v.near[w], v.staged[w] = 0, nil
	}
	v.words = v.words[:0]
	if len(v.commits) > 0 {
		for w, word := range v.dirty {
			for ; word != 0; word &= word - 1 {
				h := 64*w + bits.TrailingZeros64(word)
				v.slotD[h], v.ramD[h], v.cpuD[h], v.netD[h] = 0, 0, 0, 0
			}
			v.dirty[w] = 0
		}
	}
	if v.lent {
		v.commits, v.lent = nil, false
	} else {
		v.commits = v.commits[:0]
	}
	v.blocks = nil
	v.hasBest = false
}

// sizeScratch sizes the per-host overlay deltas to the cluster's hosts,
// which a cluster fixes when it is built.
func (v *AllocView) sizeScratch() {
	n := v.eng.cl.NumHosts()
	v.slotD, v.ramD, v.cpuD = make([]int32, n), make([]int32, n), make([]int32, n)
	v.netD, v.dirty = make([]float64, n), make([]uint64, (n+63)/64)
}

// HostOf returns where the view places vm: its staged position if one
// of this view's commits reached its near word, otherwise the cluster's.
// The table covers every registered VM (the cluster's own invariant), so
// an ID outside it is unknown. This is all the kernel's per-edge loops
// pay — it must stay within the inliner's budget (CI checks) — and a
// view that staged nothing, the live view always, pays one test of the
// overlay beyond the table's load.
func (v *AllocView) HostOf(vm cluster.VMID) cluster.HostID {
	// VMID arithmetic wraps, so an ID below the base lands past any
	// table a 32-bit ID space can hold.
	i := uint(vm - v.denseBase)
	if i >= uint(len(v.dense)) {
		return cluster.NoHost
	}
	if len(v.words) > 0 {
		if p := v.staged[i/64]; p != nil {
			return p[i%64]
		}
	}
	return v.dense[i]
}

// Commits returns the decisions staged so far, in commit order. The
// slice is owned by the view, or lies in the storage lent to it.
func (v *AllocView) Commits() []Decision { return v.commits }

// StageInto lends the view storage for what it stages until its next
// reset: Commit stages its decisions into buf from the front, and
// Commits returns buf[:n]; the positions of the VMs its commits reach go
// into blocks, which views staging concurrently may share. A caller lends
// it after a reset, before the first Commit, with room in buf for every
// commit it can stage; a view lent nothing, or one that outgrows cap(buf),
// keeps storage of its own.
func (v *AllocView) StageInto(buf []Decision, blocks *StageBlocks) {
	if len(v.commits) > 0 {
		panic("core: StageInto after a Commit")
	}
	v.commits, v.lent, v.blocks = buf[:0], true, blocks
}

// StageBlocks is storage for frozen views' staged positions that one
// caller lends to many views at once (StageInto): the first mark in a
// near word takes the next free block, whichever view marks it. Reset,
// called while no view it was lent to stages, frees every block; a block
// is allocated only when the views lent it since the last Reset stage
// more near words together than ever before, and kept from then on. The
// zero value is ready to use.
type StageBlocks struct {
	free  []*[64]cluster.HostID
	next  atomic.Int64
	mu    sync.Mutex
	extra []*[64]cluster.HostID // allocated past free since the last Reset
}

// Reset frees every block for the views lent them next.
func (b *StageBlocks) Reset() {
	b.free = append(b.free, b.extra...)
	clear(b.extra)
	b.extra = b.extra[:0]
	b.next.Store(0)
}

// take returns a free block, or a new one kept from the next Reset on.
func (b *StageBlocks) take() *[64]cluster.HostID {
	if i := b.next.Add(1) - 1; i < int64(len(b.free)) {
		return b.free[i]
	}
	p := new([64]cluster.HostID)
	b.mu.Lock()
	b.extra = append(b.extra, p)
	b.mu.Unlock()
	return p
}

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
// folded in, and u's demand; ok is false for an unregistered VM or an
// unknown host. Its NICLoad is the engine's bound on the target's load
// (see Engine), exact where nicUp is 0; the live view, whose loads are
// not frozen, first syncs the accounting unless the bound holds.
func (v *AllocView) probe(u cluster.VMID, target cluster.HostID) (r Room, n Need, ok bool) {
	e := v.eng
	n.RAMMB, n.CPUMilli, ok = e.cl.Demand(u)
	if !ok || target < 0 || int(target) >= e.cl.NumHosts() {
		return r, n, false
	}
	if v.live {
		e.syncUnbounded()
	}
	host, _ := e.cl.Host(target)
	return Room{
		Slots:    e.cl.FreeSlots(target) - int(v.slotD[target]),
		RAMMB:    e.cl.FreeRAMMB(target) - int(v.ramD[target]),
		CPUMilli: e.cl.FreeCPUMilli(target) - int(v.cpuD[target]),
		CPUCap:   host.CPUMilli, NICMbps: host.NICMbps,
		NICLoad: e.hostNet[target] + e.nicUp[target] + v.netD[target],
	}, n, true
}

// Admissible reports whether target admits u (Admit), with u's peers
// where the view places them. A VM is admissible on its own host.
//
// The answer is exact, though probe reads a bound on the target's NIC
// load: for a fixed Need, Admit's NIC clause never turns to admit as the
// load rises, so a bound that admits proves admission, and a refusal by
// capacity alone or under a bound that is exact (nicUp 0) stands. Only a
// NIC refusal under a raised bound reads the exact load (exactNICLoad).
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
	ok = v.admitBounded(r, n, target)
	if checkBound && ok != v.admitExact(r, n, target) {
		panic(fmt.Sprintf("core: admission of VM %d on host %d from the NIC bound is %v, the exact load says %v", u, target, ok, !ok))
	}
	return ok
}

// admitBounded is Admit of need n on target, whose room r carries the
// NIC bound, reading the exact load only when the bound alone refuses.
func (v *AllocView) admitBounded(r Room, n Need, target cluster.HostID) bool {
	if Admit(r, n) {
		return true
	}
	if v.eng.nicUp[target] == 0 {
		return false
	}
	capOnly := r
	capOnly.NICMbps = 0
	if !Admit(capOnly, n) {
		return false
	}
	return v.admitExact(r, n, target)
}

// admitExact is Admit of need n on target with the target's exact NIC
// load, as the view places its staged moves, in r's place.
func (v *AllocView) admitExact(r Room, n Need, target cluster.HostID) bool {
	r.NICLoad = v.eng.exactNICLoad(target) + v.netD[target]
	return Admit(r, n)
}

// checkBound makes every admission also compute the answer from the
// exact NIC load and panic unless the two agree — the differential check
// of the bound. Tests only: the scorecheck build tag sets it.
var checkBound bool

// BestMigration evaluates the S-CORE migration policy for token-holder u
// (Kernel.Best): u's neighbors are resolved once, and the kernel asks
// Admissible of the candidates that could become the answer.
//
// BestMigration is the pure kernel: it always evaluates in full and
// writes nothing but the view's own scratch (the refusing hosts stay in
// the kernel for Visit). Round drivers call Visit.
func (v *AllocView) BestMigration(u cluster.VMID) (Decision, bool) {
	v.hasBest = false
	cur := v.HostOf(u)
	if cur == cluster.NoHost {
		v.k.refusals = v.k.refusals[:0]
		return Decision{}, false
	}
	v.resolve(u, cur)
	d, ok := v.k.Best(u, v)
	v.best, v.hasBest = d, ok
	return d, ok
}

// Commit stages a decision in the view: the VM is recorded at its new
// host and the capacity and NIC-load deltas are folded, so subsequent
// decisions in this view see the move. The underlying cluster is not
// touched; the caller replays Commits against the engine in a
// sequential merge phase. Returns the ΔC realized under the view: for
// the decision the view's last BestMigration returned, with nothing
// committed or reset since, that decision's ΔC, which a fresh Delta
// would price as the same Kernel.score sequence, bit for bit.
func (v *AllocView) Commit(d Decision) (float64, error) {
	fresh := v.hasBest && d == v.best
	v.hasBest = false
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
	realized := d.Delta
	if !fresh {
		realized = v.Delta(d.VM, d.Target)
	}
	v.slotD[cur]--
	v.slotD[d.Target]++
	v.ramD[cur] -= int32(n.RAMMB)
	v.ramD[d.Target] += int32(n.RAMMB)
	v.cpuD[cur] -= int32(n.CPUMilli)
	v.cpuD[d.Target] += int32(n.CPUMilli)
	// Only the source and the target can gain room, so only their racks
	// are touched for Visit (see stillQuiet); a peer's host elsewhere is
	// written, its NIC-load delta netting to exactly 0 (foldNICLoad). The
	// mover and its peers are marked. The NIC-load deltas are folded
	// before the overlay records the move so peers' positions are read
	// consistently.
	v.touch(cur)
	v.touch(d.Target)
	v.mark(d.VM)
	for _, ed := range v.eng.tm.NeighborEdges(d.VM) {
		hz := v.HostOf(ed.Peer)
		v.write(hz)
		v.mark(ed.Peer)
		foldNICLoad(v.netD, cur, d.Target, hz, ed.Rate)
	}
	i := uint(d.VM - v.denseBase) // placed, so inside the table, and marked
	v.staged[i/64][i%64] = d.Target
	v.commits = append(v.commits, Decision{VM: d.VM, From: cur, Target: d.Target, Delta: realized})
	return realized, nil
}
