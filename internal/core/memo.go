package core

import (
	"fmt"
	"sync/atomic"

	"github.com/score-dc/score/internal/cluster"
)

// The token visit (AllocView.Visit; Engine.Visit is that of the engine's
// live view) is BestMigration plus two exact shortcuts. Neither changes
// a decision: Visit returns what BestMigration would have returned, bit
// for bit.
//
// ΔC-first pruning. Kernel.fold takes ΔC before it asks the
// candidate for admission and asks only when ΔC > c_m and ΔC beats the
// running best. BestMigration returns the first admissible candidate, in
// probe order, of maximal ΔC, if that ΔC exceeds c_m. A candidate with
// ΔC ≤ c_m can only ever hold the running best until a larger ΔC
// replaces it or the final c_m test discards it; a candidate with
// ΔC ≤ best.Delta never replaces the best. Skipping their admission
// probes therefore leaves the answer unchanged, and the probe set does
// not depend on admission at all. After pruning, "no move" means exactly:
// every probed host either offers ΔC ≤ c_m or offers more and refused —
// the blocking hosts.
//
// The quiet-VM memo. A VM whose last full evaluation found no move is
// skipped on later visits until an event that could change that
// verdict. The verdict for u depends on u's placement, demand and edge
// rates, on every peer's placement (they fix each candidate's ΔC and the
// candidate set: the peers' hosts and racks), and — through the
// admission probe, asked only of hosts with ΔC > c_m — on the free
// slots/RAM/CPU and NIC load of u's blocking hosts. More room can turn a
// refusal into an admission; less room never can, so tightening
// invalidates nothing. Events and what they dirty:
//
//	event                                   dirtied
//	--------------------------------------  ----------------------------------------------
//	place / move / remove of w (observer),  w and every peer of w; the source host relaxed
//	  a staged commit of w stale-rejected   (room freed); with bandwidth admission on, the
//	  at merge (Rejected: the reverse move) target host and every peer's host relaxed too
//	                                        (their NIC load was rewritten, −r/+r included)
//	edge (a, b) changed rate (changelog,    a and b; with bandwidth admission on, both
//	  folded before the next visit)         their hosts relaxed
//	re-spec of w (ObserveRespec)            w; w's host relaxed
//	a host gained load or lost room         nothing
//	Restore, SetTraffic, changelog overrun, every verdict dropped
//	  32-bit clock wrap
//	a view's own staged commit, within      that view re-evaluates u if a peer's overlay
//	  the round                             host differs from the cluster's, or if u was
//	                                        refused and the commit touched a peer's rack
//
// "Dirty" clears the VM's verdict. "Relaxed" acts only on a host that
// has refused somebody while offering ΔC > c_m (a per-host flag set when
// such a verdict is recorded): the flag clears and the host's rack is
// stamped with a fresh clock value. A verdict that had a refusal is
// stale once any peer's rack carries a stamp newer than the verdict —
// every blocking host sits in a peer's rack, and the peers cannot have
// moved or u would be dirty. So a skip costs one load, plus one rack
// stamp per peer for verdicts that had a refusal; an evaluated visit
// costs one resolve pass over u's row, then one multiply-add per peer
// for each peer host and each expanded rack (Kernel.Score; see
// Kernel.Best), summed in row order, so the ΔC a visit decides on is bit
// for bit the ΔC Commit and Apply realize.
//
// Frozen views decide against an overlay, concurrently. A frozen view
// stamps its verdicts with the clock frozen when the view was reset, so
// every move merged afterwards — its own included — lands later and
// re-dirties conservatively; a staged commit rejected at merge is
// invalidated as the reverse move, because later verdicts of that view
// were computed against a move that never happened. The live view has
// no overlay and is synced before every visit, so it stamps with the
// current clock. Per-VM entries are written only by the one ring that
// visits the VM; per-host flags are atomics. BestMigration itself
// records nothing and shares no writes.
//
// The memo is inert — Visit is plain BestMigration — when
// Config.Admission is set (an opaque predicate has unknown
// dependencies) and after Detach (no events arrive).
type visitMemo struct {
	// base/quiet/refused are the per-VM table over the cluster's ID
	// window; nil when the memo is inert. quiet[i] != 0 means VM
	// base+i's last full evaluation, at clock quiet[i], found no move;
	// refused[i] that at least one host offering ΔC > c_m refused it.
	base    cluster.VMID
	quiet   []uint32
	refused []bool
	// blocks[h]: h refused somebody while offering ΔC > c_m and has not
	// been relaxed since. Set from concurrent views, hence atomic.
	blocks []atomic.Bool
	// relaxed[r] is the clock of the last relaxation of a blocking host
	// in rack r; the last slot serves hosts outside the rack table.
	relaxed []uint32
	clock   uint32
	// tmGen is the traffic generation whose edge changes are folded in.
	tmGen uint64
}

// checkSkips makes every skipped visit also run the kernel and panic on
// disagreement — the differential check of the memo. Tests only: core's
// TestMain sets it, and the scorecheck build tag does for the test
// binaries of the round drivers.
var checkSkips bool

// off makes the memo inert: every visit evaluates in full.
func (m *visitMemo) off() { m.quiet, m.refused = nil, nil }

// slot maps a VM to its table index; false when the memo is inert or
// the VM lies outside the table (registered after the last sync).
func (m *visitMemo) slot(vm cluster.VMID) (int, bool) {
	i := int64(vm) - int64(m.base)
	if uint64(i) >= uint64(len(m.quiet)) {
		return 0, false
	}
	return int(i), true
}

func (m *visitMemo) dirty(vm cluster.VMID) {
	if i, ok := m.slot(vm); ok {
		m.quiet[i] = 0
	}
}

// drop forgets every verdict. Rack stamps stay (they only ever make
// verdicts stale), host flags clear with the verdicts they served.
func (m *visitMemo) drop() {
	clear(m.quiet)
	for h := range m.blocks {
		m.blocks[h].Store(false)
	}
}

// tick advances the clock; a wrap drops everything, as stale stamps
// would otherwise compare as fresh.
func (m *visitMemo) tick() uint32 {
	m.clock++
	if m.clock == 0 {
		m.drop()
		clear(m.relaxed)
		m.clock = 1
	}
	return m.clock
}

// record stores the outcome of a full evaluation of table entry i: a
// no-move verdict at stamp with the hosts that refused it, or nothing
// when a move was found.
func (m *visitMemo) record(i int, moved bool, refusals []cluster.HostID, stamp uint32) {
	if moved {
		m.quiet[i] = 0
		return
	}
	m.quiet[i] = stamp
	m.refused[i] = len(refusals) > 0
	for _, h := range refusals {
		// Load first: a set flag is the common case, and a plain read
		// keeps concurrent views off each other's cache lines.
		if int(h) < len(m.blocks) && !m.blocks[h].Load() {
			m.blocks[h].Store(true)
		}
	}
}

// resize re-bases the per-VM table onto the cluster's current ID
// window, keeping the verdicts of VMs in both windows.
func (m *visitMemo) resize(base cluster.VMID, n int) {
	quiet, refused := make([]uint32, n), make([]bool, n)
	lo := max(int64(base), int64(m.base))
	hi := min(int64(base)+int64(n), int64(m.base)+int64(len(m.quiet)))
	if lo < hi {
		copy(quiet[lo-int64(base):hi-int64(base)], m.quiet[lo-int64(m.base):])
		copy(refused[lo-int64(base):hi-int64(base)], m.refused[lo-int64(m.base):])
	}
	m.base, m.quiet, m.refused = base, quiet, refused
}

// memoSync brings the memo up to date at a sequential point — before a
// serial visit, and when a view is (re)primed: decide whether it may run
// at all, follow the cluster's ID window, fold pending edge changes.
func (e *Engine) memoSync() {
	m := &e.memo
	base, alloc := e.cl.DenseAlloc()
	n := len(alloc)
	if e.detach == nil || e.cfg.Admission != nil {
		m.off()
		return
	}
	switch {
	case m.quiet == nil:
		// (Re)starting: no verdict exists, so there is nothing to fold.
		m.base, m.quiet, m.refused = base, make([]uint32, n), make([]bool, n)
		if m.blocks == nil {
			m.blocks = make([]atomic.Bool, e.cl.NumHosts())
			m.relaxed = make([]uint32, len(e.kern.rackHosts)+1)
			m.clock = 1
		}
		m.tmGen = e.tm.Generation()
		return
	case base != m.base || n != len(m.quiet):
		m.resize(base, n)
	}
	gen := e.tm.Generation()
	if gen == m.tmGen {
		return
	}
	changes, ok := e.tm.ChangesSince(m.tmGen)
	m.tmGen = gen
	if !ok {
		m.drop()
		return
	}
	nic := e.cfg.BandwidthThreshold > 0
	for _, ch := range changes {
		m.dirty(ch.A)
		m.dirty(ch.B)
		if nic {
			e.relax(e.cl.HostOf(ch.A))
			e.relax(e.cl.HostOf(ch.B))
		}
	}
}

// relax notes that h gained room or had its NIC load rewritten: if it
// blocks somebody, the verdicts it took part in go stale.
func (e *Engine) relax(h cluster.HostID) {
	m := &e.memo
	if h < 0 || int(h) >= len(m.blocks) || !m.blocks[h].Load() {
		return
	}
	m.blocks[h].Store(false)
	m.relaxed[e.kern.rackSlot(h)] = m.tick()
}

// memoMove invalidates for one placement change of vm (from or to may be
// NoHost). With pending edge changes the row read here is the current
// one; peers it no longer lists are dirtied when the changelog folds.
func (e *Engine) memoMove(vm cluster.VMID, from, to cluster.HostID) {
	m := &e.memo
	if m.quiet == nil {
		return
	}
	nic := e.cfg.BandwidthThreshold > 0
	m.dirty(vm)
	for _, ed := range e.tm.NeighborEdges(vm) {
		m.dirty(ed.Peer)
		if nic {
			e.relax(e.cl.HostOf(ed.Peer))
		}
	}
	e.relax(from)
	if nic {
		e.relax(to)
	}
}

// onRespec is the cluster's capacity-only notification: vm's demand
// changed in place, so its own verdict is void and its host may have
// gained room.
func (e *Engine) onRespec(vm cluster.VMID, host cluster.HostID) {
	if e.memo.quiet == nil {
		return
	}
	e.memo.dirty(vm)
	e.relax(host)
}

// Rejected tells the engine that d, staged in a view by Commit, was
// dropped by the merge pass instead of applied. Verdicts that view
// recorded after the commit were computed against a move that never
// happened; they are invalidated as the reverse move would.
func (e *Engine) Rejected(d Decision) { e.memoMove(d.VM, d.Target, d.From) }

// Visit is the token visit of Section V-A for holder u against the
// current allocation: AllocView.Visit on the live view, brought up to
// date first — pending edge changes folded, verdicts stamped with the
// clock as it stands now.
func (e *Engine) Visit(u cluster.VMID) (dec Decision, ok, skipped bool) {
	e.memoSync()
	v := e.liveView()
	v.stamp = e.memo.clock
	return v.Visit(u)
}

// stillQuiet is the skip test for a verdict recorded at clock q. A
// verdict that had a refusal is stale once a rack that can hold one of
// u's blocking hosts — a peer's rack — was relaxed after q. Once this
// view has staged commits it also takes agreement of the overlay with
// the cluster on u and its peers, and no staged commit touching such a
// rack.
func (v *AllocView) stillQuiet(u cluster.VMID, q uint32, refused bool) bool {
	staged := len(v.commits) > 0
	if !staged && !refused {
		return true
	}
	e := v.eng
	m := &e.memo
	if staged && v.HostOf(u) != e.cl.HostOf(u) {
		return false
	}
	for _, ed := range e.tm.NeighborEdges(u) {
		hz := e.cl.HostOf(ed.Peer)
		if staged && v.HostOf(ed.Peer) != hz {
			return false
		}
		if refused && hz != cluster.NoHost {
			r := e.kern.rackSlot(hz)
			if m.relaxed[r] > q || (staged && v.touched[r] == v.touchEpoch) {
				return false
			}
		}
	}
	return true
}

// Visit is the token visit of Section V-A for holder u: BestMigration,
// skipped when u's last full evaluation found no move and nothing that
// verdict depends on has changed since (see visitMemo). The decision is
// always the one BestMigration would return; skipped reports that it
// was not run. Every round driver calls Visit; BestMigration remains the
// pure kernel. Verdicts are stamped with v.stamp.
func (v *AllocView) Visit(u cluster.VMID) (dec Decision, ok, skipped bool) {
	m := &v.eng.memo
	i, tracked := m.slot(u)
	if !tracked {
		dec, ok = v.BestMigration(u)
		return dec, ok, false
	}
	if q := m.quiet[i]; q != 0 && v.stillQuiet(u, q, m.refused[i]) {
		if checkSkips {
			if d, found := v.BestMigration(u); found {
				panic(fmt.Sprintf("core: skipped VM %d but the kernel moves it: %+v", u, d))
			}
		}
		return Decision{}, false, true
	}
	dec, ok = v.BestMigration(u)
	m.record(i, ok, v.k.refusals, v.stamp)
	return dec, ok, false
}

// touch marks h's rack as rewritten by one of this view's staged
// commits (see stillQuiet).
func (v *AllocView) touch(h cluster.HostID) {
	if h != cluster.NoHost {
		v.touched[v.k.rackSlot(h)] = v.touchEpoch
	}
}

// primeMemo syncs the engine's memo and freezes the view's verdict
// stamp; part of NewView/ResetView.
func (v *AllocView) primeMemo() {
	e := v.eng
	e.memoSync()
	v.stamp = e.memo.clock
	if len(v.touched) != len(e.kern.rackHosts)+1 {
		v.touched = make([]uint32, len(e.kern.rackHosts)+1)
		v.touchEpoch = 0
	}
	v.touchEpoch++
	if v.touchEpoch == 0 {
		clear(v.touched)
		v.touchEpoch = 1
	}
}
