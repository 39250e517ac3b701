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
//	place / move / remove of w (placement   w and every peer of w; the source host relaxed
//	  changelog, folded before the next     (room freed) and the target host (its NIC load
//	  visit), a staged commit of w          may drop: w's traffic with peers there stops);
//	  stale-rejected at merge (Rejected:    a peer's host elsewhere keeps its room and its
//	  the reverse move)                     NIC load bit for bit (see foldNICLoad)
//	edge (a, b) changed rate (changelog,    a and b; both their hosts relaxed when the rate
//	  folded before the next visit)         fell and a and b sit on different hosts
//	re-spec of w (a From == To entry of     w; w's host relaxed
//	  the placement changelog)
//	a host gained load or lost room         nothing
//	Restore, SetTraffic, either changelog   every verdict dropped
//	  outrun, 32-bit clock wrap
//	a view's own staged commit of w,        w and every peer of w marked near in that view;
//	  within the round                      it re-evaluates a near u if u's or a peer's
//	                                        overlay host differs from the cluster's, and a
//	                                        refused u if the commit's source or target
//	                                        rack is one the verdict watches (below)
//
// "Dirty" clears the VM's verdict. "Relaxed" acts only on a host that
// has refused somebody while offering ΔC > c_m (a per-host flag set when
// such a verdict is recorded): the flag clears, and the host and its
// rack are stamped with a fresh clock value. A no-move verdict asked
// admission of every host offering ΔC > c_m, and all of them refused;
// ΔC depends only on where u and its peers sit, which would dirty u, so
// only a refusing host gaining room can change the verdict. A verdict
// refused by one host keeps that host (visitMemo.block) and is stale
// once the host's own stamp is newer than the verdict, or a staged
// commit of the view touched its rack. A verdict refused by several is
// stale once any peer's rack carries a stamp newer than the verdict, or
// was touched — every blocking host sits in a peer's rack, and the peers
// cannot have moved or u would be dirty. A verdict with no refusal is
// also a set bit of the memo's settled bitmap, and a ring pass
// (internal/shard) ANDs its ring with that bitmap, less the view's near
// marks (AllocView.Unsettled): a settled VM no staged move is near is
// never visited — its skip costs the ring's share of one word test. A
// visited skip costs one load, plus one bit test once the view has
// staged commits; a verdict refused by one host adds that host's stamp
// (and one touched-rack test in a staged view), one refused by several
// a rack stamp per peer (and as many touched-rack tests), and only a
// near VM compares each peer's staged host with the cluster's — one walk
// of its row for the few visits a staged move reached. An
// evaluated visit costs one resolve pass over u's row, then one
// multiply-add per peer for each peer host and for the peer-free key of
// each rack whose bound lets its key win (Kernel.Score; see Kernel.Best),
// summed in row order, so
// the ΔC a visit decides on is bit for bit the ΔC Commit realizes and the
// merge checks — or, under its clean rule, lands without pricing again.
//
// Frozen views decide against the cluster's table plus an overlay,
// concurrently; a view's reset costs what it staged: it clears the near
// words and staged positions its commits set and the deltas of the hosts
// they touched. A frozen view
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
// The memo learns of every event but a rejected commit from the two
// changelogs, at a sequential point before verdicts are read (memoSync),
// so a placement write costs the memo nothing until then. The placement
// changelog reaches back the plant's VM slots, more than a round writes,
// so only a Restore or writes made between rounds past that reach drop
// verdicts. The memo is inert — Visit is plain BestMigration — after
// Detach.
type visitMemo struct {
	// base/quiet/block are the per-VM table over the cluster's ID
	// window; nil when the memo is inert. quiet[i] != 0 means VM
	// base+i's last full evaluation, at clock quiet[i], found no move;
	// block[i] names the hosts offering ΔC > c_m that refused it:
	// noBlock, one host h ≥ 0, or severalBlocks.
	base  cluster.VMID
	quiet []uint32
	block []int32
	// settled is a bitmap over the same table: bit i is set exactly when
	// quiet[i] != 0 && block[i] == noBlock, a verdict stillQuiet confirms
	// at its first test for any VM no staged move is near
	// (AllocView.Unsettled).
	// A word holds VMs of different rings, so record, which concurrent
	// views call, flips bits by compare-and-swap.
	settled []atomic.Uint64
	// blocks[h]: h refused somebody while offering ΔC > c_m and has not
	// been relaxed since. Set from concurrent views, hence atomic.
	blocks []atomic.Bool
	// hostRelaxed[h] is the clock of h's last relaxation while blocking;
	// relaxed[r] that of any blocking host in rack r, the last slot
	// serving hosts outside the rack table.
	hostRelaxed []uint32
	relaxed     []uint32
	clock       uint32
	// tmGen and clGen are the traffic and placement generations whose
	// changes are folded in.
	tmGen, clGen uint64
}

// The values of visitMemo.block other than a blocking host: no host
// refused the verdict, or several did — or one outside the host table,
// which no relaxation reaches.
const (
	noBlock       int32 = -1
	severalBlocks int32 = -2
)

// checkSkips makes every skipped visit also run the kernel and panic on
// disagreement — the differential check of the memo. Tests only: core's
// TestMain sets it, and the scorecheck build tag does for the test
// binaries of the round drivers.
var checkSkips bool

// off makes the memo inert: every visit evaluates in full.
func (m *visitMemo) off() { m.quiet, m.block, m.settled = nil, nil, nil }

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
		m.settle(i, false)
	}
}

// settle sets or clears table entry i's settled bit.
func (m *visitMemo) settle(i int, on bool) {
	w, bit := &m.settled[i/64], uint64(1)<<(i%64)
	for {
		old := w.Load()
		next := old &^ bit
		if on {
			next = old | bit
		}
		if next == old || w.CompareAndSwap(old, next) {
			return
		}
	}
}

// rebuildSettled derives the settled bitmap from the table, reusing its
// storage.
func (m *visitMemo) rebuildSettled() {
	n := (len(m.quiet) + 63) / 64
	if cap(m.settled) < n {
		m.settled = make([]atomic.Uint64, n)
	}
	m.settled = m.settled[:n]
	for w := range m.settled {
		var word uint64
		for i := 64 * w; i < min(64*w+64, len(m.quiet)); i++ {
			if m.quiet[i] != 0 && m.block[i] == noBlock {
				word |= 1 << (i % 64)
			}
		}
		m.settled[w].Store(word)
	}
}

// drop forgets every verdict. Rack stamps stay (they only ever make
// verdicts stale), host flags clear with the verdicts they served.
func (m *visitMemo) drop() {
	clear(m.quiet)
	clear(m.settled)
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
		clear(m.hostRelaxed)
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
		m.settle(i, false)
		return
	}
	m.quiet[i] = stamp
	b := noBlock
	switch {
	case len(refusals) == 1 && int(refusals[0]) < len(m.blocks):
		b = int32(refusals[0])
	case len(refusals) > 0:
		b = severalBlocks
	}
	m.block[i] = b
	m.settle(i, b == noBlock)
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
	quiet, block := make([]uint32, n), make([]int32, n)
	lo := max(int64(base), int64(m.base))
	hi := min(int64(base)+int64(n), int64(m.base)+int64(len(m.quiet)))
	if lo < hi {
		copy(quiet[lo-int64(base):hi-int64(base)], m.quiet[lo-int64(m.base):])
		copy(block[lo-int64(base):hi-int64(base)], m.block[lo-int64(m.base):])
	}
	m.base, m.quiet, m.block = base, quiet, block
	m.rebuildSettled()
}

// memoSync brings the memo up to date at a sequential point — before a
// serial visit, and when a view is (re)primed: decide whether it may run
// at all, follow the cluster's ID window, fold the placement writes and
// edge changes since the last sync. The memo reads both changelogs itself
// rather than through a traffic.Follower: it clears verdicts instead of
// summing rates, so where a follower would refold every pair, the memo
// drops every verdict.
func (e *Engine) memoSync() {
	if e.detached {
		return
	}
	m := &e.memo
	base, alloc := e.cl.DenseAlloc()
	n := len(alloc)
	switch {
	case m.quiet == nil:
		// (Re)starting: no verdict exists, so there is nothing to fold.
		m.base, m.quiet, m.block = base, make([]uint32, n), make([]int32, n)
		m.rebuildSettled()
		if m.blocks == nil {
			m.blocks = make([]atomic.Bool, e.cl.NumHosts())
			m.hostRelaxed = make([]uint32, e.cl.NumHosts())
			m.relaxed = make([]uint32, len(e.kern.rackHosts)+1)
			m.clock = 1
		}
		m.tmGen, m.clGen = e.tm.Generation(), e.cl.MoveGeneration()
		return
	case base != m.base || n != len(m.quiet):
		m.resize(base, n)
	}
	if gen := e.cl.MoveGeneration(); gen != m.clGen {
		moves, ok := e.cl.MovesSince(m.clGen)
		m.clGen = gen
		if !ok {
			m.drop()
		}
		for _, ch := range moves {
			if ch.From == ch.To { // a re-spec
				m.dirty(ch.VM)
				e.relax(ch.From)
			} else {
				e.memoMove(ch.VM, ch.From, ch.To)
			}
		}
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
	// A pair crossing NICs loads both endpoints' hosts by its rate, so
	// only a fall frees room, and only where the endpoints sit apart. A
	// host an endpoint left since is the source of a folded move.
	for _, ch := range changes {
		m.dirty(ch.A)
		m.dirty(ch.B)
		if ch.New < ch.Old {
			if ha, hb := e.cl.HostOf(ch.A), e.cl.HostOf(ch.B); ha != hb {
				e.relax(ha)
				e.relax(hb)
			}
		}
	}
}

// relax notes that h may have gained room — free slots, RAM or CPU, or a
// lower NIC load: if it blocks somebody, the verdicts it took part in go
// stale. It stamps h and h's rack with a fresh clock value.
func (e *Engine) relax(h cluster.HostID) {
	m := &e.memo
	if h < 0 || int(h) >= len(m.blocks) || !m.blocks[h].Load() {
		return
	}
	m.blocks[h].Store(false)
	t := m.tick()
	m.hostRelaxed[h] = t
	m.relaxed[e.kern.rackSlot(h)] = t
}

// memoMove invalidates for one placement change of vm (from or to may be
// NoHost): vm and its peers are dirtied, and only from and to relaxed — a
// peer's host elsewhere sees the pair's −r and +r, which net to exactly 0
// (foldNICLoad). With pending edge changes the row read here is the
// current one; peers it no longer lists are dirtied when the changelog
// folds.
func (e *Engine) memoMove(vm cluster.VMID, from, to cluster.HostID) {
	m := &e.memo
	if m.quiet == nil {
		return
	}
	m.dirty(vm)
	for _, ed := range e.tm.NeighborEdges(vm) {
		m.dirty(ed.Peer)
	}
	e.relax(from)
	e.relax(to)
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

// stillQuiet is the skip test for a verdict recorded at clock q with
// blocking hosts block (visitMemo.block). A verdict refused by one host
// is stale once that host was relaxed after q or, once this view has
// staged commits, a staged commit touched its rack. A verdict refused
// by several is stale once a rack that can hold one of them — a peer's
// rack — was relaxed after q or touched. When u is near a staged move
// the test also takes agreement of the overlay with the cluster on u and
// its peers. Near means marked: Commit marks the mover and every peer of
// it, and the traffic matrix is symmetric and frozen for the view's
// life, so an unmarked u has no peer this view moved and the row walk
// could only confirm it; a VM moved out and back, or outside the table,
// is walked.
func (v *AllocView) stillQuiet(u cluster.VMID, q uint32, block int32) bool {
	staged := len(v.commits) > 0
	near := staged && v.marked(u)
	e := v.eng
	m := &e.memo
	if block >= 0 && (m.hostRelaxed[block] > q || (staged && v.touched[e.kern.rackSlot(cluster.HostID(block))] == v.touchEpoch)) {
		return false
	}
	refused := block == severalBlocks
	if !near && !refused {
		return true
	}
	if near && v.HostOf(u) != e.cl.HostOf(u) {
		return false
	}
	for _, ed := range e.tm.NeighborEdges(u) {
		hz := e.cl.HostOf(ed.Peer)
		if near && v.HostOf(ed.Peer) != hz {
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
	if q := m.quiet[i]; q != 0 && v.stillQuiet(u, q, m.block[i]) {
		if checkSkips {
			if d, found := v.BestMigration(u); found {
				panic(fmt.Sprintf("core: skipped VM %d but the kernel moves it: %+v", u, d))
			}
		}
		return Decision{}, false, true
	}
	if checkSkips && v.unsettled(m.base, i/64)&(1<<(i%64)) == 0 {
		panic(fmt.Sprintf("core: VM %d is settled in the bitmap but its visit was not skipped", u))
	}
	dec, ok = v.BestMigration(u)
	m.record(i, ok, v.k.refusals, v.stamp)
	return dec, ok, false
}

// Unsettled returns word w of the VMs a visit in this view may evaluate,
// over the IDs base+64w … base+64w+63: a clear bit is a VM whose Visit
// returns skipped at stillQuiet's first test — a settled verdict (no
// move, no refusal) that no staged commit of this view is near — so a
// ring may pass over it without calling Visit. The word is all ones when
// the memo is inert, base is not the memo's, w lies past its table, or
// the differential check is on (then every skip is visited and checked).
// Read it again after a Commit: the commit may mark later VMs near.
func (v *AllocView) Unsettled(base cluster.VMID, w int) uint64 {
	if checkSkips {
		return ^uint64(0)
	}
	return v.unsettled(base, w)
}

func (v *AllocView) unsettled(base cluster.VMID, w int) uint64 {
	m := &v.eng.memo
	if base != m.base || uint(w) >= uint(len(m.settled)) {
		return ^uint64(0)
	}
	word := ^m.settled[w].Load()
	if len(v.commits) > 0 {
		if base != v.denseBase || uint(w) >= uint(len(v.near)) {
			return ^uint64(0)
		}
		word |= v.near[w]
	}
	return word
}

// touch marks h's rack as one where a staged commit of this view may
// have freed room (see stillQuiet), and h as written (write).
func (v *AllocView) touch(h cluster.HostID) {
	v.touched[v.k.rackSlot(h)] = v.touchEpoch
	v.write(h)
}

// write marks h's overlay deltas as ones the next reset clears
// (unstage).
func (v *AllocView) write(h cluster.HostID) {
	if h != cluster.NoHost {
		i := uint(h)
		v.dirty[i/64] |= 1 << (i % 64)
	}
}

// mark records vm as near one of this view's staged commits (see
// stillQuiet). The first mark in a near word makes the positions of the
// word's VMs the view's own (stage); Commit then overwrites the mover's
// with its target. marked reports the bit. A VM past the bitmap has no
// bit and counts as near.
func (v *AllocView) mark(vm cluster.VMID) {
	i := uint(vm - v.denseBase)
	if w := i / 64; w < uint(len(v.near)) {
		if v.near[w] == 0 {
			v.stage(w)
		}
		v.near[w] |= 1 << (i % 64)
	}
}

// stage gives near word w a block holding where the view places the
// word's VMs now: the cluster's table, frozen for the view's life. The
// block comes from the lent StageBlocks, or from the view's own, all free
// again at the first stage after a reset (which left none in use).
func (v *AllocView) stage(w uint) {
	b := v.blocks
	if b == nil {
		b = &v.own
		if len(v.words) == 0 {
			b.Reset()
		}
	}
	p := b.take()
	copy(p[:], v.dense[64*w:])
	v.staged[w] = p
	v.words = append(v.words, int32(w))
}

func (v *AllocView) marked(vm cluster.VMID) bool {
	i := uint(vm - v.denseBase)
	return i/64 >= uint(len(v.near)) || v.near[i/64]&(1<<(i%64)) != 0
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
