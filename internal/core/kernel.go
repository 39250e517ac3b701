package core

import (
	"fmt"
	"slices"

	"github.com/score-dc/score/internal/cluster"
	"github.com/score-dc/score/internal/topology"
)

// Kernel is the half of the decision rule that needs no placement (see
// the package documentation); where a peer sits and whether a host
// admits the holder are its caller's answers. A decision is Begin, one
// Peer per located peer in row order, then Score for one target or Best
// for the whole rule. Clones share the level tables, which never change;
// concurrent decisions need a kernel each.
type Kernel struct {
	// rackOf/podOf flatten the topology's levels (the Topology contract: 0
	// same host, 1 same rack, 2 same pod, 3 via core) into per-host keys;
	// prefix[l] is cost.Prefix(l); rackHosts[r] is topo.HostsInRack(r),
	// and rackPos[h] is h's first index in its rack's list, −1 for a host
	// the list leaves out; widest is the longest rack list; cm is c_m
	// (Theorem 1).
	rackOf    []int32
	podOf     []int32
	rackPos   []int32
	prefix    [4]float64
	rackHosts [][]cluster.HostID
	widest    int
	cm        float64

	// Scratch: the holder's host and its keys, its peers in row order and
	// in probe order, the probed-host set, and the hosts that refused the
	// last Best while offering ΔC > c_m and more than the running best
	// (see visitMemo). probed is an epoch array: probed[h] == probeEpoch
	// marks h probed in this Best, probeEpoch−1 a peer's host not yet
	// probed. The epoch steps by two, so neither mark can match an older
	// one, and the array is cleared when it wraps. walk holds one rack's
	// unclaimed peer hosts (rackPeers).
	cur             cluster.HostID
	curRack, curPod int32
	peers           []peerEntry
	rank            []rankEntry
	probed          []uint32
	probeEpoch      uint32
	refusals        []cluster.HostID
	walk            []cluster.HostID
}

// peerEntry is what one peer's term of Eq. 5 needs that does not depend
// on the candidate: its host and keys, its level to the holder's host,
// w = 2·λ and before = Σ_{i≤ℓ} c_i at that level.
type peerEntry struct {
	host             cluster.HostID
	rack, pod, level int32
	w, before        float64
}

// rankEntry is one peer in probe order; w orders as λ does.
type rankEntry struct {
	host  cluster.HostID
	level int32
	w     float64
}

// Admitter answers the one question the kernel asks of the world: would
// target accept u? Best asks it only of a host offering ΔC > c_m and more
// than the running best.
type Admitter interface {
	Admissible(u cluster.VMID, target cluster.HostID) bool
}

// NewKernel builds the kernel a dom0 holds ("a precomputed location cost
// mapping", Section V-B4) over the topology's hosts.
func NewKernel(topo topology.Topology, cost CostModel, migrationCost float64) (*Kernel, error) {
	if err := checkLevels(topo, cost); err != nil {
		return nil, err
	}
	k := newKernel(topo, cost, migrationCost, topo.Hosts())
	return &k, nil
}

// checkLevels holds topo and cost to what the flattened tables assume,
// the rack shape included: every host HostsInRack(r) lists is in rack r,
// and the rack's hosts share one pod, so every host of a rack that holds
// no peer scores alike (Best).
func checkLevels(topo topology.Topology, cost CostModel) error {
	if topo == nil {
		return fmt.Errorf("core: nil dependency")
	}
	if topo.Depth() != 3 {
		return fmt.Errorf("core: topology %s has depth %d; the Topology contract defines levels by host, rack and pod (depth 3)", topo.Name(), topo.Depth())
	}
	if cost.Depth() < topo.Depth() {
		return fmt.Errorf("core: cost model depth %d < topology depth %d", cost.Depth(), topo.Depth())
	}
	for r := 0; r < topo.Racks(); r++ {
		hosts := topo.HostsInRack(r)
		for _, h := range hosts {
			if topo.RackOf(h) != r {
				return fmt.Errorf("core: topology %s lists host %d in rack %d, but RackOf gives %d; the Topology contract requires HostsInRack(r) to list hosts of rack r", topo.Name(), h, r, topo.RackOf(h))
			}
			if topo.PodOf(h) != topo.PodOf(hosts[0]) {
				return fmt.Errorf("core: topology %s splits rack %d across pods %d and %d; the Topology contract puts a rack in one pod", topo.Name(), r, topo.PodOf(hosts[0]), topo.PodOf(h))
			}
		}
	}
	return nil
}

// newKernel flattens the level tables over host IDs [0, span).
func newKernel(topo topology.Topology, cost CostModel, migrationCost float64, span int) Kernel {
	k := Kernel{rackOf: make([]int32, span), podOf: make([]int32, span), rackPos: make([]int32, span), rackHosts: make([][]cluster.HostID, topo.Racks()), cm: migrationCost}
	for h := range k.rackOf {
		k.rackOf[h] = int32(topo.RackOf(cluster.HostID(h)))
		k.podOf[h] = int32(topo.PodOf(cluster.HostID(h)))
		k.rackPos[h] = -1
	}
	for l := range k.prefix {
		k.prefix[l] = cost.Prefix(l)
	}
	for r := range k.rackHosts {
		k.rackHosts[r] = topo.HostsInRack(r)
		k.widest = max(k.widest, len(k.rackHosts[r]))
		for i, h := range k.rackHosts[r] {
			if uint(h) < uint(span) && k.rackPos[h] < 0 {
				k.rackPos[h] = int32(i)
			}
		}
	}
	return k
}

// Clone returns a kernel sharing k's tables, with scratch of its own.
func (k *Kernel) Clone() *Kernel {
	return &Kernel{rackOf: k.rackOf, podOf: k.podOf, rackPos: k.rackPos, prefix: k.prefix, rackHosts: k.rackHosts, widest: k.widest, cm: k.cm}
}

// Covers reports whether the tables cover host h, as Begin, Peer and
// Score require of every host they are given.
func (k *Kernel) Covers(h cluster.HostID) bool { return h >= 0 && int(h) < len(k.rackOf) }

// level returns ℓ(a, b) for two covered hosts.
func (k *Kernel) level(a, b cluster.HostID) int {
	switch {
	case a == b:
		return 0
	case k.rackOf[a] == k.rackOf[b]:
		return 1
	case k.podOf[a] == k.podOf[b]:
		return 2
	}
	return 3
}

// rackSlot is h's rack, or len(rackHosts) for a host outside the rack
// table, which has no rack to fall back to.
func (k *Kernel) rackSlot(h cluster.HostID) int {
	if r := int(k.rackOf[h]); r >= 0 && r < len(k.rackHosts) {
		return r
	}
	return len(k.rackHosts)
}

// Begin starts a decision for a holder placed on cur.
func (k *Kernel) Begin(cur cluster.HostID) {
	k.cur, k.curRack, k.curPod = cur, k.rackOf[cur], k.podOf[cur]
	k.peers = k.peers[:0]
}

// Peer adds the holder's next peer, on host h at rate Mb/s; its level to
// the holder follows from the keys as in level.
func (k *Kernel) Peer(h cluster.HostID, rate float64) {
	rack, pod, l := k.rackOf[h], k.podOf[h], int32(3)
	switch {
	case h == k.cur:
		l = 0
	case rack == k.curRack:
		l = 1
	case pod == k.curPod:
		l = 2
	}
	k.peers = append(k.peers, peerEntry{h, rack, pod, l, 2 * rate, k.prefix[l]})
}

// Score is ΔC (Eq. 5) of moving the holder to target:
//
//	ΔC = 2 Σ_{z∈Vu} λ(z,u) · (Σ_{i≤ℓ^A(z,u)} c_i − Σ_{i≤ℓ^{A'}(z,u)} c_i)
//
// Per peer, the level after the move follows from the target's keys as in
// level, and the terms are added in row order (score): the one
// implementation of Eq. 5, so every sum for a (holder, target) is the
// same float64 sequence.
func (k *Kernel) Score(target cluster.HostID) float64 {
	return k.score(target, k.rackOf[target], k.podOf[target])
}

// score is Score of a target host with keys rack and pod. A host no peer
// sits on scores like target cluster.NoHost with its keys: the rack's
// peer-free score (Best).
func (k *Kernel) score(target cluster.HostID, rack, pod int32) float64 {
	var delta float64
	for i := range k.peers {
		p := &k.peers[i]
		after := k.prefix[3]
		switch {
		case p.host == target:
			after = k.prefix[0]
		case p.rack == rack:
			after = k.prefix[1]
		case p.pod == pod:
			after = k.prefix[2]
		}
		delta += p.w * (p.before - after)
	}
	return delta
}

// neighborRank orders the peers from highest to lowest communication
// level, ties by descending rate — Section V-B5's probe order ("rank
// neighboring VMs from highest to lowest communication levels").
func (k *Kernel) neighborRank() []rankEntry {
	k.rank = k.rank[:0]
	for i := range k.peers {
		k.rank = append(k.rank, rankEntry{k.peers[i].host, k.peers[i].level, k.peers[i].w})
	}
	slices.SortStableFunc(k.rank, func(a, b rankEntry) int {
		if a.level != b.level {
			return int(b.level - a.level)
		}
		switch {
		case a.w > b.w:
			return -1
		case a.w < b.w:
			return 1
		}
		return 0
	})
	return k.rank
}

// claim marks candidate h probed, so each is considered once per decision
// and never the holder's own host: ok is false for the holder's host, a
// host outside the tables and one already probed. peerFree reports that
// no peer of the holder sits on h.
func (k *Kernel) claim(h cluster.HostID) (ok, peerFree bool) {
	if h == k.cur || h < 0 || int(h) >= len(k.probed) || k.probed[h] == k.probeEpoch {
		return false, false
	}
	peerFree = k.probed[h] != k.probeEpoch-1
	k.probed[h] = k.probeEpoch
	return true, peerFree
}

// beats reports that ΔC d could become the answer: d > c_m and, when
// there is a running best, d > its ΔC.
func (k *Kernel) beats(d float64, best *Decision) bool {
	return d > k.cm && (best.Target == cluster.NoHost || d > best.Delta)
}

// fold folds claimed candidate h, offering ΔC d, into the running best.
// ΔC comes first; a is asked only of a host that could become the answer
// (exact; see visitMemo).
func (k *Kernel) fold(u cluster.VMID, h cluster.HostID, d float64, best *Decision, a Admitter) {
	if !k.beats(d, best) {
		return
	}
	if !a.Admissible(u, h) {
		k.refusals = append(k.refusals, h)
		return
	}
	best.Target, best.Delta = h, d
}

// rackPeers lists rack r's unclaimed peer hosts — the hosts its list
// holds that a peer sits on, that no rank turn or walk has claimed, never
// the holder's — in rack order, from the peers rather than the rack's
// hosts. A host holding several peers may repeat; claim takes it once.
func (k *Kernel) rackPeers(r int32) []cluster.HostID {
	k.walk = k.walk[:0]
	for i := range k.peers {
		h := k.peers[i].host
		if k.peers[i].rack != r || h == k.cur || k.rackPos[h] < 0 || k.probed[h] != k.probeEpoch-1 {
			continue
		}
		j := len(k.walk)
		k.walk = append(k.walk, h)
		for ; j > 0 && k.rackPos[k.walk[j-1]] > k.rackPos[h]; j-- {
			k.walk[j] = k.walk[j-1]
		}
		k.walk[j] = h
	}
	return k.walk
}

// Best is the S-CORE migration policy for holder u: the move a admits
// with the largest ΔC, if ΔC > c_m (Theorem 1). Candidates are the peers'
// hosts in rank order, each followed by the rest of its rack, which still
// puts the pair at level 1 when the peer's host is full; among equal ΔC
// the first admitted wins. A visit costs one Score per peer host and one
// per rack whose bound lets its key win: a host no peer sits on scores
// like every other such host of its rack, since Score then reads only the
// target's rack and pod keys, which the rack's hosts share (checkLevels),
// so a walk scores the rack's peer-free key once, first. The key's ΔC is
// at most that of the peer host whose turn walks the rack, term by term
// and so bit for bit (each peer's level after the move is at least as
// high, and Score's row-order sum is monotone), and at most 0 from the
// holder's own host; a key whose bound cannot win is not scored. When
// the key cannot win — ≤ c_m or ≤ the running best, which only grows —
// the walk claims and folds only the rack's unclaimed peer hosts, in rack
// order (rackPeers). A peer host a walk already claimed skips its own
// walk, which would find nothing, and the holder's rack is walked once.
// Admission questions, refusals and ties are the full walk's.
func (k *Kernel) Best(u cluster.VMID, a Admitter) (Decision, bool) {
	// A rack's unclaimed peer hosts are at most the peers, and the hosts
	// refusing one Best, each claimed once, at most a rack's worth per
	// peer: sized with the peers' storage, neither grows inside a Best,
	// only when a longer row has grown the peers.
	if c := cap(k.peers); cap(k.walk) < c {
		k.walk = make([]cluster.HostID, 0, c)
		k.refusals = make([]cluster.HostID, 0, min(len(k.rackOf), c*k.widest))
	}
	k.refusals = k.refusals[:0]
	best := Decision{VM: u, From: k.cur, Target: cluster.NoHost}
	if len(k.probed) != len(k.rackOf) {
		k.probed, k.probeEpoch = make([]uint32, len(k.rackOf)), 0
	}
	if k.probeEpoch += 2; k.probeEpoch == 0 { // wrapped: stale marks would collide
		clear(k.probed)
		k.probeEpoch = 2
	}
	for i := range k.peers {
		k.probed[k.peers[i].host] = k.probeEpoch - 1
	}
	curWalked := false
	for _, ent := range k.neighborRank() {
		bound := 0.0 // Score(k.cur): every term is w·0
		if ok, _ := k.claim(ent.host); ok {
			bound = k.Score(ent.host)
			k.fold(u, ent.host, bound, &best, a)
		} else if ent.host != k.cur || curWalked {
			continue // its rack walked already, which left nothing there that can win
		}
		r := k.rackSlot(ent.host)
		if r == len(k.rackHosts) {
			continue
		}
		curWalked = curWalked || int32(r) == k.curRack
		free, canWin := 0.0, false
		if k.beats(bound, &best) {
			free = k.score(cluster.NoHost, int32(r), k.podOf[ent.host])
			canWin = k.beats(free, &best)
		}
		if !canWin {
			for _, h := range k.rackPeers(int32(r)) {
				if ok, _ := k.claim(h); ok {
					k.fold(u, h, k.Score(h), &best, a)
				}
			}
			continue
		}
		for _, alt := range k.rackHosts[r] {
			ok, peerFree := k.claim(alt)
			if !ok {
				continue
			}
			d := free
			if !peerFree {
				d = k.Score(alt)
			}
			k.fold(u, alt, d, &best, a)
		}
	}
	if best.Target == cluster.NoHost || best.Delta <= k.cm {
		return Decision{}, false
	}
	return best, true
}
