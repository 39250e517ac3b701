package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/score-dc/score/internal/cluster"
	"github.com/score-dc/score/internal/topology"
	"github.com/score-dc/score/internal/traffic"
)

// naiveDelta is Eq. 5 written straight from the formula, against the
// public inputs only — the placement as a function, the Topology
// interface, the cost model — sharing nothing with the kernel's resolved
// peers or flattened keys. Terms are added in row order, which is what
// makes bit equality a fair demand.
func naiveDelta(topo topology.Topology, cm CostModel, tm *traffic.Matrix, hostOf func(cluster.VMID) cluster.HostID, u cluster.VMID, target cluster.HostID) float64 {
	cur := hostOf(u)
	if cur == target || cur == cluster.NoHost {
		return 0
	}
	var delta float64
	for _, ed := range tm.NeighborEdges(u) {
		hz := hostOf(ed.Peer)
		if hz == cluster.NoHost {
			continue
		}
		before := cm.Prefix(topo.Level(hz, cur))
		after := cm.Prefix(topo.Level(hz, target))
		delta += 2 * ed.Rate * (before - after)
	}
	return delta
}

// scoreInstance is a generated instance whose cluster has three hosts
// more than its topology, with every sixth VM left unplaced and the last
// VM placed but isolated (no traffic).
type scoreInstance struct {
	topo topology.Topology
	cl   *cluster.Cluster
	tm   *traffic.Matrix
	eng  *Engine
	vms  []cluster.VMID
}

func newScoreInstance(t *testing.T, topo topology.Topology, seed int64) *scoreInstance {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	hosts := topo.Hosts() + 3
	cl, err := cluster.New(cluster.UniformHosts(hosts, 4, 4096, 1000))
	if err != nil {
		t.Fatal(err)
	}
	in := &scoreInstance{topo: topo, cl: cl, tm: traffic.NewMatrix()}
	for id := cluster.VMID(1); int(id) <= 2*hosts; id++ {
		if err := cl.AddVM(cluster.VM{ID: id, RAMMB: 256}); err != nil {
			t.Fatal(err)
		}
		in.vms = append(in.vms, id)
		if id%6 == 1 { // odd, so never the last
			continue // registered, talking, nowhere
		}
		for {
			if err := cl.Place(id, cluster.HostID(rng.Intn(hosts))); err == nil {
				break
			}
		}
	}
	talkers := in.vms[:len(in.vms)-1]
	for i := 0; i < 4*len(talkers); i++ {
		a, b := talkers[rng.Intn(len(talkers))], talkers[rng.Intn(len(talkers))]
		if a != b {
			in.tm.Set(a, b, 1+40*rng.ExpFloat64())
		}
	}
	cm, err := NewCostModel(PaperWeights()...)
	if err != nil {
		t.Fatal(err)
	}
	if in.eng, err = NewEngine(topo, cm, cl, in.tm, DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	return in
}

// checkView holds one view to the oracle: Delta for every (VM, host) —
// which takes in target == cur, peers on the target, unplaced peers and
// unplaced or isolated holders — and the Delta of every BestMigration
// decision. It reports how many comparisons had an unplaced peer.
func (in *scoreInstance) checkView(t *testing.T, v *AllocView, when string) (unplacedPeers int) {
	t.Helper()
	cm := in.eng.CostModel()
	for _, u := range in.vms {
		for _, ed := range in.tm.NeighborEdges(u) {
			if v.HostOf(ed.Peer) == cluster.NoHost {
				unplacedPeers++
			}
		}
		for h := cluster.HostID(0); int(h) < in.cl.NumHosts(); h++ {
			want := naiveDelta(in.topo, cm, in.tm, v.HostOf, u, h)
			if got := v.Delta(u, h); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: Delta(%d→%d) = %x, oracle %x", when, u, h, math.Float64bits(got), math.Float64bits(want))
			}
		}
		if dec, ok := v.BestMigration(u); ok {
			want := naiveDelta(in.topo, cm, in.tm, v.HostOf, u, dec.Target)
			if math.Float64bits(dec.Delta) != math.Float64bits(want) {
				t.Fatalf("%s: BestMigration(%d) = %+v, oracle ΔC %v", when, u, dec, want)
			}
		}
	}
	return unplacedPeers
}

// TestScoreEqualsNaiveDeltaBitForBit: the kernel's resolve-once scorer is
// the formula, to the bit, through the live view (before and after a
// pass of applied moves) and through a frozen view as it stages commits.
func TestScoreEqualsNaiveDeltaBitForBit(t *testing.T) {
	fat, err := topology.NewFatTree(4, 1000)
	if err != nil {
		t.Fatal(err)
	}
	canon, err := topology.NewCanonicalTree(topology.CanonicalConfig{
		Racks: 6, HostsPerRack: 3, RacksPerPod: 2, CoreSwitches: 2,
		HostLinkMbps: 1000, TorUplinkMbps: 10000, AggUplinkMbps: 10000,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, topo := range []topology.Topology{fat, canon} {
		for seed := int64(1); seed <= 3; seed++ {
			in := newScoreInstance(t, topo, seed)
			isolated := in.vms[len(in.vms)-1]
			if len(in.tm.NeighborEdges(isolated)) != 0 || in.cl.HostOf(isolated) == cluster.NoHost {
				t.Fatal("generator: last VM must be placed and isolated")
			}
			if in.checkView(t, in.eng.liveView(), "live") == 0 {
				t.Fatal("generator: no unplaced peer")
			}

			// Frozen view: stage every move a ring pass finds; the ΔC a
			// commit realizes is the oracle's under the overlay before it.
			view := in.eng.NewView()
			cm := in.eng.CostModel()
			for _, u := range in.vms {
				dec, ok := view.BestMigration(u)
				if !ok {
					continue
				}
				want := naiveDelta(in.topo, cm, in.tm, view.HostOf, u, dec.Target)
				got, err := view.Commit(dec)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("Commit(%+v) realized %v, oracle %v", dec, got, want)
				}
			}
			if len(view.Commits()) == 0 {
				t.Fatal("generator: frozen pass staged nothing")
			}
			in.checkView(t, view, "frozen, staged")

			for _, d := range view.Commits() {
				if _, err := in.eng.Apply(d); err != nil {
					t.Fatal(err)
				}
			}
			in.checkView(t, in.eng.liveView(), "live, after moves")
		}
	}
}

// admitCall is one question a kernel asked its Admitter.
type admitCall struct {
	u cluster.VMID
	h cluster.HostID
}

// hashAdmitter refuses about one question in three, by a seeded hash of
// (u, h) — the same answer for the same question on either side of a
// comparison — and records every question in order.
type hashAdmitter struct {
	seed  uint64
	calls []admitCall
}

func (a *hashAdmitter) Admissible(u cluster.VMID, h cluster.HostID) bool {
	a.calls = append(a.calls, admitCall{u, h})
	x := a.seed ^ uint64(uint32(u))<<32 ^ uint64(uint32(h))
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x%3 != 0
}

// naiveBest is Section V-B5's rule written out against the public inputs,
// sharing nothing with the kernel but the Admitter: rank u's placed peers
// by level to u's host, then by rate, both descending and otherwise in row
// order; take each peer's host followed by topo.HostsInRack of its rack,
// each host once and never u's own; fold naiveDelta of every candidate,
// ΔC first, asking a only of a host that could become the answer. It
// returns the decision and the hosts that refused.
func naiveBest(topo topology.Topology, cm CostModel, migrationCost float64, tm *traffic.Matrix, hostOf func(cluster.VMID) cluster.HostID, u cluster.VMID, a Admitter) (Decision, bool, []cluster.HostID) {
	cur := hostOf(u)
	type peer struct {
		host  cluster.HostID
		level int
		rate  float64
	}
	var peers []peer
	for _, ed := range tm.NeighborEdges(u) {
		if hz := hostOf(ed.Peer); hz != cluster.NoHost {
			peers = append(peers, peer{hz, topo.Level(hz, cur), ed.Rate})
		}
	}
	sort.SliceStable(peers, func(i, j int) bool {
		if peers[i].level != peers[j].level {
			return peers[i].level > peers[j].level
		}
		return peers[i].rate > peers[j].rate
	})
	seen := map[cluster.HostID]bool{cur: true}
	var cands []cluster.HostID
	for _, p := range peers {
		for _, h := range append([]cluster.HostID{p.host}, topo.HostsInRack(topo.RackOf(p.host))...) {
			if !seen[h] {
				seen[h] = true
				cands = append(cands, h)
			}
		}
	}
	best := Decision{VM: u, From: cur, Target: cluster.NoHost}
	var refusals []cluster.HostID
	for _, h := range cands {
		d := naiveDelta(topo, cm, tm, hostOf, u, h)
		if d <= migrationCost || (best.Target != cluster.NoHost && d <= best.Delta) {
			continue
		}
		if !a.Admissible(u, h) {
			refusals = append(refusals, h)
			continue
		}
		best.Target, best.Delta = h, d
	}
	if best.Target == cluster.NoHost || best.Delta <= migrationCost {
		return Decision{}, false, refusals
	}
	return best, true, refusals
}

// checkBestRule holds Kernel.Best, run on a fresh view of in's engine, to
// naiveBest for every placed VM, at c_m −15, 0 and 40 and under several
// admitter seeds, half of them with every Best wrapping the probe epoch:
// the decision (ΔC by its bits), the ordered Admissible calls and the
// refusals. It reports how many decisions moved and how many refusals
// both sides saw. A negative c_m lets a move that raises the cost win,
// so the holder's own rack, whose peer-free key is bounded by 0, can be
// walked in full.
func (in *scoreInstance) checkBestRule(t *testing.T, name string) (moves, refusals int) {
	t.Helper()
	v := in.eng.NewView()
	cm := in.eng.CostModel()
	v.k.probed = make([]uint32, len(v.k.rackOf))
	for _, cmig := range []float64{-15, 0, 40} {
		v.k.cm = cmig
		for seed := uint64(1); seed <= 4; seed++ {
			for _, u := range in.vms {
				cur := v.HostOf(u)
				if cur == cluster.NoHost {
					continue
				}
				if seed%2 == 0 {
					// This Best wraps the probe epoch, over the marks the
					// first epoch after the wrap uses.
					for h := range v.k.probed {
						v.k.probed[h] = uint32(1 + h%2)
					}
					v.k.probeEpoch = math.MaxUint32 - 1
				}
				kernelSide, naiveSide := &hashAdmitter{seed: seed}, &hashAdmitter{seed: seed}
				v.resolve(u, cur)
				got, gotOK := v.k.Best(u, kernelSide)
				want, wantOK, wantRefusals := naiveBest(in.topo, cm, cmig, in.tm, v.HostOf, u, naiveSide)
				if gotOK != wantOK || got.VM != want.VM || got.From != want.From || got.Target != want.Target ||
					math.Float64bits(got.Delta) != math.Float64bits(want.Delta) {
					t.Fatalf("%s, c_m %v, seed %d: Best(%d) = %+v,%v; naive rule %+v,%v", name, cmig, seed, u, got, gotOK, want, wantOK)
				}
				if !slices.Equal(kernelSide.calls, naiveSide.calls) {
					t.Fatalf("%s, c_m %v, seed %d: Best(%d) asked %v; naive rule asked %v", name, cmig, seed, u, kernelSide.calls, naiveSide.calls)
				}
				if !slices.Equal(v.k.refusals, wantRefusals) {
					t.Fatalf("%s, c_m %v, seed %d: Best(%d) refusals %v; naive rule %v", name, cmig, seed, u, v.k.refusals, wantRefusals)
				}
				if gotOK {
					moves++
				}
				refusals += len(wantRefusals)
			}
		}
	}
	return moves, refusals
}

// canonical6x3 is scoreInstance's canonical tree: 6 racks of 3 hosts, two
// racks per pod.
func canonical6x3(t *testing.T) *topology.CanonicalTree {
	t.Helper()
	topo, err := topology.NewCanonicalTree(topology.CanonicalConfig{
		Racks: 6, HostsPerRack: 3, RacksPerPod: 2, CoreSwitches: 2,
		HostLinkMbps: 1000, TorUplinkMbps: 10000, AggUplinkMbps: 10000,
	})
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// rotatedRacks is a topology whose HostsInRack lists each rack's hosts
// rotated by one, neither ascending nor descending by ID, which the
// Topology contract allows: a walk follows the list, not the IDs.
type rotatedRacks struct{ *topology.CanonicalTree }

func (t rotatedRacks) HostsInRack(r int) []cluster.HostID {
	hosts := t.CanonicalTree.HostsInRack(r)
	if len(hosts) > 1 {
		hosts = append(hosts[1:], hosts[0])
	}
	return hosts
}

// handEdge is one traffic pair of a hand-built instance.
type handEdge struct {
	a, b cluster.VMID
	rate float64
}

// newHandInstance places VM i+1 on place[i] of topo and sets the rates.
func newHandInstance(t *testing.T, topo topology.Topology, place []cluster.HostID, edges []handEdge) *scoreInstance {
	t.Helper()
	cl, err := cluster.New(cluster.UniformHosts(topo.Hosts(), 4, 4096, 1000))
	if err != nil {
		t.Fatal(err)
	}
	in := &scoreInstance{topo: topo, cl: cl, tm: traffic.NewMatrix()}
	for i, h := range place {
		id := cluster.VMID(i + 1)
		if err := cl.AddVM(cluster.VM{ID: id, RAMMB: 256}); err != nil {
			t.Fatal(err)
		}
		if err := cl.Place(id, h); err != nil {
			t.Fatal(err)
		}
		in.vms = append(in.vms, id)
	}
	for _, e := range edges {
		in.tm.Set(e.a, e.b, e.rate)
	}
	cm, err := NewCostModel(PaperWeights()...)
	if err != nil {
		t.Fatal(err)
	}
	if in.eng, err = NewEngine(topo, cm, cl, in.tm, DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	return in
}

// TestBestEqualsNaiveRuleBitForBit: Kernel.Best is the whole rule as
// written — probe order, rack fallback, ΔC-first fold — not just its ΔC:
// same decision, same admission questions in the same order, same
// refusals. Beside the generated instances, on the fat-tree, the
// canonical 6×3 tree and that tree with its rack lists out of ID order,
// hand-built ones on the 6×3 tree pin the corners of the rack walk.
func TestBestEqualsNaiveRuleBitForBit(t *testing.T) {
	fat, err := topology.NewFatTree(4, 1000)
	if err != nil {
		t.Fatal(err)
	}
	canon := canonical6x3(t)
	var moves, refusals int
	for i, topo := range []topology.Topology{fat, canon, rotatedRacks{canon}} {
		for seed := int64(1); seed <= 3; seed++ {
			m, r := newScoreInstance(t, topo, seed).checkBestRule(t, fmt.Sprintf("topology %d (%s) seed %d", i, topo.Name(), seed))
			moves, refusals = moves+m, refusals+r
		}
	}
	if moves == 0 || refusals == 0 {
		t.Fatalf("generated instances exercised %d moves, %d refusals", moves, refusals)
	}

	// The holder, VM 1 on host 0, shares its host with peer VM 2: its own
	// rack is walked with host 0 skipped and hosts 1 and 2 peer-free.
	shared := newHandInstance(t, canon,
		[]cluster.HostID{0, 0, 4, 9},
		[]handEdge{{1, 2, 5}, {1, 3, 10}, {1, 4, 3}})
	if shared.cl.HostOf(1) != shared.cl.HostOf(2) {
		t.Fatal("fixture: holder and peer must share a host")
	}
	shared.checkBestRule(t, "holder shares its host")

	// VM 1 (host 0) shares its host with peers VM 2 and VM 3 and has VM 4
	// on host 1 of its rack and VM 5 on host 9: host 1's turn walks rack
	// 0, and both turns on host 0 after it find the rack walked.
	sharedTwice := newHandInstance(t, canon,
		[]cluster.HostID{0, 0, 0, 1, 9},
		[]handEdge{{1, 2, 2}, {1, 3, 3}, {1, 4, 6}, {1, 5, 4}})
	sharedTwice.checkBestRule(t, "two peers on the holder's host, one on a rack-mate")

	// VM 1 (host 0) talks to VM 2 on its own host at rate 2 and to VM 3 on
	// host 9 at rate 1: every move raises the cost, rack 3's least. At
	// c_m −15 rack 3's walk, taken first, finds nothing, and the walk of
	// rack 0 from VM 1's own host, whose peer-free key offers −4, asks
	// host 1.
	farFirst := newHandInstance(t, canon,
		[]cluster.HostID{0, 0, 9},
		[]handEdge{{1, 2, 2}, {1, 3, 1}})
	if d1, d9 := farFirst.eng.Delta(1, 1), farFirst.eng.Delta(1, 9); d1 != -4 || d9 > -15 {
		t.Fatalf("fixture: ΔC to host 1 %v, to host 9 %v; want −4 and at most −15", d1, d9)
	}
	farFirst.checkBestRule(t, "the holder's rack walked from its host after another rack")

	// Every host of rack 2 (hosts 6, 7, 8) holds a peer of VM 1, so its
	// walk never takes the rack's peer-free score.
	full := newHandInstance(t, canon,
		[]cluster.HostID{0, 6, 7, 8},
		[]handEdge{{1, 2, 4}, {1, 3, 9}, {1, 4, 2}})
	for _, h := range canon.HostsInRack(2) {
		if full.cl.UsedSlots(h) == 0 {
			t.Fatalf("fixture: host %d of rack 2 holds no peer", h)
		}
	}
	full.checkBestRule(t, "rack full of peers")

	// VM 1's two peers sit in rack 3 at one rate, VM 2 (first in row
	// order) on host 10 and VM 3 on host 9: moving to either host offers
	// the same ΔC, so the rank's tie order decides. With both admitted
	// the first in row order wins.
	tie := newHandInstance(t, canon,
		[]cluster.HostID{0, 10, 9},
		[]handEdge{{1, 2, 7}, {1, 3, 7}})
	if d10, d9 := tie.eng.Delta(1, 10), tie.eng.Delta(1, 9); math.Float64bits(d10) != math.Float64bits(d9) {
		t.Fatalf("fixture: ΔC to host 10 %v, to host 9 %v; want a tie", d10, d9)
	}
	tie.checkBestRule(t, "equal-rate peers")
	if dec, ok := tie.eng.BestMigration(1); !ok || dec.Target != 10 {
		t.Fatalf("tie: BestMigration(1) = %+v,%v, want host 10", dec, ok)
	}

	// The corners of a walk that skips a rack's peer-free hosts when they
	// cannot win. best runs VM 1's Best under one admitter seed and
	// returns its decision, questions and refusals.
	best := func(in *scoreInstance, seed uint64) (Decision, []admitCall, []cluster.HostID) {
		v, a := in.eng.NewView(), &hashAdmitter{seed: seed}
		v.resolve(1, v.HostOf(1))
		dec, _ := v.k.Best(1, a)
		return dec, a.calls, v.k.refusals
	}

	// VM 1's one peer sits on host 9, which seed 2 refuses: the rack's
	// peer-free score then beats the (empty) best, and host 10 wins the
	// full walk. Under seed 1 host 9 admits and the walk skips 10 and 11.
	refused := newHandInstance(t, canon,
		[]cluster.HostID{0, 9},
		[]handEdge{{1, 2, 10}})
	refused.checkBestRule(t, "peer host refuses")
	if dec, _, ref := best(refused, 2); dec.Target != 10 || !slices.Equal(ref, []cluster.HostID{9}) {
		t.Fatalf("fixture: seed 2 decides %+v with refusals %v; want host 9 refused and host 10 chosen", dec, ref)
	}
	if dec, calls, _ := best(refused, 1); dec.Target != 9 || len(calls) != 1 {
		t.Fatalf("fixture: seed 1 decides %+v after questions %v; want host 9, asked alone", dec, calls)
	}

	// VM 1's peers VM 2 (host 17, first in row order) and VM 3 (host 15)
	// offer the same ΔC. Host 17's walk claims host 15 before its rank
	// turn: under seed 2 host 17 admits, the peer-free host 16 cannot win
	// and host 15's equal ΔC is not asked about; under seed 1 host 17
	// refuses and host 15 wins the full walk.
	ties := newHandInstance(t, canon,
		[]cluster.HostID{0, 17, 15},
		[]handEdge{{1, 2, 7}, {1, 3, 7}})
	if d17, d15 := ties.eng.Delta(1, 17), ties.eng.Delta(1, 15); math.Float64bits(d17) != math.Float64bits(d15) {
		t.Fatalf("fixture: ΔC to host 17 %v, to host 15 %v; want a tie", d17, d15)
	}
	ties.checkBestRule(t, "equal-ΔC peer hosts in one rack")
	if dec, calls, _ := best(ties, 2); dec.Target != 17 || len(calls) != 1 {
		t.Fatalf("fixture: seed 2 decides %+v after questions %v; want host 17, asked alone", dec, calls)
	}
	if dec, _, ref := best(ties, 1); dec.Target != 15 || !slices.Equal(ref, []cluster.HostID{17}) {
		t.Fatalf("fixture: seed 1 decides %+v with refusals %v; want host 17 refused and host 15 chosen", dec, ref)
	}

	// VM 1's peers VM 2 (host 15) and VM 4 and VM 5 (host 17) share rack
	// 5; VM 3 (host 12), ranked between them, brings VM 6 and VM 7 along
	// at lower rates. Host 17 outscores host 12, which outscores host 15:
	// under seed 2 host 15's walk cannot win with its peer-free host 16,
	// but still asks host 17, in rack order, before host 12's turn, which
	// then asks nothing.
	outscored := newHandInstance(t, canon,
		[]cluster.HostID{0, 15, 12, 17, 17, 12, 12},
		[]handEdge{{1, 2, 8}, {1, 3, 8}, {1, 4, 8}, {1, 5, 8}, {1, 6, 6.4}, {1, 7, 6.4}})
	if d15, d12, d17 := outscored.eng.Delta(1, 15), outscored.eng.Delta(1, 12), outscored.eng.Delta(1, 17); d15 >= d12 || d12 >= d17 {
		t.Fatalf("fixture: ΔC to hosts 15, 12, 17 = %v, %v, %v; want increasing", d15, d12, d17)
	}
	outscored.checkBestRule(t, "a later peer host of the rack outscores the first")

	// The same corner where rack order is not ID order: rack 3 lists
	// hosts 10, 11, 9. VM 1's peers VM 2 (host 11, rate 10), VM 3 and
	// VM 4 (host 10, rate 9 each) and VM 5 and VM 6 (host 9, rate 8 each)
	// make host 10 outscore host 9, which outscores host 11. Host 11's
	// turn folds first and the rack's key cannot win, so the walk asks
	// host 10, first in the rack's list, before host 9 (and host 9 only
	// if host 10 refuses): the reverse of ID order.
	rotated := newHandInstance(t, rotatedRacks{canon},
		[]cluster.HostID{0, 11, 10, 10, 9, 9},
		[]handEdge{{1, 2, 10}, {1, 3, 9}, {1, 4, 9}, {1, 5, 8}, {1, 6, 8}})
	if d11, d9, d10 := rotated.eng.Delta(1, 11), rotated.eng.Delta(1, 9), rotated.eng.Delta(1, 10); d11 >= d9 || d9 >= d10 {
		t.Fatalf("fixture: ΔC to hosts 11, 9, 10 = %v, %v, %v; want increasing", d11, d9, d10)
	}
	rotated.checkBestRule(t, "rack order is not ID order")
	if dec, calls, _ := best(outscored, 2); dec.Target != 17 || !slices.Equal(calls, []admitCall{{1, 15}, {1, 17}}) {
		t.Fatalf("fixture: seed 2 decides %+v after questions %v; want hosts 15 and 17 asked, host 17 chosen", dec, calls)
	}

	// VM 1 (host 0) has peers on hosts 9 and 10 of rack 3 and on hosts 1
	// and 0 of its own rack 0. Host 9 wins and rack 3's peer-free host 11
	// cannot, so the walk claims only host 10, and host 10's own turn
	// finds its rack walked; rack 0's peer-free score is a loss, so its
	// walk from host 1 claims nothing new and the walk from VM 1's own
	// host 0 takes the same shortcut again.
	twice := newHandInstance(t, canon,
		[]cluster.HostID{0, 9, 10, 0, 1},
		[]handEdge{{1, 2, 10}, {1, 3, 2}, {1, 4, 1}, {1, 5, 1}})
	if twice.eng.Delta(1, 2) > 0 || twice.eng.Delta(1, 11) >= twice.eng.Delta(1, 9) {
		t.Fatalf("fixture: ΔC to host 2 %v, to host 11 %v, to host 9 %v; want rack 0's peer-free hosts a loss and rack 3's below host 9",
			twice.eng.Delta(1, 2), twice.eng.Delta(1, 11), twice.eng.Delta(1, 9))
	}
	twice.checkBestRule(t, "racks walked twice")
	if dec, calls, _ := best(twice, 1); dec.Target != 9 || len(calls) != 1 {
		t.Fatalf("fixture: seed 1 decides %+v after questions %v; want host 9, asked alone", dec, calls)
	}
}
