package shard

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"github.com/score-dc/score/internal/cluster"
	"github.com/score-dc/score/internal/core"
	"github.com/score-dc/score/internal/obs"
	"github.com/score-dc/score/internal/token"
	"github.com/score-dc/score/internal/topology"
	"github.com/score-dc/score/internal/traffic"
)

// buildEngine assembles a fat-tree instance with hotspot traffic under
// the default configuration: capacity admission and Section V-C's 90%
// NIC threshold, which the ×10 traffic the tests ask for pushes hosts
// against (TestSingleShardMatchesSerialToken asserts it refuses moves).
func buildEngine(t testing.TB, k int, seed int64, scale float64) *core.Engine {
	t.Helper()
	topo, err := topology.NewFatTree(k, 1000)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(cluster.UniformHosts(topo.Hosts(), 8, 32768, 1000))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	pm := cluster.NewPlacementManager(cl, 0x0a000001)
	for i := 0; i < topo.Hosts()*4; i++ {
		if _, err := pm.CreateVM(1024); err != nil {
			t.Fatal(err)
		}
	}
	if err := pm.PlaceRandom(rng); err != nil {
		t.Fatal(err)
	}
	tm, err := traffic.Generate(traffic.DefaultGenConfig(topo.Racks()), topo, cl, rng)
	if err != nil {
		t.Fatal(err)
	}
	if scale != 1 {
		tm = tm.Scaled(scale)
	}
	cm, err := core.NewCostModel(core.PaperWeights()...)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(topo, cm, cl, tm, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// bandwidthRefusals counts the peers of u whose host would lower the
// cost and has the room for u, and is refused by the NIC rule alone.
func bandwidthRefusals(eng *core.Engine, u cluster.VMID) int {
	cl, n := eng.Cluster(), 0
	for _, ed := range eng.Traffic().NeighborEdges(u) {
		h := cl.HostOf(ed.Peer)
		if h != cl.HostOf(u) && eng.Delta(u, h) > 0 && cl.Fits(u, h) && !eng.Admissible(u, h) {
			n++
		}
	}
	return n
}

// serialTokenPass is the reference single-token implementation: one
// full HLF ring pass over all VMs, decisions applied immediately
// through the engine — the paper's Section V-A loop. It also reports how
// many candidates the holders met that only the NIC rule refused.
func serialTokenPass(eng *core.Engine) (applied []core.Decision, nicRefused int) {
	vms := eng.Cluster().VMs()
	if len(vms) == 0 {
		return nil, 0
	}
	tok := token.NewAtLevel(vms, uint8(eng.Topology().Depth()))
	tm := eng.Traffic()
	pol := token.HighestLevelFirst{}
	holder := vms[0]
	for hop := 0; hop < len(vms); hop++ {
		nicRefused += bandwidthRefusals(eng, holder)
		if dec, ok := eng.BestMigration(holder); ok {
			realized, err := eng.Apply(dec)
			if err == nil {
				applied = append(applied, core.Decision{VM: dec.VM, From: dec.From, Target: dec.Target, Delta: realized})
			}
		}
		neigh := tm.NeighborEdges(holder)
		levels := make(map[cluster.VMID]uint8, len(neigh))
		for _, ed := range neigh {
			levels[ed.Peer] = uint8(eng.PairLevel(holder, ed.Peer))
		}
		next, ok := pol.Next(tok, token.HolderView{
			Holder:         holder,
			OwnLevel:       uint8(eng.VMLevel(holder)),
			NeighborLevels: levels,
		})
		if !ok {
			break
		}
		holder = next
	}
	return applied, nicRefused
}

// TestSingleShardMatchesSerialToken: with one shard the coordinator
// must reproduce the serial single-token pass decision for decision and
// land on a bitwise-identical cost, bandwidth admission included: the
// views add staged NIC-load deltas onto frozen per-host loads while the
// serial engine folds the same rates into its accumulators, and on the
// rate grid both are the same number.
func TestSingleShardMatchesSerialToken(t *testing.T) {
	ref := buildEngine(t, 4, 7, 10)
	ref.TotalCost() // prime the accounting at round start, as NewView does
	wantApplied, nicRefused := serialTokenPass(ref)
	wantCost := ref.TotalCost()
	if nicRefused == 0 {
		t.Fatal("no candidate was refused on bandwidth; Section V-C admission is not exercised")
	}

	eng := buildEngine(t, 4, 7, 10)
	coord, err := NewCoordinator(eng, Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	round, err := coord.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if len(round.Applied) != len(wantApplied) {
		t.Fatalf("1-shard round applied %d migrations, serial token %d", len(round.Applied), len(wantApplied))
	}
	for i := range wantApplied {
		if round.Applied[i] != wantApplied[i] {
			t.Fatalf("decision %d diverged: sharded %+v, serial %+v", i, round.Applied[i], wantApplied[i])
		}
	}
	if round.CrossApplied+round.CrossRejected != 0 {
		t.Fatalf("single shard produced %d cross-shard proposals", round.CrossApplied+round.CrossRejected)
	}
	if got := eng.TotalCost(); got != wantCost {
		t.Fatalf("1-shard final cost %v, serial token %v", got, wantCost)
	}
	if len(wantApplied) == 0 {
		t.Fatal("fixture produced no migrations; test vacuous")
	}
}

// quiescenceCap bounds the run-to-quiescence helpers: S-CORE converges
// (every applied move strictly lowers a bounded cost), so this is a
// defensive limit for a broken build, not a tuning knob.
const quiescenceCap = 1024

// runSerialToQuiescence repeats serial passes until one applies nothing.
func runSerialToQuiescence(eng *core.Engine) int {
	total := 0
	for r := 0; r < quiescenceCap; r++ {
		applied, _ := serialTokenPass(eng)
		total += len(applied)
		if len(applied) == 0 {
			break
		}
	}
	return total
}

// runRounds drives coord until a round applies no migration or limit
// rounds have run, and returns every round, each a deep copy (keep).
func runRounds(t *testing.T, coord *Coordinator, limit int) []*Round {
	t.Helper()
	var rounds []*Round
	for r := 0; r < limit; r++ {
		round, err := coord.RunRound()
		if err != nil {
			t.Fatal(err)
		}
		rounds = append(rounds, keep(round))
		if len(round.Applied) == 0 {
			break
		}
	}
	return rounds
}

// keep copies a round for reading after the next RunRound, which reuses
// the storage of the Applied list the round was lent.
func keep(r *Round) *Round {
	c := *r
	c.Applied = slices.Clone(r.Applied)
	return &c
}

// migrations sums the applied moves of a run.
func migrations(rounds []*Round) int {
	n := 0
	for _, round := range rounds {
		n += len(round.Applied)
	}
	return n
}

// TestShardedConvergesNearSerial: on connected hotspot traffic, the
// 4-shard scheduler run to quiescence must land within tolerance of the
// single-token final cost (the partition/reconcile scheme loses some
// global moves but the reconciliation pass recovers cross-shard
// co-locations), and every applied move must have lowered the cost.
func TestShardedConvergesNearSerial(t *testing.T) {
	ref := buildEngine(t, 4, 11, 10)
	initial := ref.TotalCost()
	runSerialToQuiescence(ref)
	serialFinal := ref.TotalCost()
	if serialFinal >= initial {
		t.Fatalf("serial token did not reduce cost: %v -> %v", initial, serialFinal)
	}

	for _, g := range []Granularity{ByPod, ByRack} {
		eng := buildEngine(t, 4, 11, 10)
		coord, err := NewCoordinator(eng, Config{Shards: 4, Granularity: g})
		if err != nil {
			t.Fatal(err)
		}
		rounds := runRounds(t, coord, quiescenceCap)
		final := eng.TotalCost()
		if final >= initial {
			t.Fatalf("%v-sharded run did not reduce cost: %v -> %v", g, initial, final)
		}
		for _, round := range rounds {
			for _, d := range round.Applied {
				if d.Delta <= 0 {
					t.Fatalf("%v-sharded run applied a non-improving move: %+v", g, d)
				}
			}
			staged, merged := 0, 0
			for _, sh := range round.Shards {
				staged += sh.Committed
				merged += sh.Merged
			}
			if staged-merged != round.StaleRejected {
				t.Fatalf("%v: staged %d, merged %d, but StaleRejected = %d",
					g, staged, merged, round.StaleRejected)
			}
			if merged+round.CrossApplied != len(round.Applied) {
				t.Fatalf("%v: merged %d + cross %d != applied %d",
					g, merged, round.CrossApplied, len(round.Applied))
			}
		}
		// Tolerance: the sharded scheme must capture most of the serial
		// token's reduction.
		serialRed := initial - serialFinal
		shardRed := initial - final
		if shardRed < 0.85*serialRed {
			t.Fatalf("%v-sharded reduction %v captures only %.1f%% of serial reduction %v",
				g, shardRed, 100*shardRed/serialRed, serialRed)
		}
	}
}

// fingerprint serializes a run's full observable output: every applied
// decision with its realized ΔC bits, per-shard stats, and the final
// cost and allocation — byte-for-byte comparable.
func fingerprint(rounds []*Round, eng *core.Engine) string {
	out := ""
	for ri, round := range rounds {
		out += fmt.Sprintf("round %d hops=%d/%d cross=%d/%d stale=%d\n",
			ri, round.RingHops, round.TotalHops, round.CrossApplied, round.CrossRejected, round.StaleRejected)
		for _, sh := range round.Shards {
			out += fmt.Sprintf("  shard %d vms=%d hops=%d c=%d m=%d p=%d\n",
				sh.Shard, sh.VMs, sh.Hops, sh.Committed, sh.Merged, sh.Proposed)
		}
		for _, d := range round.Applied {
			out += fmt.Sprintf("  vm %d: %d->%d delta=%x\n", d.VM, d.From, d.Target, math.Float64bits(d.Delta))
		}
	}
	out += fmt.Sprintf("final=%x\n", math.Float64bits(eng.TotalCost()))
	for _, vm := range eng.Cluster().VMs() {
		out += fmt.Sprintf("%d@%d ", vm, eng.Cluster().HostOf(vm))
	}
	return out
}

// TestShardedDeterministicAcrossGOMAXPROCS: identical byte-for-byte
// output whatever the parallelism — the property that makes sharded
// runs reproducible and debuggable.
func TestShardedDeterministicAcrossGOMAXPROCS(t *testing.T) {
	run := func(procs int) string {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		eng := buildEngine(t, 4, 23, 10)
		coord, err := NewCoordinator(eng, Config{Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		rounds := runRounds(t, coord, 6)
		if migrations(rounds) == 0 {
			t.Fatal("fixture produced no migrations; determinism test vacuous")
		}
		return fingerprint(rounds, eng)
	}
	base := run(1)
	for _, procs := range []int{4, 8} {
		if got := run(procs); got != base {
			t.Fatalf("sharded run output differs between GOMAXPROCS=1 and %d", procs)
		}
	}
}

// TestRingOrderPoliciesBitIdentical: whichever accepted policy a caller
// names — none, Round-Robin, Highest-Level-First — a coordinator applies
// the same moves with the same ΔC bits, reports the same per-ring stats
// and stages every move at the same hop, round after round: the policy
// selects nothing, because a round's one pass has one order.
func TestRingOrderPoliciesBitIdentical(t *testing.T) {
	run := func(newPolicy func(int) token.Policy) string {
		eng := buildEngine(t, 4, 23, 10)
		ar := obs.NewAuditRing(1 << 12)
		coord, err := NewCoordinator(eng, Config{Shards: 4, Granularity: ByRack, NewPolicy: newPolicy, Audit: ar})
		if err != nil {
			t.Fatal(err)
		}
		defer coord.Close()
		var rounds []*Round
		for r := 0; r < 8; r++ { // past quiescence too: quiet rounds must agree as well
			rounds = append(rounds, runRounds(t, coord, 1)...)
		}
		if migrations(rounds) == 0 || ar.Len() == 0 {
			t.Fatal("fixture produced no migrations; test vacuous")
		}
		out := fingerprint(rounds, eng)
		for _, rec := range ar.Snapshot() {
			out += fmt.Sprintf("\naudit r%d s%d hop=%d vm=%d %d->%d v=%d %x/%x",
				rec.Round, rec.Shard, rec.Hop, rec.VM, rec.From, rec.To, rec.Verdict, rec.StagedBits, rec.FinalBits)
		}
		return out
	}
	base := run(nil)
	for _, pol := range []token.Policy{token.RoundRobin{}, token.HighestLevelFirst{}} {
		pol := pol
		if got := run(func(int) token.Policy { return pol }); got != base {
			t.Fatalf("coordinator under %s diverges from the nil-policy run", pol.Name())
		}
	}
}

// TestPartitionAlignment: every host of a rack (and pod, at pod
// granularity) must land in the same shard, shards must be contiguous,
// and every placed VM must be owned by the shard of its host.
func TestPartitionAlignment(t *testing.T) {
	eng := buildEngine(t, 4, 3, 1)
	topo := eng.Topology()
	for _, g := range []Granularity{ByPod, ByRack} {
		for _, n := range []int{1, 2, 3, 4, 64} {
			part, err := NewPartition(topo, eng.Cluster(), g, n)
			if err != nil {
				t.Fatal(err)
			}
			for h := 0; h < topo.Hosts(); h++ {
				a := cluster.HostID(h)
				var unitPeer cluster.HostID = -1
				for h2 := 0; h2 < topo.Hosts(); h2++ {
					b := cluster.HostID(h2)
					sameUnit := topo.RackOf(a) == topo.RackOf(b)
					if g == ByPod {
						sameUnit = topo.PodOf(a) == topo.PodOf(b)
					}
					if sameUnit && part.ShardOfHost(a) != part.ShardOfHost(b) {
						t.Fatalf("g=%v n=%d: hosts %d and %d share a unit but not a shard", g, n, a, b)
					}
					_ = unitPeer
				}
			}
			seen := 0
			for s := 0; s < part.Shards(); s++ {
				for _, vm := range part.VMs(s) {
					if got := part.ShardOfHost(eng.Cluster().HostOf(vm)); got != s {
						t.Fatalf("VM %d listed in shard %d but hosted in shard %d", vm, s, got)
					}
					seen++
				}
			}
			if seen != eng.Cluster().NumVMs() {
				t.Fatalf("g=%v n=%d: partition covers %d of %d VMs", g, n, seen, eng.Cluster().NumVMs())
			}
		}
	}
	// Shard counts beyond the unit count clamp.
	part, err := NewPartition(topo, eng.Cluster(), ByPod, 99)
	if err != nil {
		t.Fatal(err)
	}
	if part.Shards() != 4 { // k=4 fat-tree has 4 pods
		t.Fatalf("clamped shard count = %d, want 4", part.Shards())
	}
}

// TestRoundRingsFollowPlacement: a round's rings are a function of the
// placement table at the round's start, whatever happened to it since
// the round before. After every kind of change that can happen between
// rounds — the previous round's own merge, a cross-shard move, a
// removal, an admit whose ID regrows the cluster's window, Restore, the
// tuner changing the shape and changing it back — the rings the round
// walked must be exactly those of a partition built from scratch just
// before it: strictly ascending, and with nothing left over from a
// longer previous fill of the same storage.
func TestRoundRingsFollowPlacement(t *testing.T) {
	eng := buildEngine(t, 4, 23, 10)
	cl, topo := eng.Cluster(), eng.Topology()
	tuner := &stepTuner{shards: 4, g: ByPod}
	coord, err := NewCoordinator(eng, Config{Tuner: tuner})
	if err != nil {
		t.Fatal(err)
	}
	round := func(step string) {
		t.Helper()
		want, err := NewPartition(topo, cl, tuner.g, tuner.shards)
		if err != nil {
			t.Fatal(err)
		}
		res, err := coord.RunRound()
		if err != nil {
			t.Fatal(err)
		}
		got := coord.part
		if got.Shards() != want.Shards() || len(res.Shards) != want.Shards() {
			t.Fatalf("%s: round ran %d rings over a %d-shard partition, fresh partition has %d", step, len(res.Shards), got.Shards(), want.Shards())
		}
		for s := 0; s < want.Shards(); s++ {
			ring := got.VMs(s)
			if !slices.Equal(ring, want.VMs(s)) {
				t.Fatalf("%s: shard %d ring %v, fresh partition %v", step, s, ring, want.VMs(s))
			}
			for i := 1; i < len(ring); i++ {
				if ring[i] <= ring[i-1] {
					t.Fatalf("%s: shard %d ring %v is not strictly ascending", step, s, ring)
				}
			}
			if res.Shards[s].VMs != len(ring) {
				t.Fatalf("%s: shard %d walked %d VMs of a %d-VM ring", step, s, res.Shards[s].VMs, len(ring))
			}
		}
	}
	// crossShardMove moves the first VM of shard 0's ring to a host outside
	// shard 0, shortening a ring whose storage the next round refills.
	crossShardMove := func() {
		t.Helper()
		vm := coord.part.VMs(0)[0]
		for h := cl.NumHosts() - 1; h >= 0; h-- {
			if to := cluster.HostID(h); coord.part.ShardOfHost(to) != 0 && cl.Fits(vm, to) {
				if err := cl.Move(vm, to); err != nil {
					t.Fatal(err)
				}
				return
			}
		}
		t.Fatal("no host outside shard 0 fits the VM")
	}

	round("first round")
	saved := cl.Snapshot()
	round("after a round's own merge")
	crossShardMove()
	round("after a cross-shard move")
	if err := cl.Restore(saved); err != nil {
		t.Fatal(err)
	}
	round("after Restore")

	gone := coord.part.VMs(1)[0]
	eng.Traffic().ClearVM(gone)
	if err := cl.Remove(gone); err != nil {
		t.Fatal(err)
	}
	round("after a removal")

	base, _ := cl.DenseAlloc()
	below := base - 1
	if err := cl.AddVM(cluster.VM{ID: below, RAMMB: 1024}); err != nil {
		t.Fatal(err)
	}
	if nb, _ := cl.DenseAlloc(); nb == base {
		t.Fatalf("VM %d did not regrow the window (base still %d); step vacuous", below, base)
	}
	if err := cl.Place(below, cluster.HostID(cl.NumHosts()-1)); err != nil {
		t.Fatal(err)
	}
	round("after an admit that regrew the window")
	if last := coord.part.VMs(coord.part.Shards() - 1); last[0] != below {
		t.Fatalf("admitted VM %d is not at the head of the last shard's ring %v", below, last)
	}

	tuner.shards, tuner.g = 8, ByRack
	round("4 pods → 8 racks")
	crossShardMove()
	round("8 racks, after a cross-shard move")
	tuner.shards, tuner.g = 4, ByPod
	round("8 racks → 4 pods")
}

// TestRefillZeroAllocs: refilling a partition whose rings have reached
// their size allocates nothing — what lets a round that cannot patch do
// it.
func TestRefillZeroAllocs(t *testing.T) {
	eng := buildEngine(t, 4, 5, 1)
	part, err := NewPartition(eng.Topology(), eng.Cluster(), ByRack, 8)
	if err != nil {
		t.Fatal(err)
	}
	refill := func() {
		part.refill(eng.Cluster())
	}
	if n := testing.AllocsPerRun(20, refill); n != 0 {
		t.Fatalf("steady-state refill allocates %v times per call, want 0", n)
	}
}

// BenchmarkPartitionRefill is what a round pays to derive its rings when
// it cannot patch them (a cold round, a Restore, a regrow, a reshape): 24
// pod bitmaps over the k=24 fat-tree's ID window cleared, then one pass
// over the placement table of its 103,680 VMs setting a bit each. Must
// read 0 allocs/op.
func BenchmarkPartitionRefill(b *testing.B) {
	topo, err := topology.NewFatTree(24, 1000)
	if err != nil {
		b.Fatal(err)
	}
	cl, err := cluster.New(cluster.UniformHosts(topo.Hosts(), 32, 65536, 1000))
	if err != nil {
		b.Fatal(err)
	}
	pm := cluster.NewPlacementManager(cl, 1)
	for i := 0; i < topo.Hosts()*30; i++ {
		if _, err := pm.CreateVM(1024); err != nil {
			b.Fatal(err)
		}
	}
	if err := pm.PlaceRandom(rand.New(rand.NewSource(20140630))); err != nil {
		b.Fatal(err)
	}
	part, err := NewPartition(topo, cl, ByPod, 24)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		part.refill(cl)
	}
}

// convergedK24 is a 24-pod-shard coordinator run to convergence on the
// k=24 fat-tree with 103,680 VMs placed in topology order.
func convergedK24(b *testing.B) (*core.Engine, *Coordinator) {
	eng, coord := k24(b)
	converge(b, coord)
	return eng, coord
}

// converge runs rounds until one applies no move.
func converge(b *testing.B, coord *Coordinator) {
	for r := 0; ; r++ {
		res, err := coord.RunRound()
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Applied) == 0 {
			break
		}
		if r == 64 {
			b.Fatal("rounds did not converge")
		}
	}
}

// k24 is convergedK24's coordinator before its first round.
func k24(b *testing.B) (*core.Engine, *Coordinator) { return packedFatTree(b, 24, Config{Shards: 24}) }

// packedFatTree is a k-ary fat tree of 39-slot hosts holding 30 VMs each,
// with generated traffic, and a coordinator of cfg over it before its
// first round.
func packedFatTree(b *testing.B, k int, cfg Config) (*core.Engine, *Coordinator) {
	topo, err := topology.NewFatTree(k, 1000)
	if err != nil {
		b.Fatal(err)
	}
	const perHost, slots = 30, 39
	cl, err := cluster.New(cluster.UniformHosts(topo.Hosts(), slots, slots*1024, 1000))
	if err != nil {
		b.Fatal(err)
	}
	pm := cluster.NewPlacementManager(cl, 1)
	for h := 0; h < topo.Hosts(); h++ {
		for j := 0; j < perHost; j++ {
			id, err := pm.CreateVM(1024)
			if err != nil {
				b.Fatal(err)
			}
			if err := cl.Place(id, cluster.HostID(h)); err != nil {
				b.Fatal(err)
			}
		}
	}
	tm, err := traffic.Generate(traffic.DefaultGenConfig(topo.Racks()), topo, cl, rand.New(rand.NewSource(20140630)))
	if err != nil {
		b.Fatal(err)
	}
	cm, err := core.NewCostModel(core.PaperWeights()...)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := core.NewEngine(topo, cm, cl, tm, core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	coord, err := NewCoordinator(eng, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return eng, coord
}

// BenchmarkColdMerge is the merge of a cold round's staged commits: the
// 24 pod rings of k24's first round, replayed in shard order, most of
// them landing on their staged verdict (clean/commit is that share). The
// moves are undone, untimed, between merges. Must read 0 allocs/op.
func BenchmarkColdMerge(b *testing.B) {
	eng, coord := k24(b)
	part, err := coord.partition()
	if err != nil {
		b.Fatal(err)
	}
	mg := &coord.Merge
	rings, err := coord.plane.Run(&Round{}, part, mg)
	if err != nil {
		b.Fatal(err)
	}
	staged := 0
	for _, r := range rings {
		staged += len(r.Commits)
	}
	merge := func() {
		mg.Reset(1)
		for s := range rings {
			mg.Shard(s, rings[s].Commits, nil, rings[s].Near)
		}
	}
	undo := func() {
		for j := len(mg.Applied) - 1; j >= 0; j-- {
			if d := mg.Applied[j]; eng.Cluster().Move(d.VM, d.From) != nil {
				b.Fatalf("undoing %+v", d)
			}
		}
	}
	// One untimed merge sizes the hosts' VM lists and the merge's scratch.
	merge()
	undo()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		merge()
		b.StopTimer()
		undo()
		b.StartTimer()
	}
	b.ReportMetric(float64(mg.clean)/float64(staged), "clean/commit")
}

// BenchmarkQuietRingPass is one pod ring's pass in a converged k=24 round
// (103,680 VMs in topology order, 24 pod shards): the walk over the
// ring's words and the visits of the holders a settled verdict does not
// cover. Must read 0 allocs/op.
func BenchmarkQuietRingPass(b *testing.B) {
	eng, coord := convergedK24(b)
	part, view, ring := coord.part, eng.NewView(), &Ring{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		view = eng.ResetView(view)
		b.StartTimer()
		coord.plane.ringPass(0, part, view, ring)
	}
	b.ReportMetric(float64(ring.Hops-ring.Skipped), "evaluated/op")
}

// TestPoolRunsEveryTaskOnce under varying worker counts.
func TestPoolRunsEveryTaskOnce(t *testing.T) {
	for _, w := range []int{0, 1, 2, 7, 64} {
		p := NewPool(w)
		const n = 500
		hits := make([]int32, n)
		p.Run(n, func(i int) { hits[i]++ })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: task %d ran %d times", w, i, h)
			}
		}
		p.Run(0, func(int) { t.Fatal("task invoked for n=0") })
	}
}

// TestCoordinatorValidation rejects broken configs.
func TestCoordinatorValidation(t *testing.T) {
	eng := buildEngine(t, 4, 1, 1)
	if _, err := NewCoordinator(nil, Config{Shards: 1}); err == nil {
		t.Fatal("nil engine accepted")
	}
	if _, err := NewCoordinator(eng, Config{Shards: 0}); err == nil {
		t.Fatal("zero shards accepted")
	}
	if _, err := NewCoordinator(eng, Config{Shards: 2, Granularity: Granularity(9)}); err == nil {
		t.Fatal("unknown granularity accepted")
	}
	if _, err := ParseGranularity("mesh"); err == nil {
		t.Fatal("unknown granularity string accepted")
	}
	// A policy that would reorder a fresh pass has no place in a round;
	// the error names the driver that can run it.
	for _, pol := range []token.Policy{token.LowestLevelFirst{}, &token.Random{Rng: rand.New(rand.NewSource(1))}} {
		pol := pol
		_, err := NewCoordinator(eng, Config{Shards: 2, NewPolicy: func(int) token.Policy { return pol }})
		if err == nil || !strings.Contains(err.Error(), "single token") {
			t.Fatalf("%s: reordering policy not refused with a pointer to the single token: %v", pol.Name(), err)
		}
	}
}

// scriptedTuner replays a fixed sequence of recommendations, repeating
// the last one once exhausted.
type scriptedTuner struct {
	recs []struct {
		shards int
		g      Granularity
	}
	calls int
}

func (s *scriptedTuner) Plan() (int, Granularity) {
	i := s.calls
	if i >= len(s.recs) {
		i = len(s.recs) - 1
	}
	s.calls++
	return s.recs[i].shards, s.recs[i].g
}

// TestCoordinatorTunerRepartitions: when the tuner's recommendation
// changes between rounds, the coordinator must re-partition at the new
// shape — and keep the incremental partition otherwise.
func TestCoordinatorTunerRepartitions(t *testing.T) {
	eng := buildEngine(t, 4, 23, 10)
	tuner := &scriptedTuner{recs: []struct {
		shards int
		g      Granularity
	}{{1, ByPod}, {4, ByPod}, {4, ByPod}, {8, ByRack}}}
	coord, err := NewCoordinator(eng, Config{Tuner: tuner})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	want := []int{1, 4, 4, 8}
	for round, n := range want {
		partBefore := coord.part
		res, err := coord.RunRound()
		if err != nil {
			t.Fatal(err)
		}
		if got := len(res.Shards); got != n {
			t.Fatalf("round %d ran %d rings, tuner asked for %d", round+1, got, n)
		}
		if round == 2 && coord.part != partBefore && partBefore != nil {
			t.Fatal("unchanged recommendation rebuilt the partition")
		}
	}
	if tuner.calls < len(want) {
		t.Fatalf("tuner consulted %d times over %d rounds", tuner.calls, len(want))
	}
	// Tuner-driven coordinators accept a zero fixed configuration…
	if _, err := NewCoordinator(eng, Config{Tuner: tuner}); err != nil {
		t.Fatalf("tuner-driven coordinator rejected: %v", err)
	}
	// …but fixed ones still validate.
	if _, err := NewCoordinator(eng, Config{}); err == nil {
		t.Fatal("zero shards without a tuner accepted")
	}
}
