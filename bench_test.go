// Benchmarks regenerating every table and figure of the paper's
// evaluation (one per panel), plus micro-benchmarks of the hot paths.
// Run with:
//
//	go test -bench=. -benchmem
//
// The figure benches run the Small instances so the whole suite stays in
// CI budgets; cmd/scorebench regenerates the full Medium/Paper outputs.
package score_test

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"github.com/score-dc/score"
	"github.com/score-dc/score/internal/control"
	"github.com/score-dc/score/internal/experiments"
	"github.com/score-dc/score/internal/flowtable"
	"github.com/score-dc/score/internal/ga"
	"github.com/score-dc/score/internal/hypervisor"
	"github.com/score-dc/score/internal/netsim"
	"github.com/score-dc/score/internal/token"
)

const benchSeed = 20140630

// BenchmarkFig2MigrationRatio regenerates the migrated-VM-ratio series
// (Fig. 2): 5 token passes under RR and HLF.
func BenchmarkFig2MigrationRatio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig2MigratedRatio(experiments.ScaleSmall, benchSeed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3TrafficMatrices regenerates the sparse/medium/dense ToR
// heatmaps (Fig. 3a–c).
func BenchmarkFig3TrafficMatrices(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig3TrafficMatrices(experiments.ScaleSmall, benchSeed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3CanonicalCostRatio regenerates one canonical-tree panel
// of Fig. 3d–f (GA reference + HLF and RR runs).
func BenchmarkFig3CanonicalCostRatio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig3CostRatio(experiments.Canonical, experiments.Sparse,
			experiments.ScaleSmall, benchSeed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3FatTreeCostRatio regenerates one fat-tree panel of
// Fig. 3g–i.
func BenchmarkFig3FatTreeCostRatio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig3CostRatio(experiments.FatTree, experiments.Sparse,
			experiments.ScaleSmall, benchSeed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4aLinkUtilization and BenchmarkFig4bScoreVsRemedy share
// one driver: the S-CORE vs Remedy comparison produces both the
// utilization CDFs (4a) and the cost-ratio series (4b).
func BenchmarkFig4aLinkUtilization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig4ScoreVsRemedy(experiments.ScaleSmall, benchSeed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4bScoreVsRemedy aliases the same experiment under the
// figure-index name for discoverability.
func BenchmarkFig4bScoreVsRemedy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig4ScoreVsRemedy(experiments.ScaleSmall, benchSeed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5aFlowTableType1/Type2 measure the flow-table operation
// triple (add, lookup-by-IP, delete) per flow, the quantity behind
// Fig. 5a's sweep.
func benchmarkFlowTable(b *testing.B, set flowtable.TypeSet) {
	keys := flowtable.GenerateKeys(set, 100000)
	now := time.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl := flowtable.New(len(keys))
		for _, k := range keys {
			tbl.Add(k, now)
		}
		_ = tbl.LookupByIP(keys[0].Src)
		for _, k := range keys {
			tbl.Delete(k)
		}
	}
	b.ReportMetric(float64(3*len(keys)), "ops/iter")
}

func BenchmarkFig5aFlowTableType1(b *testing.B) { benchmarkFlowTable(b, flowtable.Type1) }

func BenchmarkFig5aFlowTableType2(b *testing.B) { benchmarkFlowTable(b, flowtable.Type2) }

// BenchmarkFig5bMigratedBytes regenerates the migrated-bytes
// distribution (Fig. 5b).
func BenchmarkFig5bMigratedBytes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.Fig5bMigratedBytes(200, benchSeed)
	}
}

// BenchmarkFig5cMigrationTime regenerates the migration-time sweep
// (Fig. 5c); downtime (Fig. 5d) comes from the same model sweep.
func BenchmarkFig5cMigrationTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.Fig5cdMigrationSweep(100, benchSeed)
	}
}

// BenchmarkFig5dDowntime aliases the sweep under the Fig. 5d name.
func BenchmarkFig5dDowntime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.Fig5cdMigrationSweep(100, benchSeed)
	}
}

// ---- Ablation benches (DESIGN.md §8) ----

// BenchmarkAblationLinkWeights sweeps exponential/linear/uniform weight
// families.
func BenchmarkAblationLinkWeights(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationLinkWeights(experiments.ScaleSmall, benchSeed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationMigrationCost sweeps Theorem 1's c_m threshold.
func BenchmarkAblationMigrationCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationMigrationCost(experiments.ScaleSmall, benchSeed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationTokenPolicies compares all four token policies.
func BenchmarkAblationTokenPolicies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationTokenPolicies(experiments.ScaleSmall, benchSeed); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Micro-benchmarks of the hot paths ----

func benchEngine(b *testing.B) (*score.Engine, *rand.Rand) {
	b.Helper()
	rng := rand.New(rand.NewSource(benchSeed))
	topo, err := score.NewCanonicalTree(score.ScaledCanonicalConfig(16, 5))
	if err != nil {
		b.Fatal(err)
	}
	cl, err := score.NewCluster(score.UniformHosts(topo.Hosts(), 8, 32768, 1000))
	if err != nil {
		b.Fatal(err)
	}
	pm := score.NewPlacementManager(cl, 1)
	for i := 0; i < topo.Hosts()*4; i++ {
		if _, err := pm.CreateVM(1024); err != nil {
			b.Fatal(err)
		}
	}
	if err := pm.PlaceRandom(rng); err != nil {
		b.Fatal(err)
	}
	tm, err := score.GenerateTraffic(score.DefaultGenConfig(topo.Racks()), topo, cl, rng)
	if err != nil {
		b.Fatal(err)
	}
	cost, err := score.NewCostModel(score.PaperWeights()...)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := score.NewEngine(topo, cost, cl, tm, score.DefaultEngineConfig())
	if err != nil {
		b.Fatal(err)
	}
	return eng, rng
}

// BenchmarkCostDelta measures Eq. (5): the per-decision ΔC computation.
func BenchmarkCostDelta(b *testing.B) {
	eng, rng := benchEngine(b)
	vms := eng.Cluster().VMs()
	n := eng.Cluster().NumHosts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := vms[rng.Intn(len(vms))]
		_ = eng.Delta(u, score.HostID(rng.Intn(n)))
	}
}

// BenchmarkBestMigration measures a full token-holder decision: ranking,
// capacity probing and ΔC maximization.
func BenchmarkBestMigration(b *testing.B) {
	eng, rng := benchEngine(b)
	vms := eng.Cluster().VMs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = eng.BestMigration(vms[rng.Intn(len(vms))])
	}
}

// BenchmarkTotalCost measures Eq. (2) over the full pair set. With the
// incremental accounting this is a cached read between traffic windows;
// BenchmarkTotalCostRebuild measures the cold rebuild.
func BenchmarkTotalCost(b *testing.B) {
	eng, _ := benchEngine(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = eng.TotalCost()
	}
}

// BenchmarkTotalCostRebuild invalidates the incremental accounting every
// iteration (as swapping in a new measurement window's matrix would) to
// measure the full O(|pairs|) recompute path.
func BenchmarkTotalCostRebuild(b *testing.B) {
	eng, _ := benchEngine(b)
	tm := eng.Traffic()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.SetTraffic(tm) // drops the accounting even for the same matrix
		_ = eng.TotalCost()
	}
}

// BenchmarkTotalCostWindowRollover measures the in-place rollover fast
// path: a rate mutation folded from the matrix's edge changelog instead
// of triggering the full rebuild above.
func BenchmarkTotalCostWindowRollover(b *testing.B) {
	eng, _ := benchEngine(b)
	tm := eng.Traffic()
	vms := eng.Cluster().VMs()
	r := tm.Rate(vms[0], vms[1])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm.Set(vms[0], vms[1], r+float64(i%2)) // move the generation
		_ = eng.TotalCost()
	}
}

// benchEngineDense builds the fat-tree k=8 instance under ×50 (dense)
// traffic — the heaviest decision workload of Fig. 3's sweep.
func benchEngineDense(b *testing.B) (*score.Engine, *rand.Rand) {
	b.Helper()
	rng := rand.New(rand.NewSource(benchSeed))
	topo, err := score.NewFatTree(8, 1000)
	if err != nil {
		b.Fatal(err)
	}
	cl, err := score.NewCluster(score.UniformHosts(topo.Hosts(), 8, 32768, 1000))
	if err != nil {
		b.Fatal(err)
	}
	pm := score.NewPlacementManager(cl, 1)
	for i := 0; i < topo.Hosts()*4; i++ {
		if _, err := pm.CreateVM(1024); err != nil {
			b.Fatal(err)
		}
	}
	if err := pm.PlaceRandom(rng); err != nil {
		b.Fatal(err)
	}
	tm, err := score.GenerateTraffic(score.DefaultGenConfig(topo.Racks()), topo, cl, rng)
	if err != nil {
		b.Fatal(err)
	}
	tm = tm.Scaled(50) // the paper's dense load stress
	cost, err := score.NewCostModel(score.PaperWeights()...)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := score.NewEngine(topo, cost, cl, tm, score.DefaultEngineConfig())
	if err != nil {
		b.Fatal(err)
	}
	return eng, rng
}

// BenchmarkBestMigrationDense measures a full token-holder decision on
// the dense fat-tree macro instance (k=8, ×50 traffic).
func BenchmarkBestMigrationDense(b *testing.B) {
	eng, rng := benchEngineDense(b)
	vms := eng.Cluster().VMs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = eng.BestMigration(vms[rng.Intn(len(vms))])
	}
}

// BenchmarkSingleTokenPass is the paper's serial control loop on the
// dense fat-tree macro instance: one full token pass (every VM visited
// once, ascending ring order, decisions applied immediately) — the
// baseline BenchmarkShardedTokenPass is measured against.
func BenchmarkSingleTokenPass(b *testing.B) {
	eng, _ := benchEngineDense(b)
	snap := eng.Cluster().Snapshot()
	vms := eng.Cluster().VMs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := eng.Cluster().Restore(snap); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for _, u := range vms {
			if dec, ok := eng.BestMigration(u); ok {
				if _, err := eng.Apply(dec); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkShardedTokenPass measures one full sharded round (partition,
// concurrent per-shard token rings, merge + cross-shard reconciliation)
// on the same dense fat-tree instance, across shard counts. shards=1 is
// the serialized coordinator (single ring plus coordination overhead);
// higher counts should approach linear speedup on multi-core hardware —
// the wall-clock win the partition/reconcile deviation exists for.
func BenchmarkShardedTokenPass(b *testing.B) {
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			eng, _ := benchEngineDense(b)
			snap := eng.Cluster().Snapshot()
			coord, err := score.NewShardCoordinator(eng, score.ShardConfig{
				Shards: n, Granularity: score.ShardByPod,
				NewPolicy: func(int) score.TokenPolicy { return score.RoundRobin{} },
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if err := eng.Cluster().Restore(snap); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := coord.RunRound(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchAgentPlane wires the distributed dom0 agent plane (one agent per
// host over the in-memory hub, plus a reconciler when shards > 0) on the
// fat-tree k=4 dense instance.
func benchAgentPlane(b *testing.B, shards int) (*hypervisor.Registry, []*hypervisor.Agent, *hypervisor.Reconciler, []score.VMID) {
	b.Helper()
	rng := rand.New(rand.NewSource(benchSeed))
	topo, err := score.NewFatTree(4, 1000)
	if err != nil {
		b.Fatal(err)
	}
	cl, err := score.NewCluster(score.UniformHosts(topo.Hosts(), 8, 32768, 1000))
	if err != nil {
		b.Fatal(err)
	}
	pm := score.NewPlacementManager(cl, 1)
	for i := 0; i < topo.Hosts()*4; i++ {
		if _, err := pm.CreateVM(1024); err != nil {
			b.Fatal(err)
		}
	}
	if err := pm.PlaceRandom(rng); err != nil {
		b.Fatal(err)
	}
	tm, err := score.GenerateTraffic(score.DefaultGenConfig(topo.Racks()), topo, cl, rng)
	if err != nil {
		b.Fatal(err)
	}
	tm = tm.Scaled(50)
	cost, err := score.NewCostModel(score.PaperWeights()...)
	if err != nil {
		b.Fatal(err)
	}
	hub := hypervisor.NewMemHub()
	reg := hypervisor.NewRegistry()
	mk := func(addr string) func(hypervisor.Handler) (hypervisor.Transport, error) {
		return func(h hypervisor.Handler) (hypervisor.Transport, error) { return hub.NewEndpoint(addr, h) }
	}
	agents := make([]*hypervisor.Agent, topo.Hosts())
	for h := 0; h < topo.Hosts(); h++ {
		ag, err := hypervisor.NewAgent(hypervisor.AgentConfig{
			HostID: score.HostID(h), Slots: 8, RAMMB: 32768,
			Topo: topo, Cost: cost, Policy: token.RoundRobin{},
		}, reg)
		if err != nil {
			b.Fatal(err)
		}
		if err := ag.Start(mk(fmt.Sprintf("dom0-%d", h))); err != nil {
			b.Fatal(err)
		}
		agents[h] = ag
	}
	vms := cl.VMs()
	for _, vm := range vms {
		rates := make(map[score.VMID]float64)
		for _, ed := range tm.NeighborEdges(vm) {
			rates[ed.Peer] = ed.Rate
		}
		if err := agents[cl.HostOf(vm)].AddVM(vm, 1024, rates); err != nil {
			b.Fatal(err)
		}
	}
	var rec *hypervisor.Reconciler
	if shards > 0 {
		rec, err = hypervisor.NewReconciler(hypervisor.ReconcilerConfig{
			Topo: topo, Cost: cost, Shards: shards, Granularity: score.ShardByPod,
		}, reg)
		if err != nil {
			b.Fatal(err)
		}
		if err := rec.Start(mk("reconciler")); err != nil {
			b.Fatal(err)
		}
	}
	return reg, agents, rec, vms
}

func closeAgentPlane(agents []*hypervisor.Agent, rec *hypervisor.Reconciler) {
	if rec != nil {
		_ = rec.Close()
	}
	for _, a := range agents {
		_ = a.Close()
	}
}

// BenchmarkAgentRingPass measures one full pass of the paper's global
// dom0 agent ring (|V| token visits, immediate migration execution) over
// the in-memory transport — the serial baseline of the distributed
// plane.
func BenchmarkAgentRingPass(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		reg, agents, _, vms := benchAgentPlane(b, 0)
		done := make(chan struct{})
		var visits atomic.Int64
		for _, ag := range agents {
			ag.OnToken = func(hypervisor.TokenEvent) bool {
				if visits.Add(1) >= int64(len(vms)) {
					close(done)
					return false
				}
				return true
			}
		}
		addr, _ := reg.Lookup(vms[0])
		var injector *hypervisor.Agent
		for _, ag := range agents {
			if ag.Addr() == addr {
				injector = ag
			}
		}
		tok := token.NewAtLevel(vms, 3)
		b.StartTimer()
		if err := injector.InjectToken(tok, vms[0]); err != nil {
			b.Fatal(err)
		}
		<-done
		b.StopTimer()
		closeAgentPlane(agents, nil)
		b.StartTimer()
	}
}

// BenchmarkShardedAgentRound measures one distributed sharded round
// (shard assignment, concurrent per-shard agent rings, reconciler merge
// and cross-shard reconciliation) on the same instance, across ring
// counts. shards=1 is the serialized protocol plus coordination
// overhead; higher counts overlap the rings' wall clock.
func BenchmarkShardedAgentRound(b *testing.B) {
	for _, n := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				_, agents, rec, _ := benchAgentPlane(b, n)
				b.StartTimer()
				if _, err := rec.RunRound(); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				closeAgentPlane(agents, rec)
				b.StartTimer()
			}
		})
	}
}

// BenchmarkControllerUpdate measures the adaptive control plane's
// steady-state cost: fold a handful of traffic-rate mutations through
// the changelog into the ToR-level hotspot summary and re-derive the
// shard recommendation — the work one auto-tuned round adds on top of
// the scheduler itself.
func BenchmarkControllerUpdate(b *testing.B) {
	eng, rng := benchEngineDense(b)
	ctrl := control.New(eng.Topology(), control.Config{})
	detach := ctrl.Bind(eng.Traffic(), eng.Cluster())
	defer detach()
	ctrl.Recommendation() // initial build outside the loop
	tm := eng.Traffic()
	pairs, rates := tm.Pairs()
	if len(pairs) < 8 {
		b.Fatal("fixture too sparse")
	}
	// Snapshot the mutation targets up front: re-reading Pairs() in the
	// loop would time the matrix's own pair-cache rebuild, not the
	// controller.
	type mut struct {
		a, b score.VMID
		base float64
	}
	muts := make([]mut, len(pairs))
	for i, p := range pairs {
		muts[i] = mut{a: p.A, b: p.B, base: rates[i]}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 8; j++ {
			m := muts[(i*8+j)%len(muts)]
			tm.Set(m.a, m.b, m.base*(1+0.1*rng.Float64()))
		}
		ctrl.Recommendation()
	}
}

// BenchmarkAutoTunedRound measures one full sharded round with the
// controller in the loop (summary sync, plan, possible re-partition)
// against the same dense instance as BenchmarkShardedTokenPass — the
// auto-tuning overhead per round is the delta between them.
func BenchmarkAutoTunedRound(b *testing.B) {
	eng, _ := benchEngineDense(b)
	snap := eng.Cluster().Snapshot()
	ctrl := control.New(eng.Topology(), control.Config{})
	detach := ctrl.Bind(eng.Traffic(), eng.Cluster())
	defer detach()
	coord, err := score.NewShardCoordinator(eng, score.ShardConfig{
		Tuner:     ctrl,
		NewPolicy: func(int) score.TokenPolicy { return score.RoundRobin{} },
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := eng.Cluster().Restore(snap); err != nil {
			b.Fatal(err)
		}
		// Restore is a bulk rewrite, which marks the controller's
		// summary for a full rebuild; absorb it untimed so the timed
		// round measures the steady-state overhead (incremental sync +
		// plan + ring round), not the worst-case rebuild a real
		// multi-round run pays only after changelog overflow.
		ctrl.Recommendation()
		b.StartTimer()
		if _, err := coord.RunRound(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTokenEncodeDecode measures the wire codec at DC scale
// (10,000 entries ≈ the paper's |V|-sized message).
func BenchmarkTokenEncodeDecode(b *testing.B) {
	ids := make([]score.VMID, 10000)
	for i := range ids {
		ids[i] = score.VMID(i * 7)
	}
	tok := token.New(ids)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := tok.Encode()
		if _, err := token.Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHLFNext measures one Algorithm 1 pass over a 10k-entry token,
// from a holder with 16 traffic peers as sim.Runner lends it: one
// RaiseLevel per peer, then the scan.
func BenchmarkHLFNext(b *testing.B) {
	ids := make([]score.VMID, 10000)
	for i := range ids {
		ids[i] = score.VMID(i)
	}
	tok := token.New(ids)
	rng := rand.New(rand.NewSource(1))
	for _, e := range tok.Entries() {
		tok.SetLevel(e.ID, uint8(rng.Intn(4)))
	}
	pol := token.HighestLevelFirst{}
	view := token.HolderView{Holder: 5000, OwnLevel: 3, NeighborLevels: make(map[score.VMID]uint8)}
	for j := 1; j <= 16; j++ {
		view.NeighborLevels[ids[(5000+613*j)%len(ids)]] = uint8(rng.Intn(4))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := pol.Next(tok, view); !ok {
			b.Fatal("no next")
		}
	}
}

// BenchmarkDESEventThroughput measures raw scheduler throughput.
func BenchmarkDESEventThroughput(b *testing.B) {
	e := netsim.NewEngine()
	var fire func()
	count := 0
	fire = func() {
		count++
		if count < b.N {
			e.After(0.001, fire)
		}
	}
	b.ResetTimer()
	e.After(0.001, fire)
	e.Run()
}

// BenchmarkGAGeneration measures one GA generation on the small
// instance (population 30).
func BenchmarkGAGeneration(b *testing.B) {
	eng, rng := benchEngine(b)
	cfg := ga.DefaultConfig()
	cfg.Population = 30
	cfg.MinGenerations = 1
	cfg.MaxGenerations = 1
	cfg.StopGenerations = 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ga.Optimize(eng, cfg, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNetworkRecompute measures routing the full TM over the
// topology (the per-sample utilization refresh).
func BenchmarkNetworkRecompute(b *testing.B) {
	eng, _ := benchEngine(b)
	net := netsim.NewNetwork(eng.Topology())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Recompute(eng.Traffic(), eng.Cluster())
	}
}
