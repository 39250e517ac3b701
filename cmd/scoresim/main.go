// Command scoresim runs one ad-hoc S-CORE simulation with configurable
// topology, workload, token policy, and failure injection, printing the
// cost trajectory and migration statistics.
//
// Usage:
//
//	scoresim [-topo canonical|fattree] [-racks N] [-hosts N] [-k N]
//	         [-vms-per-host N] [-density 1|10|50] [-policy hlf|rr|llf|random]
//	         [-cm COST] [-duration SEC] [-loss PROB] [-seed N]
//	         [-shards N] [-shard-granularity pod|rack] [-shard-workers N]
//	         [-distributed-shards N] [-dist-deadline SEC]
//	         [-metrics-addr HOST:PORT]
//
// -policy selects the forwarding policy of the single token (the default
// mode). The sharded modes (-shards, -distributed-shards, -autotune)
// start every ring's token fresh each round and walk it once in ID
// order, which is what hlf and rr both do on such a pass: they take
// hlf|rr, with identical results, and refuse llf and random.
//
// With -metrics-addr the run serves its observability plane over HTTP:
// Prometheus text exposition at /metrics, the round-trace ring buffer at
// /trace, and net/http/pprof at /debug/pprof/.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"github.com/score-dc/score"
	"github.com/score-dc/score/internal/obs"
	"github.com/score-dc/score/internal/viz"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "scoresim:", err)
		os.Exit(1)
	}
}

func run() error {
	topoFlag := flag.String("topo", "canonical", "topology family: canonical or fattree")
	racks := flag.Int("racks", 16, "racks (canonical)")
	hostsPerRack := flag.Int("hosts", 5, "hosts per rack (canonical)")
	k := flag.Int("k", 8, "fat-tree arity")
	vmsPerHost := flag.Int("vms-per-host", 4, "initial VMs per host")
	slots := flag.Int("slots", 8, "VM slots per host")
	density := flag.Float64("density", 1, "traffic matrix scale factor (1, 10, 50)")
	policyName := flag.String("policy", "hlf", "the single token's forwarding policy: hlf, rr, llf, random (sharded modes walk rings in ID order and take hlf|rr only)")
	cm := flag.Float64("cm", 0, "migration cost c_m (Theorem 1 threshold)")
	duration := flag.Float64("duration", 400, "simulated seconds")
	hop := flag.Float64("hop", 0.05, "token hop latency seconds")
	loss := flag.Float64("loss", 0, "token loss probability per hop")
	seed := flag.Int64("seed", 1, "random seed")
	chart := flag.Bool("chart", true, "render ASCII cost chart")
	shards := flag.Int("shards", 1, "concurrent token rings (>1 enables sharded mode)")
	shardGran := flag.String("shard-granularity", "pod", "shard alignment: pod or rack")
	shardWorkers := flag.Int("shard-workers", 0, "worker pool size for sharded mode (0 = GOMAXPROCS)")
	distShards := flag.Int("distributed-shards", 0, "run the distributed dom0 agent plane with this many token rings (>0; excludes -shards)")
	distDeadline := flag.Float64("dist-deadline", 0.1, "distributed plane: per-shard progress deadline in real seconds before the reconciler regenerates a ring (used with -loss)")
	autoTune := flag.Bool("autotune", false, "derive shard count and granularity from the live traffic summary (supersedes -shards; with -distributed-shards > 0 it auto-tunes the agent plane)")
	adaptiveDeadline := flag.Bool("adaptive-deadline", false, "distributed plane: derive per-shard recovery deadlines from observed ack latency (EWMA + k·stddev) instead of -dist-deadline")
	delayProb := flag.Float64("delay", 0, "distributed plane: probability a shard-token hop is delayed on the wire")
	delayS := flag.Float64("delay-s", 0.02, "distributed plane: injected hop delay in real seconds (with -delay)")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /trace, /audit and /debug/pprof/ on this address for the run's duration (e.g. :9090)")
	auditDump := flag.String("audit-dump", "", "write the run's decision-audit ring as JSON to this path at exit")
	flag.Parse()

	rng := rand.New(rand.NewSource(*seed))

	var topo score.Topology
	var err error
	switch *topoFlag {
	case "canonical":
		topo, err = score.NewCanonicalTree(score.ScaledCanonicalConfig(*racks, *hostsPerRack))
	case "fattree":
		topo, err = score.NewFatTree(*k, 1000)
	default:
		return fmt.Errorf("unknown topology %q", *topoFlag)
	}
	if err != nil {
		return err
	}

	cl, err := score.NewCluster(score.UniformHosts(topo.Hosts(), *slots, 32768, 1000))
	if err != nil {
		return err
	}
	pm := score.NewPlacementManager(cl, 0x0a000001)
	for i := 0; i < topo.Hosts()**vmsPerHost; i++ {
		if _, err := pm.CreateVM(1024); err != nil {
			return err
		}
	}
	if err := pm.PlaceRandom(rng); err != nil {
		return err
	}
	tm, err := score.GenerateTraffic(score.DefaultGenConfig(topo.Racks()), topo, cl, rng)
	if err != nil {
		return err
	}
	if *density != 1 {
		tm = tm.Scaled(*density)
	}

	cost, err := score.NewCostModel(score.PaperWeights()...)
	if err != nil {
		return err
	}
	engCfg := score.DefaultEngineConfig()
	engCfg.MigrationCost = *cm
	eng, err := score.NewEngine(topo, cost, cl, tm, engCfg)
	if err != nil {
		return err
	}

	pol, err := score.PolicyByName(*policyName, rng)
	if err != nil {
		return err
	}

	simCfg := score.DefaultSimConfig()
	var auditRing *obs.AuditRing
	if *metricsAddr != "" || *auditDump != "" {
		auditRing = obs.NewAuditRing(1 << 16)
		simCfg.Audit = auditRing
	}
	if *metricsAddr != "" {
		reg := obs.NewRegistry()
		obs.RegisterRuntime(reg)
		tr := obs.NewTracer(1 << 16)
		srv, err := obs.Serve(*metricsAddr, reg, tr, auditRing)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("observability: http://%s/metrics (trace at /trace, audit at /audit, pprof at /debug/pprof/)\n", srv.Addr())
		simCfg.Obs = reg
		simCfg.Trace = tr
	}
	simCfg.DurationS = *duration
	simCfg.HopLatencyS = *hop
	simCfg.SampleIntervalS = *duration / 100
	simCfg.TokenLossProb = *loss
	if *shards > 1 || *distShards > 0 || *autoTune {
		g, err := score.ParseShardGranularity(*shardGran)
		if err != nil {
			return err
		}
		simCfg.ShardGranularity = g
		simCfg.AutoTune = *autoTune
		if *distShards > 0 {
			simCfg.DistributedShards = *distShards
			simCfg.AdaptiveDeadline = *adaptiveDeadline
			simCfg.TokenDelayProb = *delayProb
			simCfg.TokenDelayS = *delayS
			// Only tighten the recovery deadline when faults are
			// actually injected; a fault-free plane keeps the
			// reconciler's generous default so slow hops are never
			// mistaken for lost tokens.
			if *loss > 0 || *delayProb > 0 {
				simCfg.DistributedDeadlineS = *distDeadline
			}
		} else if !*autoTune {
			simCfg.Shards = *shards
			simCfg.ShardWorkers = *shardWorkers
		}
	}

	mode := "single-token"
	switch {
	case *distShards > 0 && *autoTune:
		mode = "distributed agent plane, auto-tuned rings"
	case *distShards > 0:
		mode = fmt.Sprintf("distributed agent plane, %d rings by %s", *distShards, *shardGran)
	case *autoTune:
		mode = "auto-tuned shards"
	case *shards > 1:
		mode = fmt.Sprintf("%d shards by %s", *shards, *shardGran)
	}
	fmt.Printf("%s: %d hosts, %d racks, %d VMs, %d pairs, policy=%s, cm=%g, %s\n",
		topo.Name(), topo.Hosts(), topo.Racks(), cl.NumVMs(), tm.NumPairs(), pol.Name(), *cm, mode)

	runner, err := score.NewRunner(eng, pol, simCfg, rng)
	if err != nil {
		return err
	}
	m, err := runner.Run()
	if err != nil {
		return err
	}

	if *chart {
		viz.LineChart(os.Stdout, "communication cost over time", 72, 14,
			viz.Series{Name: "cost", X: m.Cost.T, Y: m.Cost.V})
	}
	fmt.Printf("initial cost: %.0f\nfinal cost:   %.0f (%.1f%% reduction)\n",
		m.InitialCost, m.FinalCost, 100*m.Reduction())
	fmt.Printf("migrations: %d (aborted %d), hops: %d, tokens regenerated: %d\n",
		m.TotalMigrations, m.AbortedMigrations, m.TokenHops, m.TokensRegenerated)
	if m.SpuriousRegens > 0 {
		fmt.Printf("spurious regenerations (presumed-lost token witnessed alive): %d\n", m.SpuriousRegens)
	}
	if *autoTune && len(m.ShardsChosen) > 0 {
		fmt.Printf("auto-tuned ring count per round: %v\n", m.ShardsChosen)
	}
	fmt.Printf("migrated: %.0f MB total\n", m.TotalMigratedMB)
	if len(m.PerShard) > 0 {
		fmt.Printf("cross-shard: %d proposed, %d applied after reconciliation, %d staged moves stale-rejected\n",
			m.CrossProposed, m.CrossApplied, m.StaleRejected)
		for _, st := range m.PerShard {
			line := fmt.Sprintf("  shard %d: %d VMs, %d hops, %d intra-shard migrations, %d proposals",
				st.Shard, st.VMs, st.Hops, st.Migrations, st.Proposals)
			if st.LatencyS > 0 {
				line += fmt.Sprintf(", %.2f ms ring latency", 1000*st.LatencyS)
			}
			if st.Regenerated > 0 {
				line += fmt.Sprintf(", %d tokens re-injected (%d recovered rings)", st.Regenerated, st.Recovered)
			}
			fmt.Println(line)
		}
	}
	for _, it := range m.Iterations {
		if it.Migrations == 0 {
			continue
		}
		fmt.Printf("  pass %d: %d migrations (%.1f%%)\n", it.Index, it.Migrations, 100*it.Ratio)
	}
	if *auditDump != "" {
		f, err := os.Create(*auditDump)
		if err != nil {
			return err
		}
		recs := auditRing.Snapshot()
		if err := obs.WriteAuditJSON(f, recs); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("audit: %d decision records written to %s (%d dropped by the ring)\n",
			len(recs), *auditDump, auditRing.Dropped())
	}
	return nil
}
