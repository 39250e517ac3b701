package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/score-dc/score/internal/cluster"
	"github.com/score-dc/score/internal/core"
	"github.com/score-dc/score/internal/netsim"
	"github.com/score-dc/score/internal/token"
	"github.com/score-dc/score/internal/topology"
	"github.com/score-dc/score/internal/traffic"
)

func buildEngine(t *testing.T, seed int64) (*core.Engine, *rand.Rand) {
	return buildEngineCPU(t, seed, 0)
}

// buildEngineCPU is buildEngine on hosts with cpuMilli millicores of CPU,
// whose VMs then demand 250–1000 millicores each; zero gives neither.
func buildEngineCPU(t *testing.T, seed int64, cpuMilli int) (*core.Engine, *rand.Rand) {
	return buildEngineSized(t, seed, 8, cpuMilli)
}

// buildEngineSized is buildEngineCPU over racks racks of 4 hosts.
func buildEngineSized(t *testing.T, seed int64, racks, cpuMilli int) (*core.Engine, *rand.Rand) {
	t.Helper()
	topo, err := topology.NewCanonicalTree(topology.ScaledCanonicalConfig(racks, 4))
	if err != nil {
		t.Fatal(err)
	}
	hosts := cluster.UniformHosts(topo.Hosts(), 16, 32768, 1000)
	for i := range hosts {
		hosts[i].CPUMilli = cpuMilli
	}
	cl, err := cluster.New(hosts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < topo.Hosts()*4; i++ {
		vm := cluster.VM{ID: cluster.VMID(1 + i), RAMMB: 1024}
		if cpuMilli > 0 {
			vm.CPUMilli = 250 * (1 + i%4)
		}
		if err := cl.AddVM(vm); err != nil {
			t.Fatal(err)
		}
	}
	if err := cluster.NewPlacementManager(cl, 1).PlaceRandom(rng); err != nil {
		t.Fatal(err)
	}
	tm, err := traffic.Generate(traffic.DefaultGenConfig(topo.Racks()), topo, cl, rng)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := core.NewCostModel(core.PaperWeights()...)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(topo, cm, cl, tm, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return eng, rng
}

// churn wraps the policy under test and changes rates mid-run: after
// every k-th Next it sets one random pair's rate (0 retires the pair),
// and with add also adds to another pair.
type churn struct {
	token.Policy
	eng      *core.Engine
	rng      *rand.Rand
	k, calls int
	add      bool
}

func (p *churn) Next(tok *token.Token, view token.HolderView) (cluster.VMID, bool) {
	next, ok := p.Policy.Next(tok, view)
	if p.calls++; p.calls%p.k == 0 {
		vms, tm := p.eng.Cluster().VMs(), p.eng.Traffic()
		a, b := vms[p.rng.Intn(len(vms))], vms[p.rng.Intn(len(vms))]
		tm.Set(a, b, 90*p.rng.Float64()*float64(p.rng.Intn(3)))
		if p.add {
			tm.Add(b, vms[p.rng.Intn(len(vms))], p.rng.ExpFloat64())
		}
	}
	return next, ok
}

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.DurationS = 200
	cfg.HopLatencyS = 0.02
	cfg.SampleIntervalS = 5
	return cfg
}

func TestRunReducesCost(t *testing.T) {
	eng, rng := buildEngine(t, 9)
	r, err := NewRunner(eng, token.HighestLevelFirst{}, smallConfig(), rng)
	if err != nil {
		t.Fatalf("NewRunner: %v", err)
	}
	m, err := r.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if m.FinalCost >= m.InitialCost {
		t.Fatalf("cost did not decrease: %v -> %v", m.InitialCost, m.FinalCost)
	}
	if m.Reduction() < 0.3 {
		t.Fatalf("reduction = %.1f%%, want at least 30%%", 100*m.Reduction())
	}
	if m.TotalMigrations == 0 {
		t.Fatal("no migrations executed")
	}
	if m.TokenHops == 0 {
		t.Fatal("token never moved")
	}
	if m.Cost.Len() < 10 {
		t.Fatalf("cost series has %d samples", m.Cost.Len())
	}
	if len(m.UtilizationByLevel[3]) == 0 {
		t.Fatal("no level-3 utilization samples")
	}
}

// TestRunRecordsEachPassOnce: a run capped at P passes records exactly
// P, indexed 1..P, with every hop and migration in one of them; a run
// that ends mid-pass keeps its partial pass.
func TestRunRecordsEachPassOnce(t *testing.T) {
	passes := func(t *testing.T, cfg Config) (*Metrics, int) {
		t.Helper()
		eng, rng := buildEngine(t, 9)
		r, err := NewRunner(eng, token.HighestLevelFirst{}, cfg, rng)
		if err != nil {
			t.Fatal(err)
		}
		m, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		migs := 0
		for i, it := range m.Iterations {
			if it.Index != i+1 {
				t.Fatalf("pass %d has index %d", i+1, it.Index)
			}
			migs += it.Migrations
		}
		if migs != m.TotalMigrations || m.TotalMigrations == 0 {
			t.Fatalf("passes hold %d migrations, the run made %d", migs, m.TotalMigrations)
		}
		return m, eng.Cluster().NumVMs()
	}
	for _, p := range []int{1, 2, 5} {
		cfg := smallConfig()
		cfg.MaxIterations = p
		m, n := passes(t, cfg)
		if len(m.Iterations) != p || m.TokenHops != p*n {
			t.Fatalf("capped at %d passes: %d recorded, %d hops of %d VMs", p, len(m.Iterations), m.TokenHops, n)
		}
	}
	cfg := smallConfig()
	cfg.DurationS = 1.5 * 128 * cfg.HopLatencyS // 128 VMs: half way through pass 2
	m, n := passes(t, cfg)
	if len(m.Iterations) != 2 || m.TokenHops <= n || m.TokenHops >= 2*n {
		t.Fatalf("%d hops of %d VMs: %d passes recorded, want 2", m.TokenHops, n, len(m.Iterations))
	}
}

// TestPassBooksBalance: a pass is |V| hops, lost or delivered, so the
// run's per-pass books match its totals under every policy, token loss
// rate and pass cap. Each run is generated from its seed: an 8-host tree
// of 32 VMs, hops of 0.05 s for 40–80 s.
func TestPassBooksBalance(t *testing.T) {
	for _, policy := range []string{"hlf", "rr", "llf", "random"} {
		for _, loss := range []float64{0, 0.01, 0.05, 0.3} {
			for _, maxIter := range []int{0, 1, 3} {
				for seed := int64(1); seed <= 20; seed++ {
					eng, rng := buildEngineSized(t, seed, 2, 0)
					pol, err := token.ByName(policy, rand.New(rand.NewSource(seed)))
					if err != nil {
						t.Fatal(err)
					}
					cfg := smallConfig()
					cfg.HopLatencyS, cfg.DurationS = 0.05, float64(40+rng.Intn(41))
					cfg.TokenLossProb, cfg.MaxIterations = loss, maxIter
					r, err := NewRunner(eng, pol, cfg, rng)
					if err != nil {
						t.Fatal(err)
					}
					m, err := r.Run()
					if err != nil {
						t.Fatal(err)
					}
					name := fmt.Sprintf("%s, loss %v, cap %d, seed %d", policy, loss, maxIter, seed)
					n := eng.Cluster().NumVMs()
					want := (m.TokenHops + n - 1) / n
					if maxIter > 0 {
						want = min(want, maxIter)
					}
					if len(m.Iterations) != want {
						t.Fatalf("%s: %d hops of %d VMs recorded %d passes, want %d", name, m.TokenHops, n, len(m.Iterations), want)
					}
					migs := 0
					for i, it := range m.Iterations {
						if it.Index != i+1 {
							t.Fatalf("%s: pass %d has index %d", name, i+1, it.Index)
						}
						migs += it.Migrations
					}
					if migs != m.TotalMigrations || len(m.DowntimesMS) != m.TotalMigrations || len(m.MigrationTimesS) != m.TotalMigrations {
						t.Fatalf("%s: passes hold %d migrations, %d downtimes and %d migration times; the run made %d",
							name, migs, len(m.DowntimesMS), len(m.MigrationTimesS), m.TotalMigrations)
					}
				}
			}
		}
	}
}

func TestConvergenceAcrossIterations(t *testing.T) {
	eng, rng := buildEngine(t, 10)
	cfg := smallConfig()
	cfg.MaxIterations = 5
	cfg.DurationS = 600
	r, err := NewRunner(eng, token.HighestLevelFirst{}, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	m, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Iterations) < 3 {
		t.Fatalf("only %d iterations recorded", len(m.Iterations))
	}
	// The paper's Fig. 2 property: migrations plummet after iteration 2.
	first := m.Iterations[0].Ratio
	later := m.Iterations[len(m.Iterations)-1].Ratio
	if first == 0 {
		t.Fatal("no migrations in the first pass")
	}
	if later > first/2 {
		t.Fatalf("no convergence: first pass %.3f, last pass %.3f", first, later)
	}
}

func TestCostSeriesNonIncreasingTrend(t *testing.T) {
	eng, rng := buildEngine(t, 11)
	r, err := NewRunner(eng, token.RoundRobin{}, smallConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	m, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Sampled cost may wiggle while migrations are in flight, but the
	// series must trend down: every sample within 1% of the running min
	// envelope from above... enforce the weaker global property:
	if m.Cost.V[0] < m.Cost.V[m.Cost.Len()-1] {
		t.Fatalf("cost series ends above its start: %v -> %v", m.Cost.V[0], m.Cost.V[m.Cost.Len()-1])
	}
	for i := 1; i < m.Cost.Len(); i++ {
		if m.Cost.V[i] > m.Cost.V[i-1]*1.0001 {
			t.Fatalf("cost increased at sample %d: %v -> %v (no oscillation expected)",
				i, m.Cost.V[i-1], m.Cost.V[i])
		}
	}
}

func TestCapacityNeverViolated(t *testing.T) {
	eng, rng := buildEngine(t, 12)
	cl := eng.Cluster()
	r, err := NewRunner(eng, token.HighestLevelFirst{}, smallConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	for h := 0; h < cl.NumHosts(); h++ {
		id := cluster.HostID(h)
		host, err := cl.Host(id)
		if err != nil {
			t.Fatal(err)
		}
		if cl.UsedSlots(id) > host.Slots {
			t.Fatalf("host %d over slots: %d > %d", h, cl.UsedSlots(id), host.Slots)
		}
		if cl.FreeRAMMB(id) < 0 {
			t.Fatalf("host %d over RAM", h)
		}
	}
	if m := r.metrics; m.AbortedMigrations > 0 {
		t.Fatalf("reservations should prevent aborts, got %d", m.AbortedMigrations)
	}
}

func TestTokenLossRegeneration(t *testing.T) {
	eng, rng := buildEngine(t, 13)
	cfg := smallConfig()
	cfg.TokenLossProb = 0.05
	r, err := NewRunner(eng, token.HighestLevelFirst{}, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	m, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.TokensRegenerated == 0 {
		t.Fatal("token loss injected but never regenerated")
	}
	// The algorithm must still make progress despite losses.
	if m.FinalCost >= m.InitialCost {
		t.Fatalf("no progress under token loss: %v -> %v", m.InitialCost, m.FinalCost)
	}
}

func TestRunnerValidation(t *testing.T) {
	eng, rng := buildEngine(t, 14)
	if _, err := NewRunner(nil, token.RoundRobin{}, smallConfig(), rng); err == nil {
		t.Fatal("nil engine accepted")
	}
	bad := smallConfig()
	bad.DurationS = 0
	if _, err := NewRunner(eng, token.RoundRobin{}, bad, rng); err == nil {
		t.Fatal("zero duration accepted")
	}
}

func TestDowntimesWithinPaperEnvelope(t *testing.T) {
	eng, rng := buildEngine(t, 15)
	r, err := NewRunner(eng, token.HighestLevelFirst{}, smallConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	m, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.DowntimesMS) == 0 {
		t.Fatal("no downtime samples")
	}
	for _, d := range m.DowntimesMS {
		if d <= 0 || d > 60 {
			t.Fatalf("downtime %vms outside the paper's <50ms envelope", d)
		}
	}
	if m.TotalMigratedMB <= 0 {
		t.Fatal("no migrated bytes recorded")
	}
}

func TestRemedyRunReducesCostModestly(t *testing.T) {
	eng, rng := buildEngine(t, 16)
	cfg := DefaultRemedyConfig()
	cfg.DurationS = 300
	cfg.SampleIntervalS = 10
	m, err := RunRemedy(eng, cfg, rng)
	if err != nil {
		t.Fatalf("RunRemedy: %v", err)
	}
	if m.FinalCost > m.InitialCost*1.05 {
		t.Fatalf("Remedy made cost much worse: %v -> %v", m.InitialCost, m.FinalCost)
	}
	if m.Cost.Len() < 5 {
		t.Fatalf("cost series too short: %d", m.Cost.Len())
	}
	if len(m.UtilizationByLevel[3]) == 0 {
		t.Fatal("no utilization output")
	}
}

func TestCostRatioSeries(t *testing.T) {
	var m Metrics
	m.Cost.Append(0, 100)
	m.Cost.Append(1, 50)
	s := m.CostRatioSeries(50)
	if s.Len() != 2 || s.V[0] != 2 || s.V[1] != 1 {
		t.Fatalf("ratio series = %+v", s)
	}
	if got := m.CostRatioSeries(0); got.Len() != 0 {
		t.Fatal("zero reference must yield empty series")
	}
}

// TestLinkLoadsAfterRunEqualRecompute: the link loads a run maintains by
// ShiftPair per migration and Sync per rate change are sums of rates on
// traffic's grid, so at the end they are, bit for bit, what one Recompute
// over the final state gives — under the serial token with rates changing
// mid-run, and on the sharded plane.
func TestLinkLoadsAfterRunEqualRecompute(t *testing.T) {
	for _, shards := range []int{0, 4} {
		eng, rng := buildEngine(t, 9)
		cfg := smallConfig()
		cfg.Shards = shards
		var pol token.Policy = token.HighestLevelFirst{}
		if shards == 0 { // rates change every 185 hops (3.7 s)
			pol = &churn{Policy: pol, eng: eng, rng: rand.New(rand.NewSource(3)), k: 185, add: true}
		}
		r, err := NewRunner(eng, pol, cfg, rng)
		if err != nil {
			t.Fatal(err)
		}
		m, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		if m.TotalMigrations == 0 {
			t.Fatalf("shards=%d: no migrations; nothing was folded", shards)
		}
		fresh := netsim.NewNetwork(eng.Topology())
		fresh.Recompute(eng.Traffic(), eng.Cluster())
		for id := range eng.Topology().Links() {
			got, want := r.net.LinkLoadMbps(topology.LinkID(id)), fresh.LinkLoadMbps(topology.LinkID(id))
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("shards=%d: link %d carries %v folded, %v recomputed", shards, id, got, want)
			}
		}
	}
}
