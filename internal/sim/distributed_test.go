package sim

import (
	"testing"

	"github.com/score-dc/score/internal/token"
)

// TestDistributedRunReducesCost: the distributed agent-plane mode must
// converge like the other modes and populate the per-shard rollup,
// ring-latency and cross-shard accounting.
func TestDistributedRunReducesCost(t *testing.T) {
	eng, rng := buildEngine(t, 9)
	cfg := smallConfig()
	cfg.DistributedShards = 2
	r, err := NewRunner(eng, token.HighestLevelFirst{}, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	m, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.FinalCost >= m.InitialCost {
		t.Fatalf("distributed run did not reduce cost: %v -> %v", m.InitialCost, m.FinalCost)
	}
	if m.Reduction() < 0.2 {
		t.Fatalf("distributed reduction only %.1f%%", 100*m.Reduction())
	}
	if m.TotalMigrations == 0 || m.TokenHops == 0 || m.Rounds == 0 {
		t.Fatalf("missing migration/hop/round accounting: %+v", m)
	}
	if len(m.PerShard) == 0 {
		t.Fatal("per-shard rollup empty")
	}
	var hops, migs int
	var latency float64
	for _, st := range m.PerShard {
		hops += st.Hops
		migs += st.Migrations
		latency += st.LatencyS
	}
	if hops != m.TokenHops {
		t.Fatalf("shard hop rollup %d != token hops %d", hops, m.TokenHops)
	}
	if migs+m.CrossApplied != m.TotalMigrations {
		t.Fatalf("intra (%d) + cross (%d) != total %d", migs, m.CrossApplied, m.TotalMigrations)
	}
	if latency <= 0 {
		t.Fatal("ring latency not recorded")
	}
	if len(m.MigrationTimesS) != m.TotalMigrations {
		t.Fatal("migration model samples missing")
	}
	if len(m.Cost.T) < 2 || m.Cost.V[len(m.Cost.V)-1] != m.FinalCost {
		t.Fatal("cost series not sampled per round")
	}
}

// TestDistributedRunOnCPUCluster: the agent plane runs a cluster whose
// hosts have CPU capacity — 3000 millicores against VMs of 250–1000, so
// CPU binds — to the end: every move it commits is mirrored into the
// engine's cluster by cl.Move, which enforces CPU too, so one move the
// agents admitted past a host's CPU would abort the run. The same
// instance without CPU ends elsewhere, so CPU admission decided moves.
func TestDistributedRunOnCPUCluster(t *testing.T) {
	run := func(cpuMilli int) *Metrics {
		eng, rng := buildEngineCPU(t, 9, cpuMilli)
		cfg := smallConfig()
		cfg.DistributedShards = 4
		r, err := NewRunner(eng, token.HighestLevelFirst{}, cfg, rng)
		if err != nil {
			t.Fatal(err)
		}
		m, err := r.Run()
		if err != nil {
			t.Fatalf("CPU %d: %v", cpuMilli, err)
		}
		if m.TotalMigrations == 0 || m.FinalCost >= m.InitialCost {
			t.Fatalf("CPU %d: %d migrations, cost %v -> %v", cpuMilli, m.TotalMigrations, m.InitialCost, m.FinalCost)
		}
		return m
	}
	cpu, free := run(3000), run(0)
	if cpu.TotalMigrations == free.TotalMigrations && cpu.FinalCost == free.FinalCost {
		t.Fatal("CPU capacity changed no decision; the test exercises nothing")
	}
}

// TestDistributedRunDeterministic: two runs with equal seeds must yield
// identical metrics for a fixed configuration.
func TestDistributedRunDeterministic(t *testing.T) {
	run := func() *Metrics {
		eng, rng := buildEngine(t, 13)
		cfg := smallConfig()
		cfg.DistributedShards = 2
		r, err := NewRunner(eng, token.HighestLevelFirst{}, cfg, rng)
		if err != nil {
			t.Fatal(err)
		}
		m, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := run(), run()
	if a.FinalCost != b.FinalCost || a.TotalMigrations != b.TotalMigrations ||
		a.TokenHops != b.TokenHops || a.CrossApplied != b.CrossApplied {
		t.Fatalf("distributed runs diverged: %v/%d/%d/%d vs %v/%d/%d/%d",
			a.FinalCost, a.TotalMigrations, a.TokenHops, a.CrossApplied,
			b.FinalCost, b.TotalMigrations, b.TokenHops, b.CrossApplied)
	}
}

// TestDistributedRunTokenLossRecovers: with per-hop shard-token loss
// injected on the wire, the distributed run must still converge — every
// lost token recovered by reconciler-driven ring regeneration, never a
// round-level timeout — and the recovery must be visible in the metrics:
// TokensRegenerated counts the re-injections and the per-shard rollup
// carries the regenerated/recovered counters.
func TestDistributedRunTokenLossRecovers(t *testing.T) {
	eng, rng := buildEngine(t, 9)
	cfg := smallConfig()
	cfg.DistributedShards = 2
	cfg.TokenLossProb = 0.1
	cfg.DistributedDeadlineS = 0.04
	r, err := NewRunner(eng, token.HighestLevelFirst{}, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	m, err := r.Run()
	if err != nil {
		t.Fatalf("lossy distributed run failed: %v", err)
	}
	if m.FinalCost >= m.InitialCost {
		t.Fatalf("lossy run did not reduce cost: %v -> %v", m.InitialCost, m.FinalCost)
	}
	if m.TokensRegenerated == 0 {
		t.Fatal("10% token loss produced no regenerations")
	}
	regen, recovered := 0, 0
	for _, st := range m.PerShard {
		regen += st.Regenerated
		recovered += st.Recovered
	}
	if regen != m.TokensRegenerated {
		t.Fatalf("per-shard regeneration rollup %d != total %d", regen, m.TokensRegenerated)
	}
	if recovered == 0 {
		t.Fatal("no ring recorded as recovered despite regenerations")
	}
}

// TestDistributedRunRejectsBadConfigs: the stochastic Random policy and
// mixed sharded modes must be refused up front.
func TestDistributedRunRejectsBadConfigs(t *testing.T) {
	eng, rng := buildEngine(t, 5)
	cfg := smallConfig()
	cfg.DistributedShards = 2
	r, err := NewRunner(eng, &token.Random{Rng: rng}, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err == nil {
		t.Fatal("distributed run accepted a stochastic policy")
	}

	eng2, rng2 := buildEngine(t, 5)
	cfg2 := smallConfig()
	cfg2.DistributedShards = 2
	cfg2.Shards = 4
	r2, err := NewRunner(eng2, token.HighestLevelFirst{}, cfg2, rng2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r2.Run(); err == nil {
		t.Fatal("distributed run accepted a simultaneous in-process shard config")
	}
}
