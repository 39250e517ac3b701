package sim

import (
	"strings"
	"testing"

	"github.com/score-dc/score/internal/shard"
	"github.com/score-dc/score/internal/token"
)

// TestShardedRunReducesCost: the sharded mode must converge like the
// single-token run and populate the per-shard rollup and cross-shard
// accounting.
func TestShardedRunReducesCost(t *testing.T) {
	for _, pol := range []token.Policy{token.HighestLevelFirst{}, token.RoundRobin{}} {
		eng, rng := buildEngine(t, 9)
		cfg := smallConfig()
		cfg.Shards = 4
		cfg.ShardWorkers = 4
		r, err := NewRunner(eng, pol, cfg, rng)
		if err != nil {
			t.Fatal(err)
		}
		m, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		if m.FinalCost >= m.InitialCost {
			t.Fatalf("%s: sharded run did not reduce cost: %v -> %v", pol.Name(), m.InitialCost, m.FinalCost)
		}
		if m.Reduction() < 0.2 {
			t.Fatalf("%s: sharded reduction only %.1f%%", pol.Name(), 100*m.Reduction())
		}
		if m.TotalMigrations == 0 || m.TokenHops == 0 {
			t.Fatalf("%s: missing migration/hop accounting: %+v", pol.Name(), m)
		}
		if len(m.PerShard) == 0 {
			t.Fatalf("%s: per-shard rollup empty", pol.Name())
		}
		var shardHops, shardMigs int
		for _, st := range m.PerShard {
			shardHops += st.Hops
			shardMigs += st.Migrations
		}
		if shardHops != m.TokenHops {
			t.Fatalf("%s: shard hop rollup %d != token hops %d", pol.Name(), shardHops, m.TokenHops)
		}
		if shardMigs+m.CrossApplied != m.TotalMigrations {
			t.Fatalf("%s: intra (%d) + cross (%d) migrations != total %d",
				pol.Name(), shardMigs, m.CrossApplied, m.TotalMigrations)
		}
		if len(m.MigrationTimesS) != m.TotalMigrations || len(m.DowntimesMS) != m.TotalMigrations {
			t.Fatalf("%s: migration model samples missing", pol.Name())
		}
		if len(m.Cost.T) < 2 || m.Cost.V[len(m.Cost.V)-1] != m.FinalCost {
			t.Fatalf("%s: cost series not sampled per round", pol.Name())
		}
	}
}

// TestShardedMatchesSingleTokenTrend: the sharded mode must reach a
// final cost in the same neighborhood as the classic single-token DES
// run on the same instance (it is a scheduling deviation, not a
// different objective).
func TestShardedMatchesSingleTokenTrend(t *testing.T) {
	engSingle, rngSingle := buildEngine(t, 13)
	single, err := NewRunner(engSingle, token.HighestLevelFirst{}, smallConfig(), rngSingle)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := single.Run()
	if err != nil {
		t.Fatal(err)
	}

	engShard, rngShard := buildEngine(t, 13)
	cfg := smallConfig()
	cfg.Shards = 4
	cfg.ShardGranularity = shard.ByRack
	sharded, err := NewRunner(engShard, token.HighestLevelFirst{}, cfg, rngShard)
	if err != nil {
		t.Fatal(err)
	}
	mh, err := sharded.Run()
	if err != nil {
		t.Fatal(err)
	}
	if mh.Reduction() < 0.75*ms.Reduction() {
		t.Fatalf("sharded reduction %.1f%% captures under 75%% of single-token %.1f%%",
			100*mh.Reduction(), 100*ms.Reduction())
	}
}

// TestShardedModesRefuseReorderingPolicies: a sharded round walks each
// ring once in ID order, so a policy that would reorder even a fresh
// pass is refused by both planes, with an error naming the driver that
// does run it — the single token, where the same runner goes through.
func TestShardedModesRefuseReorderingPolicies(t *testing.T) {
	modes := map[string]func(*Config){
		"shards":      func(c *Config) { c.Shards = 4 },
		"distributed": func(c *Config) { c.DistributedShards = 2 },
		"autotune":    func(c *Config) { c.AutoTune = true },
		"single":      func(*Config) {},
	}
	for mode, set := range modes {
		for _, name := range []string{"random", "llf"} {
			eng, rng := buildEngine(t, 21)
			pol, err := token.ByName(name, rng)
			if err != nil {
				t.Fatal(err)
			}
			cfg := smallConfig()
			cfg.MaxIterations = 2
			set(&cfg)
			r, err := NewRunner(eng, pol, cfg, rng)
			if err != nil {
				t.Fatal(err)
			}
			_, err = r.Run()
			switch {
			case mode == "single" && err != nil:
				t.Fatalf("single token refused %s: %v", name, err)
			case mode != "single" && (err == nil || !strings.Contains(err.Error(), "single token")):
				t.Fatalf("%s mode under %s: want a refusal pointing at the single token, got %v", mode, name, err)
			}
		}
	}
}
