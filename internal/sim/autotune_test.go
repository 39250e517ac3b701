package sim

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"github.com/score-dc/score/internal/token"
)

// autoTuneConfig is the shared AutoTune run shape of these tests.
func autoTuneConfig() Config {
	cfg := smallConfig()
	cfg.AutoTune = true
	return cfg
}

// TestAutoTunedRunReducesCost: the AutoTune mode must run the sharded
// plane without any fixed shard flag, converge like a fixed run, and
// record the controller's per-round ring choices.
func TestAutoTunedRunReducesCost(t *testing.T) {
	eng, rng := buildEngine(t, 9)
	r, err := NewRunner(eng, token.HighestLevelFirst{}, autoTuneConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	m, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.Reduction() < 0.2 {
		t.Fatalf("auto-tuned reduction only %.1f%%", 100*m.Reduction())
	}
	if len(m.ShardsChosen) != m.Rounds || m.Rounds == 0 {
		t.Fatalf("per-round shard choices missing: %d choices over %d rounds", len(m.ShardsChosen), m.Rounds)
	}
	for i, n := range m.ShardsChosen {
		if n < 1 {
			t.Fatalf("round %d chose %d shards", i+1, n)
		}
	}
}

// TestAutoTunedShardedDeterministic: the controller's measurements feed
// from the deterministic observation stream, so auto-tuned runs must be
// byte-identical across GOMAXPROCS — the concurrency of the rings must
// not leak into the control loop.
func TestAutoTunedShardedDeterministic(t *testing.T) {
	run := func(procs int) string {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		eng, rng := buildEngine(t, 23)
		r, err := NewRunner(eng, token.HighestLevelFirst{}, autoTuneConfig(), rng)
		if err != nil {
			t.Fatal(err)
		}
		m, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		if m.TotalMigrations == 0 {
			t.Fatal("fixture produced no migrations; determinism test vacuous")
		}
		// Fingerprint the strictly ordered observables: the bit-exact
		// cost series plus the controller's choices.
		series := fmt.Sprintf("final=%x migs=%d hops=%d chosen=%v series=",
			math.Float64bits(m.FinalCost), m.TotalMigrations, m.TokenHops, m.ShardsChosen)
		for i := range m.Cost.T {
			series += fmt.Sprintf("%x:%x;", math.Float64bits(m.Cost.T[i]), math.Float64bits(m.Cost.V[i]))
		}
		return series
	}
	base := run(1)
	for _, procs := range []int{4, 8} {
		if got := run(procs); got != base {
			t.Fatalf("auto-tuned run differs between GOMAXPROCS=1 and %d", procs)
		}
	}
}

// TestAutoTunedDistributedRuns: AutoTune over the distributed agent
// plane must drive the reconciler's per-round partition from the
// controller and complete end to end.
func TestAutoTunedDistributedRuns(t *testing.T) {
	eng, rng := buildEngine(t, 5)
	cfg := autoTuneConfig()
	cfg.DistributedShards = 1 // selects the plane; the count is tuned away
	r, err := NewRunner(eng, token.HighestLevelFirst{}, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	m, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.Reduction() < 0.2 {
		t.Fatalf("auto-tuned distributed reduction only %.1f%%", 100*m.Reduction())
	}
	if len(m.ShardsChosen) == 0 {
		t.Fatal("distributed auto-tuned run recorded no shard choices")
	}
	if m.TokensRegenerated != 0 {
		t.Fatalf("healthy plane regenerated %d tokens", m.TokensRegenerated)
	}
}
