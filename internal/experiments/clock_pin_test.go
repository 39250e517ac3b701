package experiments

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/score-dc/score/internal/sim"
	"github.com/score-dc/score/internal/token"
)

// clockSum pins what a run's clock decides: when each sample reads the
// cost, what it reads, and the token's and the migrations' tallies.
func clockSum(m *sim.Metrics) uint64 {
	vals := []any{m.TokenHops, m.TokensRegenerated, m.TotalMigrations, m.Cost.Len()}
	for i := range m.Cost.T {
		vals = append(vals, m.Cost.T[i], m.Cost.V[i])
	}
	vals = append(vals, len(m.DowntimesMS))
	for _, d := range m.DowntimesMS {
		vals = append(vals, d)
	}
	return pinSum(vals...)
}

// TestClockPinned pins, bit for bit, serial runs whose hops fall on
// sample ticks and Remedy runs whose rounds fall on them, so the order
// of two events due at one time shows: a sample due with a hop or a
// round reads the cost before it when the sample was scheduled first,
// after it otherwise. A hop shorter than the sample interval is
// scheduled after the tick it ties with, a longer one before it; a lost
// token's 10 s regeneration ties with ticks too. The Remedy runs end on
// a round (300 s) and between a round and a tick (317.5 s).
func TestClockPinned(t *testing.T) {
	sc, err := NewScenario(Canonical, ScaleSmall, Sparse, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]uint64{}
	for _, c := range []struct {
		name              string
		policy            string
		hop, sample, loss float64
	}{
		{"hlf", "hlf", 0.5, 5, 0},
		{"hlf-loss", "hlf", 0.5, 5, 0.05},
		{"rr-loss", "rr", 0.25, 1, 0.1},
		{"llf-loss", "llf", 10, 5, 0.3},
	} {
		run, err := sc.CloneForRun()
		if err != nil {
			t.Fatal(err)
		}
		pol, err := token.ByName(c.policy, nil)
		if err != nil {
			t.Fatal(err)
		}
		cfg := sim.DefaultConfig()
		cfg.HopLatencyS, cfg.SampleIntervalS, cfg.TokenLossProb = c.hop, c.sample, c.loss
		r, err := sim.NewRunner(run.Eng, pol, cfg, rand.New(rand.NewSource(19)))
		if err != nil {
			t.Fatal(err)
		}
		m, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		if m.TotalMigrations == 0 || (c.loss > 0) != (m.TokensRegenerated > 0) {
			t.Fatalf("%s: %d migrations, %d regenerations", c.name, m.TotalMigrations, m.TokensRegenerated)
		}
		got[c.name] = clockSum(m)
	}

	for _, d := range []float64{300, 317.5} {
		run, err := NewScenario(Canonical, ScaleSmall, Dense, testSeed)
		if err != nil {
			t.Fatal(err)
		}
		cfg := sim.DefaultRemedyConfig()
		cfg.DurationS = d
		m, err := sim.RunRemedy(run.Eng, cfg, rand.New(rand.NewSource(13)))
		if err != nil {
			t.Fatal(err)
		}
		if m.TotalMigrations == 0 {
			t.Fatalf("remedy %gs: no migration", d)
		}
		got[fmt.Sprintf("remedy-%g", d)] = clockSum(m)
	}

	want := map[string]uint64{
		"hlf":          0xe6d42b36933690c8,
		"hlf-loss":     0x944d9351398d924a,
		"rr-loss":      0x1a670be8bb643b1d,
		"llf-loss":     0x065c3df21bef0b94,
		"remedy-300":   0x99799173f5e5f5ab,
		"remedy-317.5": 0xae2c4c8fa1bed9d8,
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s: pin %#x, want %#x", k, got[k], w)
		}
	}
}
