package sim

import (
	"math"
	"testing"

	"github.com/score-dc/score/internal/token"
)

// TestMigrationModelInputsPinned: every sharded plane draws the pre-copy
// model for each applied move under the access-link loads that move saw
// — the round's starting loads in process, the loads left by the
// previous mirrored move on the agent plane. The digest prints migrated
// MB rounded to whole MB, so a load read at the wrong moment could slip
// past it; these sums, pinned to the bit, cannot.
func TestMigrationModelInputsPinned(t *testing.T) {
	for _, c := range []struct {
		name              string
		seed              int64
		set               func(*Config)
		mb, times, downMS uint64
	}{
		{"shards4", 9, func(c *Config) { c.Shards = 4 }, 0x40ceebbde619063f, 0x4077ad481d187450, 0x408802457d5bcc62},
		{"autotune", 23, func(c *Config) { c.AutoTune = true }, 0x40cd5fe9bfdb6508, 0x4076438510fc21dd, 0x40866ecd693c9df6},
		{"distributed4", 13, func(c *Config) { c.DistributedShards = 4 }, 0x40cb6b2afa8063af, 0x4074b6d2c4fd64b2, 0x40854211d19127e8},
	} {
		eng, rng := buildEngine(t, c.seed)
		cfg := smallConfig()
		c.set(&cfg)
		r, err := NewRunner(eng, token.HighestLevelFirst{}, cfg, rng)
		if err != nil {
			t.Fatal(err)
		}
		m, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		var times, down float64
		for i := range m.MigrationTimesS {
			times += m.MigrationTimesS[i]
			down += m.DowntimesMS[i]
		}
		if m.TotalMigrations == 0 {
			t.Fatalf("%s: no migration was modelled", c.name)
		}
		if math.Float64bits(m.TotalMigratedMB) != c.mb ||
			math.Float64bits(times) != c.times || math.Float64bits(down) != c.downMS {
			t.Errorf("%s: migrated MB %#x, Σ times %#x, Σ downtimes %#x; pinned %#x, %#x, %#x", c.name,
				math.Float64bits(m.TotalMigratedMB), math.Float64bits(times), math.Float64bits(down), c.mb, c.times, c.downMS)
		}
	}
}
