package sim

import (
	"math"
	"math/rand"
	"testing"

	"github.com/score-dc/score/internal/cluster"
	"github.com/score-dc/score/internal/netsim"
	"github.com/score-dc/score/internal/token"
)

// TestLinkUtilEqualsRoutedLoad: the migration model's background load,
// read from the engine's NIC loads, equals the routed host-link
// utilization of a netsim.Network synced at the same moment, by
// Float64bits, at every read — a serial HLF run with rates changing
// mid-run and token loss, the in-process sharded plane (the round's
// starting loads of every host) and the dom0 agent plane (the loads
// each mirrored move sees).
func TestLinkUtilEqualsRoutedLoad(t *testing.T) {
	for _, c := range []struct {
		name string
		seed int64
		set  func(*Config)
	}{
		{"serial", 9, func(c *Config) { c.TokenLossProb = 0.002 }},
		{"shards4", 9, func(c *Config) { c.Shards = 4 }},
		{"distributed4", 13, func(c *Config) { c.DistributedShards = 4 }},
	} {
		eng, rng := buildEngine(t, c.seed)
		cfg := smallConfig()
		c.set(&cfg)
		var pol token.Policy = token.HighestLevelFirst{}
		if c.name == "serial" { // rates change every 115 hops (2.3 s)
			pol = &churn{Policy: pol, eng: eng, rng: rand.New(rand.NewSource(5)), k: 115}
		}
		r, err := NewRunner(eng, pol, cfg, rng)
		if err != nil {
			t.Fatal(err)
		}
		ref := netsim.NewNetwork(eng.Topology())
		reads, loaded := 0, 0
		r.onLinkRead = func(h cluster.HostID, util float64) {
			ref.Sync(eng.Traffic(), eng.Cluster())
			if want := ref.HostLinkUtilization(h); math.Float64bits(util) != math.Float64bits(want) {
				t.Fatalf("%s: read %d, host %d: NIC load gives %v, routed load %v", c.name, reads, h, util, want)
			}
			reads++
			if util > 0 {
				loaded++
			}
		}
		m, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		if m.TotalMigrations == 0 || loaded == 0 {
			t.Fatalf("%s: %d migrations, %d of %d reads loaded: nothing was compared", c.name, m.TotalMigrations, loaded, reads)
		}
		if c.name == "serial" && m.TokensRegenerated == 0 {
			t.Fatalf("serial: no token was lost")
		}
		t.Logf("%s: %d reads (%d loaded), %d migrations", c.name, reads, loaded, m.TotalMigrations)
	}
}
