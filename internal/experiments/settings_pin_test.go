package experiments

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"github.com/score-dc/score/internal/cluster"
	"github.com/score-dc/score/internal/ga"
	"github.com/score-dc/score/internal/sim"
	"github.com/score-dc/score/internal/token"
	"github.com/score-dc/score/internal/traffic"
)

// pinSum folds integers and float bit patterns into one FNV-64a sum, so
// a changed rounding anywhere in a series changes the pin.
func pinSum(vals ...any) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range vals {
		var u uint64
		switch x := v.(type) {
		case float64:
			u = math.Float64bits(x)
		case int:
			u = uint64(x)
		case cluster.VMID:
			u = uint64(x)
		default:
			panic("pinSum: unsupported type")
		}
		binary.LittleEndian.PutUint64(b[:], u)
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestSettingsPinned pins the outputs of the traffic generator, the GA,
// the Remedy run, a lossy single-token run and the Fig. 5 pre-copy
// samples at fixed seeds, bit for bit. Their tuning values are constants of their packages; this test
// sets only the fields callers vary, so a mistyped constant (or a
// constant expression that rounds differently from the run-time one)
// shows up here under plain `go test`.
func TestSettingsPinned(t *testing.T) {
	sc, err := NewScenario(Canonical, ScaleSmall, Sparse, testSeed)
	if err != nil {
		t.Fatal(err)
	}

	// Traffic generator: every pair and rate of a fresh draw.
	tm, err := traffic.Generate(traffic.DefaultGenConfig(sc.Topo.Racks()), sc.Topo, sc.Cl, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	var pairs []any
	tm.ForEachPair(func(a, b cluster.VMID, rate float64) { pairs = append(pairs, a, b, rate) })
	got := map[string]uint64{"traffic": pinSum(pairs...)}

	// GA at a fixed generation count.
	gcfg := ga.DefaultConfig()
	gcfg.Population, gcfg.MinGenerations, gcfg.MaxGenerations = 30, 5, 5
	gres, err := ga.Optimize(sc.Eng, gcfg, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	got["ga"] = pinSum(gres.BestCost, gres.Generations)

	// Remedy under the comparison setup, on the dense matrix (the sparse
	// one congests no link at this scale).
	rrun, err := NewScenario(Canonical, ScaleSmall, Dense, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := sim.RunRemedy(rrun.Eng, sim.DefaultRemedyConfig(), rand.New(rand.NewSource(13)))
	if err != nil {
		t.Fatal(err)
	}
	got["remedy"] = pinSum(rm.FinalCost, rm.TotalMigrations, rm.TotalMigratedMB)
	if rm.TotalMigrations == 0 {
		t.Fatal("Remedy migrated nothing")
	}

	// Single-token HLF with token loss: regeneration timer and the
	// migration model's bytes and downtimes.
	srun, err := sc.CloneForRun()
	if err != nil {
		t.Fatal(err)
	}
	scfg := sim.DefaultConfig()
	scfg.DurationS = 200
	scfg.TokenLossProb = 0.05
	runner, err := sim.NewRunner(srun.Eng, token.HighestLevelFirst{}, scfg, rand.New(rand.NewSource(17)))
	if err != nil {
		t.Fatal(err)
	}
	sm, err := runner.Run()
	if err != nil {
		t.Fatal(err)
	}
	down := []any{sm.FinalCost, sm.TokensRegenerated, sm.TotalMigratedMB, len(sm.DowntimesMS)}
	for _, d := range sm.DowntimesMS {
		down = append(down, d)
	}
	got["sim"] = pinSum(down...)
	if sm.TokensRegenerated == 0 {
		t.Fatal("the lossy run never regenerated its token")
	}

	// Fig. 5: every migrated-bytes sample of 5b and every per-load mean
	// and std of the 5c/5d sweep.
	f5 := []any{}
	for _, mb := range Fig5bMigratedBytes(500, 5).Samples {
		f5 = append(f5, mb)
	}
	cd := Fig5cdMigrationSweep(20, 5)
	for i := range cd.Loads {
		f5 = append(f5, cd.TimeMean[i], cd.TimeStd[i], cd.DownMean[i], cd.DownStd[i])
	}
	got["fig5"] = pinSum(f5...)

	want := map[string]uint64{
		"traffic": 0x6c560c088dd0deeb,
		"ga":      0x9a7fd37fb54963ec,
		"remedy":  0x81bf9566ef372521,
		"sim":     0xd7cc436538e42f86,
		"fig5":    0x4609f3a61b03a26b,
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s: pin %#x, want %#x", k, got[k], w)
		}
	}
}
