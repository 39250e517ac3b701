package shard_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/score-dc/score/internal/control"
	"github.com/score-dc/score/internal/shard"
)

// TestSkipSetPinned pins which visits the memo skips, not only what is
// decided: a visit evaluated that could have been skipped returns the
// same decision, and a skip the kernel agrees with passes the differential
// check, so a skip test that drifted either way would pass every
// decision-equivalence test. Coordinators run a k=8 fat-tree to
// quiescence, and every round must repeat the recorded applied count and
// per-ring hops/skipped/committed/merged. (At k=8, four rack shards are
// the four pod shards; six rack shards straddle pods.)
func TestSkipSetPinned(t *testing.T) {
	fourShards := []string{
		"applied=286 129/0/46/46 131/0/38/38 127/0/49/49 125/0/38/38",
		"applied=134 124/5/23/23 120/3/17/17 143/4/29/29 125/3/21/21",
		"applied=53 118/26/6/6 125/34/10/10 147/33/13/13 122/32/6/6",
		"applied=18 120/71/4/4 123/74/3/3 148/85/4/4 121/80/4/4",
		"applied=6 117/95/2/2 124/109/0/0 150/119/0/0 121/107/1/1",
		"applied=3 116/106/1/1 123/116/0/0 152/145/0/0 121/117/0/0",
		"applied=0 116/107/0/0 122/121/0/0 153/148/0/0 121/120/0/0",
	}
	runs := []struct {
		name   string
		shards int
		g      shard.Granularity
		want   []string
	}{
		{"4 pod shards", 4, shard.ByPod, fourShards},
		{"4 rack shards", 4, shard.ByRack, fourShards},
		{"6 rack shards", 6, shard.ByRack, []string{
			"applied=285 99/0/33/33 78/0/21/21 83/0/16/16 93/0/28/28 81/0/23/23 78/0/23/23",
			"applied=142 100/4/23/23 80/1/7/7 72/3/8/8 106/3/24/24 78/4/9/9 76/2/8/8",
			"applied=48 105/19/5/5 80/26/4/4 71/25/3/3 105/20/8/8 79/31/4/4 72/26/3/3",
			"applied=20 106/64/4/4 79/44/2/2 70/48/0/0 102/58/6/6 84/53/1/1 71/47/4/4",
			"applied=7 106/85/2/2 80/66/0/0 69/61/0/0 102/80/0/0 84/76/0/0 71/56/1/1",
			"applied=3 107/95/1/1 80/74/0/0 67/64/0/0 103/98/0/0 84/81/0/0 71/66/0/0",
			"applied=2 108/99/0/0 81/79/1/1 65/63/0/0 103/102/0/0 84/84/0/0 71/70/0/0",
			"applied=2 108/106/0/0 82/75/0/0 64/63/0/0 103/103/0/0 84/82/0/0 71/69/0/0",
			"applied=3 107/106/0/0 84/70/3/3 63/63/0/0 103/103/0/0 84/82/0/0 71/71/0/0",
			"applied=0 107/106/0/0 84/70/0/0 63/62/0/0 103/103/0/0 84/82/0/0 71/69/0/0",
		}},
		{"auto-tuned", 0, 0, []string{
			"applied=338 512/0/338/338",
			"applied=90 512/15/90/90",
			"applied=19 51/14/1/1 66/20/0/0 77/44/1/1 47/28/0/0 86/27/7/7 61/35/0/0 52/24/4/4 72/36/0/0",
			"applied=7 52/44/0/0 65/59/0/0 75/61/2/2 47/43/0/0 87/58/1/1 62/54/0/0 51/38/1/1 73/66/1/1",
			"applied=0 53/49/0/0 64/60/0/0 75/67/0/0 47/46/0/0 88/83/0/0 62/60/0/0 50/47/0/0 73/67/0/0",
		}},
	}
	for _, run := range runs {
		t.Run(run.name, func(t *testing.T) {
			eng := shard.BuildEngine(t, 8, 29, 10)
			cfg := shard.Config{Shards: run.shards, Granularity: run.g}
			if run.shards == 0 {
				ctrl := control.New(eng.Topology(), control.Config{})
				defer ctrl.Bind(eng.Traffic(), eng.Cluster())()
				cfg.Tuner = ctrl
			}
			coord, err := shard.NewCoordinator(eng, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer coord.Close()
			var got []string
			for r := 0; r < 64; r++ {
				round, err := coord.RunRound()
				if err != nil {
					t.Fatal(err)
				}
				line := fmt.Sprintf("applied=%d", len(round.Applied))
				for _, sh := range round.Shards {
					line += fmt.Sprintf(" %d/%d/%d/%d", sh.Hops, sh.Skipped, sh.Committed, sh.Merged)
				}
				got = append(got, line)
				if len(round.Applied) == 0 {
					break
				}
			}
			if !slices.Equal(got, run.want) {
				t.Errorf("round by round, got\n%#v\nrecorded\n%#v", got, run.want)
			}
		})
	}
}

// TestColdRoundsPinned pins what the cold rounds decide, not only how
// many moves they make: one pass from the initial placement of the k=8
// fat-tree, run to quiescence, hashed over every applied decision (VM,
// source, target, ΔC bits), each round's RealizedDelta bits and its stale
// and cross tallies, and the final C^A's bits. The merge lands a clean
// commit on its staged verdict and Best leaves a rack that cannot win
// unwalked; both are exact, so neither may move a hash. The six rack
// shards straddle pods, so more of their commits sit near another ring's
// moves and are re-validated.
func TestColdRoundsPinned(t *testing.T) {
	runs := []struct {
		name   string
		shards int
		want   string
	}{
		{"auto-tuned", 0, "c2ca51fbba72075f1f1a320e499d9cdbf77f7475693ddc2675dc1f43b20a5a4f"},
		{"6 rack shards", 6, "0d9d8e6711e488c151fa6aa26129ae6c854d49848c0c15d9dd59fc90b9400014"},
	}
	for _, run := range runs {
		t.Run(run.name, func(t *testing.T) {
			eng := shard.BuildEngine(t, 8, 29, 10)
			cfg := shard.Config{Shards: run.shards, Granularity: shard.ByRack}
			if run.shards == 0 {
				ctrl := control.New(eng.Topology(), control.Config{})
				defer ctrl.Bind(eng.Traffic(), eng.Cluster())()
				cfg.Tuner = ctrl
			}
			coord, err := shard.NewCoordinator(eng, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer coord.Close()
			h := sha256.New()
			for r := 0; ; r++ {
				round, err := coord.RunRound()
				if err != nil {
					t.Fatal(err)
				}
				for _, d := range round.Applied {
					fmt.Fprintf(h, "%d %d %d %x,", d.VM, d.From, d.Target, math.Float64bits(d.Delta))
				}
				fmt.Fprintf(h, "| %x %d %d %d\n", math.Float64bits(round.RealizedDelta), round.StaleRejected, round.CrossApplied, round.CrossRejected)
				if len(round.Applied) == 0 {
					break
				}
				if r == 64 {
					t.Fatal("rounds did not converge")
				}
			}
			fmt.Fprintf(h, "%x", math.Float64bits(eng.TotalCost()))
			if got := hex.EncodeToString(h.Sum(nil)); got != run.want {
				t.Errorf("decisions hash to %s, recorded %s", got, run.want)
			}
		})
	}
}

// TestSkipSetPinnedPastLogWindow pins the skip set where one round writes
// more placements than 2,048: on the k=20 fat-tree (8,000 VMs) round 0
// writes 4,765, and the memo must keep the verdicts it recorded before
// them, so round 1 skips what it skips here. Lines are TestSkipSetPinned's
// (applied count, then per-ring hops/skipped/committed/merged).
func TestSkipSetPinnedPastLogWindow(t *testing.T) {
	runs := []struct {
		name   string
		shards int
		want   []string
	}{
		{"4 pod shards", 4, []string{
			"applied=4765 2030/0/740/740 1948/0/772/772 1988/0/741/741 2034/0/745/745",
			"applied=1805 2056/45/326/326 1925/45/296/296 2029/39/294/294 1990/39/284/284",
			"applied=668 2072/607/90/90 1940/584/92/92 2017/608/111/111 1971/653/104/104",
			"applied=280 2070/1330/30/30 1949/1258/38/38 2023/1270/39/39 1958/1256/36/36",
			"applied=127 2082/1726/15/15 1942/1600/13/13 2017/1618/30/30 1959/1625/14/14",
			"applied=72 2086/1886/12/12 1940/1791/6/6 2016/1777/18/18 1958/1800/6/6",
			"applied=30 2090/1969/7/7 1936/1862/2/2 2011/1880/3/3 1963/1869/2/2",
			"applied=14 2094/2035/3/3 1933/1899/1/1 2007/1965/3/3 1966/1923/0/0",
			"applied=8 2098/2063/1/1 1930/1912/1/1 2007/1980/1/1 1965/1952/1/1",
			"applied=2 2100/2085/2/2 1927/1918/0/0 2008/1997/0/0 1965/1954/0/0",
			"applied=3 2100/2086/3/3 1927/1927/0/0 2008/2005/0/0 1965/1965/0/0",
			"applied=1 2100/2087/1/1 1927/1926/0/0 2008/2005/0/0 1965/1965/0/0",
			"applied=0 2100/2094/0/0 1927/1927/0/0 2008/2008/0/0 1965/1965/0/0",
		}},
		{"auto-tuned", 0, []string{
			"applied=5573 8000/0/5573/5573",
			"applied=1264 8000/164/1264/1264",
			"applied=281 8000/3573/281/281",
			"applied=51 8000/6564/51/51",
			"applied=3 1252/1214/0/0 798/775/1/1 1248/1216/0/0 771/735/1/1 1258/1197/0/0 856/802/0/0 1061/1045/0/0 756/747/0/0",
			"applied=2 1252/1250/0/0 798/796/0/0 1248/1247/0/0 770/765/0/0 1258/1256/0/0 857/849/2/2 1061/1059/0/0 756/756/0/0",
			"applied=1 1252/1250/0/0 798/797/0/0 1248/1248/0/0 770/769/0/0 1258/1256/0/0 857/843/1/1 1061/1061/0/0 756/756/0/0",
			"applied=2 1252/1252/0/0 798/798/0/0 1248/1248/0/0 770/769/0/0 1258/1257/0/0 857/844/2/2 1061/1061/0/0 756/756/0/0",
			"applied=1 1252/1252/0/0 798/798/0/0 1248/1248/0/0 770/769/0/0 1258/1257/0/0 857/848/1/1 1061/1061/0/0 756/756/0/0",
			"applied=0 1252/1251/0/0 798/798/0/0 1248/1248/0/0 770/769/0/0 1258/1258/0/0 857/854/0/0 1061/1060/0/0 756/756/0/0",
		}},
	}
	for _, run := range runs {
		t.Run(run.name, func(t *testing.T) {
			eng := shard.BuildEngine(t, 20, 29, 10)
			cfg := shard.Config{Shards: run.shards, Granularity: shard.ByPod}
			if run.shards == 0 {
				ctrl := control.New(eng.Topology(), control.Config{})
				defer ctrl.Bind(eng.Traffic(), eng.Cluster())()
				cfg.Tuner = ctrl
			}
			coord, err := shard.NewCoordinator(eng, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer coord.Close()
			var got []string
			for r := 0; r < 64; r++ {
				round, err := coord.RunRound()
				if err != nil {
					t.Fatal(err)
				}
				line := fmt.Sprintf("applied=%d", len(round.Applied))
				for _, sh := range round.Shards {
					line += fmt.Sprintf(" %d/%d/%d/%d", sh.Hops, sh.Skipped, sh.Committed, sh.Merged)
				}
				got = append(got, line)
				if len(round.Applied) == 0 {
					break
				}
			}
			if !slices.Equal(got, run.want) {
				t.Errorf("round by round, got\n%#v\nrecorded\n%#v", got, run.want)
			}
		})
	}
}
