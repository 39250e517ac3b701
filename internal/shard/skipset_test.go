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
		"applied=18 120/71/4/4 123/74/3/3 148/85/4/4 121/79/4/4",
		"applied=6 117/95/2/2 124/105/0/0 150/119/0/0 121/100/1/1",
		"applied=3 116/105/1/1 123/108/0/0 152/141/0/0 121/116/0/0",
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
			"applied=48 105/19/5/5 80/26/4/4 71/25/3/3 105/20/8/8 79/31/4/4 72/24/3/3",
			"applied=20 106/64/4/4 79/44/2/2 70/46/0/0 102/58/6/6 84/53/1/1 71/46/4/4",
			"applied=7 106/84/2/2 80/65/0/0 69/59/0/0 102/78/0/0 84/75/0/0 71/55/1/1",
			"applied=3 107/93/1/1 80/73/0/0 67/64/0/0 103/94/0/0 84/81/0/0 71/62/0/0",
			"applied=2 108/95/0/0 81/78/1/1 65/63/0/0 103/101/0/0 84/84/0/0 71/69/0/0",
			"applied=2 108/100/0/0 82/74/0/0 64/63/0/0 103/102/0/0 84/82/0/0 71/68/0/0",
			"applied=3 107/106/0/0 84/69/3/3 63/63/0/0 103/100/0/0 84/82/0/0 71/69/0/0",
			"applied=0 107/99/0/0 84/69/0/0 63/62/0/0 103/99/0/0 84/82/0/0 71/67/0/0",
		}},
		{"auto-tuned", 0, 0, []string{
			"applied=338 512/0/338/338",
			"applied=90 512/15/90/90",
			"applied=19 51/14/1/1 66/14/0/0 77/32/1/1 47/28/0/0 86/27/7/7 61/35/0/0 52/24/4/4 72/33/0/0",
			"applied=7 52/43/0/0 65/41/0/0 75/46/2/2 47/43/0/0 87/56/1/1 62/54/0/0 51/38/1/1 73/57/1/1",
			"applied=0 53/48/0/0 64/42/0/0 75/52/0/0 47/46/0/0 88/77/0/0 62/60/0/0 50/47/0/0 73/57/0/0",
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
			"applied=668 2072/601/90/90 1940/583/92/92 2017/606/111/111 1971/652/104/104",
			"applied=280 2070/1292/30/30 1949/1237/38/38 2023/1233/39/39 1958/1243/36/36",
			"applied=127 2082/1647/15/15 1942/1539/13/13 2017/1566/30/30 1959/1574/14/14",
			"applied=72 2086/1797/12/12 1940/1717/6/6 2016/1699/18/18 1958/1734/6/6",
			"applied=30 2090/1881/7/7 1936/1797/2/2 2011/1794/3/3 1963/1802/2/2",
			"applied=14 2094/1964/3/3 1933/1830/1/1 2007/1925/3/3 1966/1887/0/0",
			"applied=8 2098/2003/1/1 1930/1855/1/1 2007/1932/1/1 1965/1931/1/1",
			"applied=2 2100/2047/2/2 1927/1893/0/0 2008/1948/0/0 1965/1945/0/0",
			"applied=3 2100/2069/3/3 1927/1922/0/0 2008/1979/0/0 1965/1965/0/0",
			"applied=1 2100/2062/1/1 1927/1924/0/0 2008/1994/0/0 1965/1963/0/0",
			"applied=0 2100/2081/0/0 1927/1924/0/0 2008/2005/0/0 1965/1964/0/0",
		}},
		{"auto-tuned", 0, []string{
			"applied=5573 8000/0/5573/5573",
			"applied=1264 8000/164/1264/1264",
			"applied=281 8000/3528/281/281",
			"applied=51 8000/6304/51/51",
			"applied=3 1252/1162/0/0 798/758/1/1 1248/1189/0/0 771/717/1/1 1258/1153/0/0 856/780/0/0 1061/1028/0/0 756/717/0/0",
			"applied=2 1252/1249/0/0 798/793/0/0 1248/1244/0/0 770/758/0/0 1258/1249/0/0 857/836/2/2 1061/1057/0/0 756/755/0/0",
			"applied=1 1252/1248/0/0 798/797/0/0 1248/1247/0/0 770/769/0/0 1258/1253/0/0 857/835/1/1 1061/1060/0/0 756/756/0/0",
			"applied=2 1252/1252/0/0 798/798/0/0 1248/1248/0/0 770/769/0/0 1258/1257/0/0 857/841/2/2 1061/1061/0/0 756/756/0/0",
			"applied=1 1252/1252/0/0 798/798/0/0 1248/1248/0/0 770/769/0/0 1258/1257/0/0 857/845/1/1 1061/1061/0/0 756/756/0/0",
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
