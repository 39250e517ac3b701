// Command scoregen generates a synthetic data-center traffic matrix with
// the measurement-study structure of Section VI (sparse rack-level
// hotspots, elephant/mice mix) and prints it as CSV pair list, ToR-level
// matrix, or ASCII heatmap.
//
// The default topology is the canonical tree with randomized placement.
// With -fattree k the generator switches to the scale path: a fat-tree
// topology, VMs created and placed in topology order, and the pair list
// streamed straight off the CSR matrix — a k=24 instance with 100k+ VMs
// generates in seconds without ever materializing a pair map.
//
// Usage:
//
//	scoregen [-racks N] [-hosts N] [-fattree K] [-vms-per-host N]
//	         [-scale F] [-seed N] [-format pairs|tor|heatmap]
package main

import (
	"bufio"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"github.com/score-dc/score"
	"github.com/score-dc/score/internal/viz"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "scoregen:", err)
		os.Exit(1)
	}
}

func run() error {
	racks := flag.Int("racks", 32, "number of racks (canonical tree)")
	hostsPerRack := flag.Int("hosts", 10, "hosts per rack (canonical tree)")
	fattree := flag.Int("fattree", 0, "fat-tree parameter k (even, ≥4); 0 = canonical tree")
	vmsPerHost := flag.Int("vms-per-host", 4, "VMs per host")
	scaleF := flag.Float64("scale", 1, "rate scale factor (10=medium, 50=dense)")
	seed := flag.Int64("seed", 1, "random seed")
	format := flag.String("format", "heatmap", "output: pairs, tor, or heatmap")
	flag.Parse()

	rng := rand.New(rand.NewSource(*seed))
	var (
		topo score.Topology
		err  error
	)
	if *fattree > 0 {
		topo, err = score.NewFatTree(*fattree, 1000)
	} else {
		topo, err = score.NewCanonicalTree(score.ScaledCanonicalConfig(*racks, *hostsPerRack))
	}
	if err != nil {
		return err
	}
	cl, err := score.NewCluster(score.UniformHosts(topo.Hosts(), 2**vmsPerHost, 2**vmsPerHost*1024, 1000))
	if err != nil {
		return err
	}
	pm := score.NewPlacementManager(cl, 0x0a000001)
	if *fattree > 0 {
		// Scale path: create and place in topology order — streaming,
		// no random-retry loop over 100k VMs.
		for h := 0; h < topo.Hosts(); h++ {
			for j := 0; j < *vmsPerHost; j++ {
				id, err := pm.CreateVM(1024)
				if err != nil {
					return err
				}
				if err := cl.Place(id, score.HostID(h)); err != nil {
					return err
				}
			}
		}
	} else {
		for i := 0; i < topo.Hosts()**vmsPerHost; i++ {
			if _, err := pm.CreateVM(1024); err != nil {
				return err
			}
		}
		if err := pm.PlaceRandom(rng); err != nil {
			return err
		}
	}
	tm, err := score.GenerateTraffic(score.DefaultGenConfig(topo.Racks()), topo, cl, rng)
	if err != nil {
		return err
	}
	if *scaleF != 1 {
		tm = tm.Scaled(*scaleF)
	}

	switch *format {
	case "pairs":
		// Stream pairs without materializing a pair list: at
		// k=24 scale the CSV is the only O(|pairs|) artifact.
		w := bufio.NewWriterSize(os.Stdout, 1<<20)
		fmt.Fprintln(w, "vm_a,vm_b,rate_mbps")
		buf := make([]byte, 0, 64)
		tm.ForEachPair(func(a, b score.VMID, rate float64) {
			buf = buf[:0]
			buf = strconv.AppendUint(buf, uint64(a), 10)
			buf = append(buf, ',')
			buf = strconv.AppendUint(buf, uint64(b), 10)
			buf = append(buf, ',')
			buf = strconv.AppendFloat(buf, rate, 'g', -1, 64)
			buf = append(buf, '\n')
			w.Write(buf)
		})
		return w.Flush()
	case "tor":
		tor := score.TorMatrix(tm, topo, cl)
		w := bufio.NewWriterSize(os.Stdout, 1<<20)
		for _, row := range tor {
			cells := make([]string, len(row))
			for j, v := range row {
				cells[j] = fmt.Sprintf("%.3f", v)
			}
			fmt.Fprintln(w, strings.Join(cells, ","))
		}
		return w.Flush()
	case "heatmap":
		tor := score.TorMatrix(tm, topo, cl)
		viz.Heatmap(os.Stdout, fmt.Sprintf("ToR traffic matrix (%d racks, %d VM pairs, scale x%g)",
			topo.Racks(), tm.NumPairs(), *scaleF), tor)
	default:
		return fmt.Errorf("unknown format %q", *format)
	}
	return nil
}
