// Command ladder is the traced run's per-layer pass: each layer's
// public functions timed on the instance the workload started from, so
// the ratios between rungs mean something. It is the only part of the
// benchmark that imports the program's internal packages, and it is a
// program of its own — the runner builds and starts it after a traced
// run's timed phase — so an internal refactor can break a rung here but
// never the end-to-end half.
//
// It reads a gen.LadderInputs as JSON on standard input and prints the
// per-layer metrics, by name, as one JSON object.
package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"github.com/score-dc/score"
	"github.com/score-dc/score/bench/gen"
	"github.com/score-dc/score/bench/stat"
)

// inputs is what the rungs work on. Fat is the workload's fat-tree
// instance of arity FatK (converge's k=24, the daemon's k=16), Canon
// the paper's canonical-tree instance. Both are at their initial
// placement when a rung starts and when it returns; the traffic
// matrices are never mutated (rungs that write work on clones).
type inputs struct {
	gen.LadderInputs
	Fat, Canon *gen.Instance
}

func build(li gen.LadderInputs) (inputs, error) {
	in := inputs{LadderInputs: li}
	var err error
	if in.Fat, err = gen.FatTree(li.FatK, li.VMsPerHost, li.Seed); err != nil {
		return in, err
	}
	topo, err := score.NewCanonicalTree(li.Canon)
	if err != nil {
		return in, err
	}
	in.Canon, err = gen.Canonical(topo, li.CanonVMsPerHost, 1, li.Seed)
	return in, err
}

// runRungs walks every rung and returns the per-layer metrics by name.
func runRungs(in inputs) (map[string]float64, error) {
	out := map[string]float64{}
	for _, rung := range []func(inputs, map[string]float64) error{
		topologyRungs, clusterRungs, trafficRungs, coreRungs, tokenRungs,
		controlRungs, shardRungs, // shardRungs sums the rungs before it
		obsRungs, serveRungs, simRungs, agentRungs, baselineRungs,
	} {
		if err := rung(in, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func mainErr() error {
	var li gen.LadderInputs
	if err := json.NewDecoder(os.Stdin).Decode(&li); err != nil {
		return fmt.Errorf("inputs: %w", err)
	}
	in, err := build(li)
	if err != nil {
		return err
	}
	out, err := runRungs(in)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "ladder:", err)
		os.Exit(1)
	}
}

// sink keeps measured calls from being optimised away.
var sink float64

// perCallNs times n calls of f and returns nanoseconds per call.
func perCallNs(n int, f func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// medianMs runs f reps times and returns the median duration in ms.
func medianMs(reps int, f func()) float64 {
	d := make([]float64, reps)
	for i := range d {
		t0 := time.Now()
		f()
		d[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
	}
	return stat.Median(d)
}

// heapAlloc returns the live heap after a full collection (two cycles,
// so that what the first one's finalizers and sweep released is gone).
func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// picks draws n VM IDs uniformly, fixed per seed.
func picks(vms []score.VMID, n int, seed int64) []score.VMID {
	rng := rand.New(rand.NewSource(seed))
	out := make([]score.VMID, n)
	for i := range out {
		out[i] = vms[rng.Intn(len(vms))]
	}
	return out
}
