// Package ga implements the centralized genetic-algorithm baseline of
// Section VI-A, used to approximate the optimal VM allocation that
// S-CORE's distributed results are measured against.
//
// The paper's GA "starts with a population of 1,000 individuals
// representing densely-packed VM distributions", uses an edge-assembly
// crossover (EAX) and tournament selection, mutates by "swapping a random
// number of VMs between racks", and "stops when there is no significant
// improvement in communication cost reduction (< 1%) in 10 consecutive
// generations". Those operators and the stop rule run at the one setting
// the comparisons use, the package's constants (tournamentK,
// crossoverRate, mutationRate, maxSwaps, elite, greedySeedFraction,
// stopRelImprovement, stopGenerations). Computing it took circa 12 hours
// for a medium-load setup, which is exactly why S-CORE exists; Config
// sizes only the budget (population and generation bounds), so
// laptop-scale runs finish in seconds while preserving the optimization
// structure. Genomes are independent, so fitness evaluation and per-child
// breeding (crossover, mutation, memetic local search) fan out over the
// internal/shard worker pool; selection and child seeds are drawn
// sequentially, making results identical for every worker count.
//
// # Delta-encoded population
//
// The population is stored delta-encoded: each individual is a bounded
// diff list against a shared base packing (the live allocation at first,
// re-anchored by periodic rebase), falling back to a private dense
// genome only when its diff count exceeds a quarter of the instance. As
// the population converges — which the elitist loop drives it to —
// individuals differ from the incumbent in a handful of placements, so
// storing and copying whole genomes per generation is almost all
// redundant traffic. Breeding still operates densely: a worker
// materializes the parents into reused scratch, runs the identical
// crossover/mutation/search/fitness code with the identical RNG draw
// sequence, and encodes the child back, so the encoding is invisible to
// the optimization (bit-identical populations for a fixed seed,
// enforced by TestDeltaDenseEquivalence through the denseGenomes hook).
// Elites are immutable and shared across generations rather than
// copied. Rebase is deterministic: when more than half the population
// has overflowed to dense, the best individual becomes the new base and
// everyone re-encodes against it.
package ga

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"github.com/score-dc/score/internal/cluster"
	"github.com/score-dc/score/internal/core"
	"github.com/score-dc/score/internal/shard"
	"github.com/score-dc/score/internal/topology"
)

// The Section VI-A operators and termination rule, at the values every
// comparison runs with.
const (
	// tournamentK is the tournament size for parent selection.
	tournamentK = 4
	// crossoverRate is the probability a child is produced by crossover
	// rather than cloning a parent.
	crossoverRate = 0.9
	// mutationRate is the per-child probability of a rack-swap mutation,
	// which performs between 1 and maxSwaps VM swaps.
	mutationRate = 0.3
	maxSwaps     = 4
	// elite individuals survive unchanged each generation.
	elite = 2
	// The paper's termination rule: stop when the relative improvement
	// over the last stopGenerations generations falls below
	// stopRelImprovement.
	stopRelImprovement = 0.01
	stopGenerations    = 10
	// greedySeedFraction of the population is initialized by the greedy
	// pair-packing heuristic (the rest are random dense packings),
	// accelerating convergence toward dense co-located allocations.
	greedySeedFraction = 0.25
)

// Config sizes the GA's budget.
type Config struct {
	// Population is the number of individuals (paper: 1000).
	Population int
	// MinGenerations prevents the termination rule from firing before
	// the population has had a chance to leave its seeds' plateau.
	MinGenerations int
	// MaxGenerations is a hard cap.
	MaxGenerations int

	// Test hooks, set by in-package tests only. denseGenomes disables the
	// delta encoding: every individual stores a full dense genome, as the
	// implementation originally did; populations are bit-identical either
	// way. observeGen, when set, is called after each generation's
	// population is complete, before the termination check.
	denseGenomes bool
	observeGen   func(gen int, in *instance, pop []*indiv, fit []float64)
}

// DefaultConfig returns a laptop-scale budget.
func DefaultConfig() Config {
	return Config{
		Population:     200,
		MinGenerations: 40,
		MaxGenerations: 300,
	}
}

// PaperConfig returns the paper's population size; expect long runtimes
// at full instance scale.
func PaperConfig() Config {
	c := DefaultConfig()
	c.Population = 1000
	return c
}

// Result is the GA outcome.
type Result struct {
	// BestAlloc maps every VM to its host in the best allocation found.
	BestAlloc map[cluster.VMID]cluster.HostID
	// BestCost is C^A of BestAlloc.
	BestCost float64
	// Generations actually executed.
	Generations int
	// History records the best cost after each generation.
	History []float64
}

// instance is the flattened optimization problem: genome[i] is the host
// of vms[i].
type instance struct {
	topo     topology.Topology
	cost     core.CostModel
	vms      []cluster.VMID
	ramMB    []int
	cpuMilli []int
	slots    []int // per host
	hostRAM  []int
	hostCPU  []int // 0 = unconstrained
	pairsA   []int32
	pairsB   []int32
	rates    []float64
	numHosts int
	// kern is Eq. 5 (core.Kernel) over the engine's level tables: polish
	// scores on it, each breeding scratch on a clone of its own.
	kern *core.Kernel
	// CSR adjacency for local search: adjArr[adjOff[i]:adjOff[i+1]]
	// lists (peer index, rate) for VM i — one arena instead of one slice
	// per VM.
	adjOff []int32
	adjArr []edge
	// CSR rack→hosts table (ascending host IDs, the order
	// Topology.HostsInRack returns) — the search operators probe
	// same-rack spillover hosts millions of times per run, and the
	// topology's accessor allocates a fresh slice per call.
	rackOff []int32
	rackArr []cluster.HostID

	// base is the shared packing the population's diff lists are encoded
	// against; maxDiffs is the bound past which an individual falls back
	// to a private dense genome (≤ 0 forces dense — the denseGenomes hook).
	base     []cluster.HostID
	maxDiffs int

	// scratch is a free list of breeding scratch sets, bounded by worker
	// concurrency. A plain mutex-guarded stack (not sync.Pool) keeps the
	// allocation count deterministic for AllocsPerRun regression tests.
	scratchMu sync.Mutex
	scratch   []*breedScratch
}

type edge struct {
	peer int32
	rate float64
}

// adjOf returns VM vi's adjacency row.
func (in *instance) adjOf(vi int) []edge { return in.adjArr[in.adjOff[vi]:in.adjOff[vi+1]] }

// hostsInRack returns the rack's hosts without allocating.
func (in *instance) hostsInRack(rack int) []cluster.HostID {
	if rack < 0 || rack+1 >= len(in.rackOff) {
		return nil
	}
	return in.rackArr[in.rackOff[rack]:in.rackOff[rack+1]]
}

// diffEntry is one delta-encoded placement: genome[idx] = host.
type diffEntry struct {
	idx  int32
	host cluster.HostID
}

// indiv is one individual of the delta-encoded population: a diff list
// against the instance's shared base packing, or a private dense genome
// when the diff bound was exceeded. Individuals are immutable once
// created — elites are shared between generations, never copied.
type indiv struct {
	diffs []diffEntry      // ascending idx; meaningful only when dense == nil
	dense []cluster.HostID // fallback representation
}

// materialize writes iv's full genome into dst (len == |V|).
func (in *instance) materialize(dst []cluster.HostID, iv *indiv) {
	if iv.dense != nil {
		copy(dst, iv.dense)
		return
	}
	copy(dst, in.base)
	for _, d := range iv.diffs {
		dst[d.idx] = d.host
	}
}

// encode stores genome as an individual: a diff list against the shared
// base when it fits the bound, a private dense copy otherwise. The
// caller keeps ownership of genome (it is scratch).
func (in *instance) encode(genome []cluster.HostID) *indiv {
	if in.maxDiffs > 0 {
		nd := 0
		for i, h := range genome {
			if h != in.base[i] {
				nd++
				if nd > in.maxDiffs {
					break
				}
			}
		}
		if nd <= in.maxDiffs {
			diffs := make([]diffEntry, 0, nd)
			for i, h := range genome {
				if h != in.base[i] {
					diffs = append(diffs, diffEntry{idx: int32(i), host: h})
				}
			}
			return &indiv{diffs: diffs}
		}
	}
	return &indiv{dense: append([]cluster.HostID(nil), genome...)}
}

// rebase re-anchors the population on newBase: every individual is
// re-encoded against it (placements unchanged, so fitness is untouched).
// Called when most of the population has overflowed to dense — after
// convergence pulls individuals toward the incumbent, their diffs
// against the new anchor are small again.
func (in *instance) rebase(newBase []cluster.HostID, pop []*indiv) {
	// Densify the diff-encoded minority against the old base first — the
	// diffs are meaningless once the anchor moves.
	for i, iv := range pop {
		if iv.dense == nil {
			g := make([]cluster.HostID, len(in.base))
			in.materialize(g, iv)
			pop[i] = &indiv{dense: g}
		}
	}
	in.base = append([]cluster.HostID(nil), newBase...)
	sc := in.getScratch()
	for i, iv := range pop {
		in.materialize(sc.child, iv)
		pop[i] = in.encode(sc.child)
	}
	in.putScratch(sc)
}

// breedScratch is one worker's reusable breeding state: dense genome
// buffers for the child and second parent, rack-take flags, capacity
// tallies for repair/search, and a re-seedable RNG (a fresh
// rand.New per child costs ~5 KB of generator state; Seed resets the
// same state to the identical draw sequence for free).
type breedScratch struct {
	child, parent []cluster.HostID
	take          []bool
	slots         []int
	ram           []int
	cpu           []int
	perm          []int
	rng           *rand.Rand
	kern          *core.Kernel
}

func (in *instance) getScratch() *breedScratch {
	in.scratchMu.Lock()
	if n := len(in.scratch); n > 0 {
		sc := in.scratch[n-1]
		in.scratch = in.scratch[:n-1]
		in.scratchMu.Unlock()
		return sc
	}
	in.scratchMu.Unlock()
	n := len(in.vms)
	return &breedScratch{
		child:  make([]cluster.HostID, n),
		parent: make([]cluster.HostID, n),
		take:   make([]bool, in.topo.Racks()),
		slots:  make([]int, in.numHosts),
		ram:    make([]int, in.numHosts),
		cpu:    make([]int, in.numHosts),
		perm:   make([]int, n),
		rng:    rand.New(rand.NewSource(0)),
		kern:   in.kern.Clone(),
	}
}

func (in *instance) putScratch(sc *breedScratch) {
	in.scratchMu.Lock()
	in.scratch = append(in.scratch, sc)
	in.scratchMu.Unlock()
}

// tally recomputes the capacity ledgers from genome into the scratch.
func (in *instance) tally(genome []cluster.HostID, sc *breedScratch) {
	clear(sc.slots)
	clear(sc.ram)
	clear(sc.cpu)
	for i, h := range genome {
		sc.slots[h]++
		sc.ram[h] += in.ramMB[i]
		sc.cpu[h] += in.cpuMilli[i]
	}
}

func (in *instance) evaluate(genome []cluster.HostID) float64 {
	var sum float64
	for i := range in.pairsA {
		ha, hb := genome[in.pairsA[i]], genome[in.pairsB[i]]
		sum += in.cost.PairCost(in.rates[i], in.topo.Level(ha, hb))
	}
	return sum
}

// feasible verifies slot, RAM and CPU capacity.
func (in *instance) feasible(genome []cluster.HostID) bool {
	slots := make([]int, in.numHosts)
	ram := make([]int, in.numHosts)
	cpu := make([]int, in.numHosts)
	for i, h := range genome {
		if h < 0 || int(h) >= in.numHosts {
			return false
		}
		slots[h]++
		ram[h] += in.ramMB[i]
		cpu[h] += in.cpuMilli[i]
		if slots[h] > in.slots[h] || ram[h] > in.hostRAM[h] {
			return false
		}
		if in.hostCPU[h] > 0 && cpu[h] > in.hostCPU[h] {
			return false
		}
	}
	return true
}

// roomFor reports whether host h can take VM vi given the running
// slot/ram/cpu tallies.
func (in *instance) roomFor(vi, h int, slots, ram, cpu []int) bool {
	if slots[h] >= in.slots[h] || ram[h]+in.ramMB[vi] > in.hostRAM[h] {
		return false
	}
	return in.hostCPU[h] == 0 || cpu[h]+in.cpuMilli[vi] <= in.hostCPU[h]
}

// Optimize runs the GA against the engine's topology, cost model,
// cluster capacities, and traffic matrix. The live cluster allocation is
// only read as one seed individual; it is never mutated.
func Optimize(eng *core.Engine, cfg Config, rng *rand.Rand) (Result, error) {
	if cfg.Population <= elite {
		return Result{}, fmt.Errorf("ga: population must exceed the %d elites, got %d", elite, cfg.Population)
	}
	in, seed, err := buildInstance(eng)
	if err != nil {
		return Result{}, err
	}
	n := len(in.vms)
	if n == 0 {
		return Result{}, fmt.Errorf("ga: no VMs to optimize")
	}

	// Results are identical for every worker count: selection and seeds
	// are drawn sequentially from the caller's RNG, and each child breeds
	// with its own seed-derived RNG.
	pool := shard.NewPool(0)

	// The live allocation anchors the delta encoding: it is the shared
	// base, and individuals store bounded diffs against it until a
	// deterministic rebase re-anchors on a better incumbent.
	in.base = seed
	in.maxDiffs = n / 4
	if cfg.denseGenomes {
		in.maxDiffs = 0 // encode always falls back to dense storage
	}

	pop := make([]*indiv, cfg.Population)
	fit := make([]float64, cfg.Population)
	pop[0] = in.encode(seed) // current allocation as one individual
	// A locally optimal descendant of the live allocation joins the
	// population: the workload's locality structure is anchored on the
	// initial racks, so this basin is often competitive with dense
	// repackings and must be represented for the GA to dominate any
	// local-migration scheme.
	scratch0 := in.getScratch()
	copy(scratch0.child, seed)
	in.polish(scratch0.child)
	pop[1] = in.encode(scratch0.child)
	greedy := 2 + int(float64(cfg.Population)*greedySeedFraction)
	for i := 2; i < cfg.Population; i++ {
		if i <= greedy {
			in.greedyPack(scratch0.child, rng, scratch0)
		} else {
			in.randomDense(scratch0.child, rng, scratch0)
		}
		pop[i] = in.encode(scratch0.child)
	}
	in.putScratch(scratch0)
	pool.Run(cfg.Population, func(i int) {
		sc := in.getScratch()
		in.materialize(sc.child, pop[i])
		fit[i] = in.evaluate(sc.child)
		in.putScratch(sc)
	})

	res := Result{}
	bestIdx := argmin(fit)
	best := make([]cluster.HostID, n)
	in.materialize(best, pop[bestIdx])
	bestCost := fit[bestIdx]
	res.History = append(res.History, bestCost)

	// childSpec is the sequentially drawn breeding plan for one child;
	// the expensive part (crossover + mutation + memetic search +
	// fitness) then fans out over the pool with a per-child RNG.
	type childSpec struct {
		pa, pb *indiv // pb nil = clone pa
		mutate bool
		seed   int64
	}

	for gen := 0; gen < cfg.MaxGenerations; gen++ {
		next := make([]*indiv, cfg.Population)
		nextFit := make([]float64, cfg.Population)
		// Elitism: best individuals carry over with known fitness.
		// Individuals are immutable, so elites are shared, not copied.
		order := sortedByFitness(fit)
		if in.maxDiffs > 0 {
			dense := 0
			for _, iv := range pop {
				if iv.dense != nil {
					dense++
				}
			}
			if dense > cfg.Population/2 {
				in.rebase(best, pop)
			}
		}
		for e := 0; e < elite; e++ {
			next[e] = pop[order[e]]
			nextFit[e] = fit[order[e]]
		}
		specs := make([]childSpec, cfg.Population-elite)
		for j := range specs {
			sp := childSpec{pa: pop[tournament(fit, tournamentK, rng)]}
			if rng.Float64() < crossoverRate {
				sp.pb = pop[tournament(fit, tournamentK, rng)]
			}
			sp.mutate = rng.Float64() < mutationRate
			sp.seed = rng.Int63()
			specs[j] = sp
		}
		pool.Run(len(specs), func(j int) {
			sp := specs[j]
			sc := in.getScratch()
			sc.rng.Seed(sp.seed)
			in.materialize(sc.child, sp.pa)
			if sp.pb != nil {
				in.crossover(sc, sp.pb)
			}
			if sp.mutate {
				in.mutate(sc.child, maxSwaps, sc.rng, sc)
			}
			in.localSearch(sc.child, sc.rng, sc)
			next[elite+j] = in.encode(sc.child)
			nextFit[elite+j] = in.evaluate(sc.child)
			in.putScratch(sc)
		})
		pop, fit = next, nextFit
		if i := argmin(fit); fit[i] < bestCost {
			bestCost = fit[i]
			in.materialize(best, pop[i])
		}
		res.History = append(res.History, bestCost)
		res.Generations = gen + 1
		if cfg.observeGen != nil {
			cfg.observeGen(gen, in, pop, fit)
		}
		if gen+1 >= cfg.MinGenerations &&
			stopConverged(res.History, stopGenerations, stopRelImprovement) {
			break
		}
	}

	// Polish: exhaustive best-move passes until quiescent. This makes
	// the returned allocation a fixed point of single-VM improvement —
	// the reference "approximate optimal" can then never be beaten by a
	// scheme whose moves are single-VM relocations, which is exactly the
	// dominance property the paper's comparison relies on.
	in.polish(best)
	if c := in.evaluate(best); c < bestCost {
		bestCost = c
		res.History = append(res.History, bestCost)
	}

	res.BestCost = bestCost
	res.BestAlloc = make(map[cluster.VMID]cluster.HostID, n)
	for i, vm := range in.vms {
		res.BestAlloc[vm] = best[i]
	}
	return res, nil
}

// polish applies deterministic best-move passes over every VM until no
// single relocation improves the cost (capped defensively).
func (in *instance) polish(genome []cluster.HostID) {
	slots := make([]int, in.numHosts)
	ram := make([]int, in.numHosts)
	cpu := make([]int, in.numHosts)
	for i, h := range genome {
		slots[h]++
		ram[h] += in.ramMB[i]
		cpu[h] += in.cpuMilli[i]
	}
	for pass := 0; pass < 50; pass++ {
		moved := false
		for vi := range genome {
			if in.improve(in.kern, genome, vi, 1e-9, slots, ram, cpu) {
				moved = true
			}
		}
		if !moved {
			return
		}
	}
}

// improve moves VM vi to the candidate host with room — its peers' hosts
// and the rest of their racks — whose ΔC (Eq. 5 on k, vi's row resolved
// once) exceeds threshold by the most, updating the tallies; it reports
// whether vi moved.
func (in *instance) improve(k *core.Kernel, genome []cluster.HostID, vi int, threshold float64, slots, ram, cpu []int) bool {
	adj := in.adjOf(vi)
	if len(adj) == 0 {
		return false
	}
	from := genome[vi]
	k.Begin(from)
	for _, e := range adj {
		k.Peer(genome[e.peer], e.rate)
	}
	best, bestD := from, threshold
	consider := func(h cluster.HostID) {
		if h == from || !in.roomFor(vi, int(h), slots, ram, cpu) {
			return
		}
		if d := k.Score(h); d > bestD {
			best, bestD = h, d
		}
	}
	for _, e := range adj {
		hp := genome[e.peer]
		consider(hp)
		for _, alt := range in.hostsInRack(in.topo.RackOf(hp)) {
			consider(alt)
		}
	}
	if best == from {
		return false
	}
	slots[from]--
	ram[from] -= in.ramMB[vi]
	cpu[from] -= in.cpuMilli[vi]
	genome[vi] = best
	slots[best]++
	ram[best] += in.ramMB[vi]
	cpu[best] += in.cpuMilli[vi]
	return true
}

// stopConverged implements the paper's rule: no significant improvement
// (< rel) across the last k generations.
func stopConverged(history []float64, k int, rel float64) bool {
	if len(history) <= k {
		return false
	}
	prev := history[len(history)-1-k]
	cur := history[len(history)-1]
	if prev <= 0 {
		return true
	}
	return (prev-cur)/prev < rel
}

func buildInstance(eng *core.Engine) (*instance, []cluster.HostID, error) {
	cl := eng.Cluster()
	tm := eng.Traffic()
	in := &instance{
		topo:     eng.Topology(),
		cost:     eng.CostModel(),
		kern:     eng.Kernel(),
		vms:      cl.VMs(),
		numHosts: cl.NumHosts(),
	}
	in.ramMB = make([]int, len(in.vms))
	in.cpuMilli = make([]int, len(in.vms))
	idx := make(map[cluster.VMID]int32, len(in.vms))
	seed := make([]cluster.HostID, len(in.vms))
	for i, vm := range in.vms {
		idx[vm] = int32(i)
		v, err := cl.VM(vm)
		if err != nil {
			return nil, nil, err
		}
		in.ramMB[i] = v.RAMMB
		in.cpuMilli[i] = v.CPUMilli
		h := cl.HostOf(vm)
		if h == cluster.NoHost {
			return nil, nil, fmt.Errorf("ga: VM %d unplaced", vm)
		}
		seed[i] = h
	}
	in.slots = make([]int, in.numHosts)
	in.hostRAM = make([]int, in.numHosts)
	in.hostCPU = make([]int, in.numHosts)
	for h := 0; h < in.numHosts; h++ {
		host, err := cl.Host(cluster.HostID(h))
		if err != nil {
			return nil, nil, err
		}
		in.slots[h] = host.Slots
		in.hostRAM[h] = host.RAMMB
		in.hostCPU[h] = host.CPUMilli
	}
	// Rack→hosts CSR (hosts ascending within each rack, matching
	// Topology.HostsInRack order).
	racks := in.topo.Racks()
	in.rackOff = make([]int32, racks+1)
	for h := 0; h < in.numHosts; h++ {
		in.rackOff[in.topo.RackOf(cluster.HostID(h))+1]++
	}
	for r := 0; r < racks; r++ {
		in.rackOff[r+1] += in.rackOff[r]
	}
	in.rackArr = make([]cluster.HostID, in.numHosts)
	fill := make([]int32, racks)
	for h := 0; h < in.numHosts; h++ {
		r := in.topo.RackOf(cluster.HostID(h))
		in.rackArr[in.rackOff[r]+fill[r]] = cluster.HostID(h)
		fill[r]++
	}
	// Pairs touching VMs outside the cluster are excluded from both the
	// fitness pair list and the adjacency below, keeping the two cost
	// views consistent.
	in.pairsA = make([]int32, 0, tm.NumPairs())
	in.pairsB = make([]int32, 0, tm.NumPairs())
	in.rates = make([]float64, 0, tm.NumPairs())
	tm.ForEachPair(func(u, v cluster.VMID, rate float64) {
		a, okA := idx[u]
		b, okB := idx[v]
		if !okA || !okB {
			return
		}
		in.pairsA = append(in.pairsA, a)
		in.pairsB = append(in.pairsB, b)
		in.rates = append(in.rates, rate)
	})
	// Per-VM adjacency for local search, straight off the matrix's CSR
	// rows (peers in ascending ID order), packed into one CSR arena of
	// our own: each valid pair appears in exactly two rows.
	in.adjOff = make([]int32, len(in.vms)+1)
	in.adjArr = make([]edge, 0, 2*len(in.pairsA))
	for i, vm := range in.vms {
		for _, ed := range tm.NeighborEdges(vm) {
			if j, ok := idx[ed.Peer]; ok {
				in.adjArr = append(in.adjArr, edge{peer: j, rate: ed.Rate})
			}
		}
		in.adjOff[i+1] = int32(len(in.adjArr))
	}
	return in, seed, nil
}

// localSearch greedily relocates |V|/16 (at least 8) random VMs to their
// best candidate host (the hosts of their peers, plus same-rack
// spillover), respecting capacity. This memetic step, applied to every
// child, is the workhorse that pulls the population toward dense,
// co-located optima: it is what lets a laptop-budget population stand in
// for the paper's 1,000 individuals × 12 hours as the "approximate
// optimal".
func (in *instance) localSearch(genome []cluster.HostID, rng *rand.Rand, sc *breedScratch) {
	in.tally(genome, sc)
	for n := max(len(in.vms)/16, 8); n > 0; n-- {
		in.improve(sc.kern, genome, rng.Intn(len(in.vms)), 0, sc.slots, sc.ram, sc.cpu)
	}
}

// randomDense packs a random VM permutation onto hosts sequentially from
// a random offset — the paper's "densely-packed VM distributions" —
// written into the caller's genome buffer.
func (in *instance) randomDense(genome []cluster.HostID, rng *rand.Rand, sc *breedScratch) {
	clear(sc.slots)
	clear(sc.ram)
	clear(sc.cpu)
	slots, ram, cpu := sc.slots, sc.ram, sc.cpu
	h := rng.Intn(in.numHosts)
	// In-scratch Fisher–Yates with rand.Perm's exact construction, so the
	// draw sequence (one Intn per element) is unchanged.
	perm := sc.perm
	for i := range perm {
		j := rng.Intn(i + 1)
		perm[i] = perm[j]
		perm[j] = i
	}
	for _, vi := range perm {
		for tries := 0; tries < in.numHosts; tries++ {
			if in.roomFor(vi, h, slots, ram, cpu) {
				break
			}
			h = (h + 1) % in.numHosts
		}
		genome[vi] = cluster.HostID(h)
		slots[h]++
		ram[h] += in.ramMB[vi]
		cpu[h] += in.cpuMilli[vi]
	}
}

// greedyPack co-locates the heaviest-rate pairs first, a constructive
// seed that is already close to dense-optimal for sparse matrices,
// written into the caller's genome buffer.
func (in *instance) greedyPack(genome []cluster.HostID, rng *rand.Rand, sc *breedScratch) {
	for i := range genome {
		genome[i] = cluster.NoHost
	}
	clear(sc.slots)
	clear(sc.ram)
	clear(sc.cpu)
	slots, ram, cpu := sc.slots, sc.ram, sc.cpu
	fits := func(vi int, h int) bool {
		return in.roomFor(vi, h, slots, ram, cpu)
	}
	place := func(vi, h int) {
		genome[vi] = cluster.HostID(h)
		slots[h]++
		ram[h] += in.ramMB[vi]
		cpu[h] += in.cpuMilli[vi]
	}
	order := make([]int, len(in.rates))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return in.rates[order[a]] > in.rates[order[b]] })
	hostCursor := rng.Intn(in.numHosts)
	nextFree := func(need2 bool) int {
		for tries := 0; tries < in.numHosts; tries++ {
			h := (hostCursor + tries) % in.numHosts
			free := in.slots[h] - slots[h]
			if (need2 && free >= 2) || (!need2 && free >= 1) {
				return h
			}
		}
		return -1
	}
	sameRackHost := func(h int, vi int) int {
		for _, alt := range in.hostsInRack(in.topo.RackOf(cluster.HostID(h))) {
			if fits(vi, int(alt)) {
				return int(alt)
			}
		}
		return -1
	}
	for _, pi := range order {
		a, b := int(in.pairsA[pi]), int(in.pairsB[pi])
		pa, pb := genome[a] != cluster.NoHost, genome[b] != cluster.NoHost
		switch {
		case !pa && !pb:
			if h := nextFree(true); h >= 0 && fits(a, h) && fits(b, h) {
				place(a, h)
				place(b, h)
			}
		case pa && !pb:
			if h := int(genome[a]); fits(b, h) {
				place(b, h)
			} else if alt := sameRackHost(h, b); alt >= 0 {
				place(b, alt)
			}
		case !pa && pb:
			if h := int(genome[b]); fits(a, h) {
				place(a, h)
			} else if alt := sameRackHost(h, a); alt >= 0 {
				place(a, alt)
			}
		}
	}
	// Any stragglers (zero-traffic VMs or capacity misses) fill remaining
	// space densely.
	for vi := range genome {
		if genome[vi] != cluster.NoHost {
			continue
		}
		if h := nextFree(false); h >= 0 && fits(vi, h) {
			place(vi, h)
			continue
		}
		for h := 0; h < in.numHosts; h++ {
			if fits(vi, h) {
				place(vi, h)
				break
			}
		}
	}
}

// crossover is EAX-inspired: it preserves co-location "edges" by
// inheriting whole racks from the second parent into the first (already
// materialized in sc.child), then repairing capacity violations. The
// second parent is materialized into sc.parent; the RNG draw sequence
// (one coin per rack, then repair's) is identical to the historical
// dense implementation.
func (in *instance) crossover(sc *breedScratch, pb *indiv) {
	child := sc.child
	take := sc.take
	for r := range take {
		take[r] = sc.rng.Intn(2) == 0
	}
	in.materialize(sc.parent, pb)
	for i, hb := range sc.parent {
		if take[in.topo.RackOf(hb)] {
			child[i] = hb
		}
	}
	in.repair(child, sc.rng, sc)
}

// mutate swaps the hosts of between 1 and most random VM pairs (the
// paper's "swapping a random number of VMs between racks").
func (in *instance) mutate(genome []cluster.HostID, most int, rng *rand.Rand, sc *breedScratch) {
	k := 1 + rng.Intn(most)
	for s := 0; s < k; s++ {
		i, j := rng.Intn(len(genome)), rng.Intn(len(genome))
		genome[i], genome[j] = genome[j], genome[i]
	}
	// Swapping VMs of unequal RAM can break RAM capacity; repair.
	in.repair(genome, rng, sc)
}

// repair moves VMs off over-capacity hosts onto the nearest host with
// room (same rack first, then anywhere), keeping genomes feasible.
func (in *instance) repair(genome []cluster.HostID, rng *rand.Rand, sc *breedScratch) {
	in.tally(genome, sc)
	slots, ram, cpu := sc.slots, sc.ram, sc.cpu
	for i, h := range genome {
		hi := int(h)
		over := slots[hi] > in.slots[hi] || ram[hi] > in.hostRAM[hi] ||
			(in.hostCPU[hi] > 0 && cpu[hi] > in.hostCPU[hi])
		if !over {
			continue
		}
		// Evict this VM to relieve the violation.
		target := -1
		for _, alt := range in.hostsInRack(in.topo.RackOf(h)) {
			ai := int(alt)
			if ai != hi && in.roomFor(i, ai, slots, ram, cpu) {
				target = ai
				break
			}
		}
		if target < 0 {
			start := rng.Intn(in.numHosts)
			for t := 0; t < in.numHosts; t++ {
				ai := (start + t) % in.numHosts
				if ai != hi && in.roomFor(i, ai, slots, ram, cpu) {
					target = ai
					break
				}
			}
		}
		if target < 0 {
			continue // cluster genuinely full; leave as-is
		}
		genome[i] = cluster.HostID(target)
		slots[hi]--
		ram[hi] -= in.ramMB[i]
		cpu[hi] -= in.cpuMilli[i]
		slots[target]++
		ram[target] += in.ramMB[i]
		cpu[target] += in.cpuMilli[i]
	}
}

func tournament(fit []float64, k int, rng *rand.Rand) int {
	best := rng.Intn(len(fit))
	for i := 1; i < k; i++ {
		c := rng.Intn(len(fit))
		if fit[c] < fit[best] {
			best = c
		}
	}
	return best
}

func argmin(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x < xs[best] {
			best = i
		}
	}
	return best
}

func sortedByFitness(fit []float64) []int {
	order := make([]int, len(fit))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return fit[order[a]] < fit[order[b]] })
	return order
}
