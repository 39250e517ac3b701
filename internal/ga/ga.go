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
// # Population
//
// Each individual is a dense genome, one host per VM. A child is bred in
// place into a genome buffer that Optimize takes off a free list while it
// draws the generation's breeding plan, so the hand-out is the same for
// every worker count; once the generation is done, every old individual
// but the carried elites goes back on the list. Elites are never
// modified, so they are shared between generations rather than copied.
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
	// kern is Eq. 5 (core.Kernel) over the engine's level tables; each
	// breeding scratch scores on a clone of its own.
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

	// free is the free list of genome buffers. Only Optimize's sequential
	// code takes from it and gives back to it, so it needs no lock.
	free [][]cluster.HostID

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

// genome takes a buffer off the free list, or makes one when it is empty.
func (in *instance) genome() []cluster.HostID {
	if n := len(in.free); n > 0 {
		g := in.free[n-1]
		in.free = in.free[:n-1]
		return g
	}
	return make([]cluster.HostID, len(in.vms))
}

// breedScratch is one worker's reusable breeding state: rack-take
// flags, the capacity ledger (each host's used slots, RAM and CPU) for
// seeding, repair and search, and a re-seedable RNG (a fresh rand.New
// per child costs ~5 KB of generator state; Seed resets the same state
// to the identical draw sequence for free).
type breedScratch struct {
	take  []bool
	slots []int
	ram   []int
	cpu   []int
	perm  []int
	rng   *rand.Rand
	kern  *core.Kernel
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
	return &breedScratch{
		take:  make([]bool, in.topo.Racks()),
		slots: make([]int, in.numHosts),
		ram:   make([]int, in.numHosts),
		cpu:   make([]int, in.numHosts),
		perm:  make([]int, len(in.vms)),
		rng:   rand.New(rand.NewSource(0)),
		kern:  in.kern.Clone(),
	}
}

func (in *instance) putScratch(sc *breedScratch) {
	in.scratchMu.Lock()
	in.scratch = append(in.scratch, sc)
	in.scratchMu.Unlock()
}

// charge adds VM vi's slot, RAM and CPU to host h in the scratch's
// ledger (d = 1), or takes them off (d = -1).
func (in *instance) charge(sc *breedScratch, vi, h, d int) {
	sc.slots[h] += d
	sc.ram[h] += d * in.ramMB[vi]
	sc.cpu[h] += d * in.cpuMilli[vi]
}

// tally recomputes the scratch's ledger from genome.
func (in *instance) tally(genome []cluster.HostID, sc *breedScratch) {
	clear(sc.slots)
	clear(sc.ram)
	clear(sc.cpu)
	for i, h := range genome {
		in.charge(sc, i, int(h), 1)
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

// roomFor reports whether host h can take VM vi given the scratch's
// ledger.
func (in *instance) roomFor(vi, h int, sc *breedScratch) bool {
	if sc.slots[h] >= in.slots[h] || sc.ram[h]+in.ramMB[vi] > in.hostRAM[h] {
		return false
	}
	return in.hostCPU[h] == 0 || sc.cpu[h]+in.cpuMilli[vi] <= in.hostCPU[h]
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
	defer pool.Close()

	pop := make([][]cluster.HostID, cfg.Population)
	fit := make([]float64, cfg.Population)
	pop[0] = seed // current allocation as one individual
	// A locally optimal descendant of the live allocation joins the
	// population: the workload's locality structure is anchored on the
	// initial racks, so this basin is often competitive with dense
	// repackings and must be represented for the GA to dominate any
	// local-migration scheme.
	sc := in.getScratch()
	pop[1] = append([]cluster.HostID(nil), seed...)
	in.polish(pop[1], sc)
	greedy := 2 + int(float64(cfg.Population)*greedySeedFraction)
	for i := 2; i < cfg.Population; i++ {
		pop[i] = in.genome()
		if i <= greedy {
			in.greedyPack(pop[i], rng, sc)
		} else {
			in.randomDense(pop[i], rng, sc)
		}
	}
	in.putScratch(sc)
	pool.Run(cfg.Population, func(i int) { fit[i] = in.evaluate(pop[i]) })

	res := Result{}
	bestIdx := argmin(fit)
	best := append([]cluster.HostID(nil), pop[bestIdx]...)
	bestCost := fit[bestIdx]
	res.History = append(res.History, bestCost)

	// childSpec is the sequentially drawn breeding plan for one child,
	// with the buffer it is bred into; the expensive part (crossover +
	// mutation + memetic search + fitness) then fans out over the pool
	// with a per-child RNG.
	type childSpec struct {
		pa, pb []cluster.HostID // pb nil = clone pa
		child  []cluster.HostID
		mutate bool
		seed   int64
	}
	specs := make([]childSpec, cfg.Population-elite)
	next := make([][]cluster.HostID, cfg.Population)
	nextFit := make([]float64, cfg.Population)

	for gen := 0; gen < cfg.MaxGenerations; gen++ {
		// Elitism: best individuals carry over with known fitness.
		order := sortedByFitness(fit)
		for e := 0; e < elite; e++ {
			next[e] = pop[order[e]]
			nextFit[e] = fit[order[e]]
		}
		for j := range specs {
			sp := childSpec{pa: pop[tournament(fit, tournamentK, rng)]}
			if rng.Float64() < crossoverRate {
				sp.pb = pop[tournament(fit, tournamentK, rng)]
			}
			sp.mutate = rng.Float64() < mutationRate
			sp.seed = rng.Int63()
			sp.child = in.genome()
			specs[j] = sp
		}
		pool.Run(len(specs), func(j int) {
			sp := &specs[j]
			sc := in.getScratch()
			sc.rng.Seed(sp.seed)
			copy(sp.child, sp.pa)
			if sp.pb != nil {
				in.crossover(sp.child, sp.pb, sc)
			}
			if sp.mutate {
				in.mutate(sp.child, maxSwaps, sc.rng, sc)
			}
			in.localSearch(sp.child, sc.rng, sc)
			next[elite+j] = sp.child
			nextFit[elite+j] = in.evaluate(sp.child)
			in.putScratch(sc)
		})
		for _, i := range order[elite:] {
			in.free = append(in.free, pop[i])
		}
		pop, next = next, pop
		fit, nextFit = nextFit, fit
		if i := argmin(fit); fit[i] < bestCost {
			bestCost = fit[i]
			copy(best, pop[i])
		}
		res.History = append(res.History, bestCost)
		res.Generations = gen + 1
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
	sc = in.getScratch()
	in.polish(best, sc)
	in.putScratch(sc)
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
func (in *instance) polish(genome []cluster.HostID, sc *breedScratch) {
	in.tally(genome, sc)
	for pass := 0; pass < 50; pass++ {
		moved := false
		for vi := range genome {
			if in.improve(genome, vi, 1e-9, sc) {
				moved = true
			}
		}
		if !moved {
			return
		}
	}
}

// improve moves VM vi to the candidate host with room — its peers' hosts
// and the rest of their racks — whose ΔC (Eq. 5 on the scratch's kernel,
// vi's row resolved once) exceeds threshold by the most, updating the
// ledger; it reports whether vi moved.
func (in *instance) improve(genome []cluster.HostID, vi int, threshold float64, sc *breedScratch) bool {
	adj := in.adjOf(vi)
	if len(adj) == 0 {
		return false
	}
	k, from := sc.kern, genome[vi]
	k.Begin(from)
	for _, e := range adj {
		k.Peer(genome[e.peer], e.rate)
	}
	best, bestD := from, threshold
	consider := func(h cluster.HostID) {
		if h == from || !in.roomFor(vi, int(h), sc) {
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
	in.charge(sc, vi, int(from), -1)
	genome[vi] = best
	in.charge(sc, vi, int(best), 1)
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
		in.improve(genome, rng.Intn(len(in.vms)), 0, sc)
	}
}

// randomDense packs a random VM permutation onto hosts sequentially from
// a random offset — the paper's "densely-packed VM distributions" —
// written into the caller's genome buffer.
func (in *instance) randomDense(genome []cluster.HostID, rng *rand.Rand, sc *breedScratch) {
	clear(sc.slots)
	clear(sc.ram)
	clear(sc.cpu)
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
			if in.roomFor(vi, h, sc) {
				break
			}
			h = (h + 1) % in.numHosts
		}
		genome[vi] = cluster.HostID(h)
		in.charge(sc, vi, h, 1)
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
	fits := func(vi int, h int) bool {
		return in.roomFor(vi, h, sc)
	}
	place := func(vi, h int) {
		genome[vi] = cluster.HostID(h)
		in.charge(sc, vi, h, 1)
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
			free := in.slots[h] - sc.slots[h]
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
// inheriting whole racks from the second parent pb into child (a copy of
// the first parent), then repairing capacity violations. The RNG draws
// are one coin per rack, then repair's.
func (in *instance) crossover(child, pb []cluster.HostID, sc *breedScratch) {
	take := sc.take
	for r := range take {
		take[r] = sc.rng.Intn(2) == 0
	}
	for i, hb := range pb {
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
	for i, h := range genome {
		hi := int(h)
		over := sc.slots[hi] > in.slots[hi] || sc.ram[hi] > in.hostRAM[hi] ||
			(in.hostCPU[hi] > 0 && sc.cpu[hi] > in.hostCPU[hi])
		if !over {
			continue
		}
		// Evict this VM to relieve the violation.
		target := -1
		for _, alt := range in.hostsInRack(in.topo.RackOf(h)) {
			ai := int(alt)
			if ai != hi && in.roomFor(i, ai, sc) {
				target = ai
				break
			}
		}
		if target < 0 {
			start := rng.Intn(in.numHosts)
			for t := 0; t < in.numHosts; t++ {
				ai := (start + t) % in.numHosts
				if ai != hi && in.roomFor(i, ai, sc) {
					target = ai
					break
				}
			}
		}
		if target < 0 {
			continue // cluster genuinely full; leave as-is
		}
		genome[i] = cluster.HostID(target)
		in.charge(sc, i, hi, -1)
		in.charge(sc, i, target, 1)
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
