// Package traffic provides the pairwise VM traffic model and the
// synthetic data-center workload generator used by the evaluation.
//
// λ(u, v) is the average traffic rate (incoming plus outgoing) exchanged
// between VMs u and v over a measurement window (Section III). The
// generator reproduces the structure the paper takes from DC measurement
// studies [18][1][23][19]: a sparse ToR-level traffic matrix where "only
// a handful of ToRs become hotspots", with most bytes carried by a small
// number of elephant flows while mice flows dominate in count
// (Section V-C, VI). The initial matrix can be scaled ×10 / ×50 into the
// medium and dense variants of Fig. 3.
//
// # The rate grid
//
// A rate is a measurement with a resolution. Every stored rate is a whole
// number of quanta of 2^-20 Mb/s (≈ 1 bit/s), rounded to nearest once,
// where it enters the matrix (Matrix.Set, Builder.Add, Matrix.Scaled). A
// positive rate below one quantum rounds up to one, so rate > 0 still
// means the pair exists; a rate above 2^32 Mb/s saturates there. float64
// adds and subtracts multiples of the quantum without rounding while the
// result stays below 2^53 quanta = 2^33 Mb/s, which a whole data
// center's traffic does. So any sum or difference of rates — a host's
// NIC load, a link's load, a rack pair's cell, the per-level totals
// behind C^A — has one value whatever the order it was folded in, and a
// running sum equals a rebuild bit for bit. Consumers rely on that: none
// of them resyncs, clamps or compares with a tolerance.
//
// # Adjacency layout: arena-backed CSR
//
// Matrix stores the sparse symmetric matrix as CSR over one shared
// arena: a single []Edge backing array holds every VM's adjacency row
// back to back, and a dense row table of 16-byte rowRefs (uint32
// offset/length/capacity into the arena) maps VM IDs to their rows.
// Each communicating pair (u, v) appears twice — as Edge{v, λ} in u's
// row and Edge{u, λ} in v's — and every row is kept sorted by peer ID,
// so the decision hot path (core.Engine) walks a VM's neighbors and
// rates in a single cache-friendly scan with no per-edge map lookup, no
// pointer chasing between rows, and no allocation. Point queries (Rate)
// binary search the row, and Set costs one search per endpoint row: the
// edit of u's row reports the rate it replaced.
//
// # Overflow and compaction lifecycle
//
// Rows are born in the arena with a few entries of slack. A mutation
// that outgrows a row's slot first tries to extend the slot in place
// (possible when it abuts the arena's end); otherwise the row spills
// into a small per-VM overflow region — an ordinary Go slice on the
// side — and its arena slot is counted dead. SetRate-style incremental
// mutations therefore stay O(degree) regardless of where the row lives.
// When dead slots or overflowed edges exceed a fraction of the live
// edge count, the next mutation triggers a compaction pass (also
// available explicitly as Compact) that rebuilds the arena exact-fit
// plus per-row slack, folds every overflow row back in, and resets the
// accounting. Bulk construction never pays per-insert maintenance:
// Builder performs one sort plus a counting fill into an exact-fit
// arena, and Scaled/Clone copy straight into exact-fit CSR.
//
// This is the only layout. The row table is a window over the VM-ID
// space that grows geometrically, in both directions, to cover every ID
// it is handed, at 16 bytes per ID spanned. It applies no density rule:
// VM IDs come from one ordered space issued by the placement manager
// (Section V-A), the cluster refuses an ID that would stretch its own
// window too far (cluster.ErrIDOutsideWindow), and code folding rates
// from outside the program — the daemon's observe and restore paths —
// admits only pairs whose endpoints the cluster has registered.
//
// A generation counter increments on every mutation. Each mutation is
// also recorded in a bounded edge-level changelog (ChangesSince). A consumer
// keeping a sum over pairs — the engine's cost accounting, the planner's
// summary, the link loads — reads it through a Follower, which folds
// the delta per edge, and each moved VM's row once, from this log and the
// cluster's placement changelog, instead of rebuilding from the full pair
// list.
//
// # Slice ownership
//
// NeighborEdges returns a slice owned by the Matrix: callers must treat
// it as read-only and must not hold it across mutations
// (Set/Add/Compact). Adjacency rows are edited in place — and a
// compaction or row spill moves them wholesale — so a NeighborEdges
// slice held across a mutation may see its entries rewritten, shifted,
// or left pointing into a retired arena. Pairs, by contrast, returns
// copies owned by the caller. ForEachPair visits pairs
// in the same canonical order as Pairs without materializing a list —
// the memory-frugal choice for scans at scale.
package traffic

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/score-dc/score/internal/cluster"
	"github.com/score-dc/score/internal/topology"
)

// Pair is an unordered VM pair with A < B.
type Pair struct {
	A, B cluster.VMID
}

// MakePair normalizes (u, v) into canonical order.
func MakePair(u, v cluster.VMID) Pair {
	if u > v {
		u, v = v, u
	}
	return Pair{A: u, B: v}
}

// Edge is one adjacency entry of a VM: the peer it exchanges traffic
// with and the rate λ in Mb/s.
type Edge struct {
	Peer cluster.VMID
	Rate float64
}

// CompareEdges orders adjacency entries by peer ID — the sort key every
// edge row in this package (and any consumer maintaining its own rows,
// e.g. the hypervisor agents) must use.
func CompareEdges(a, b Edge) int {
	switch {
	case a.Peer < b.Peer:
		return -1
	case a.Peer > b.Peer:
		return 1
	}
	return 0
}

// The generator's one workload shape, after the measurement studies the
// paper cites: every VM has a couple of mice peers, and a few rack pairs
// carry elephant hotspots.
const (
	// micePairsPerVM is the mean number of background (mice) peers each
	// VM communicates with. DC studies find most flows are small; these
	// fill the sparse background of the TM.
	micePairsPerVM = 2.0
	// localityBias is the probability a mice peer is drawn from the
	// VM's own rack or one of its rack's partner racks rather than
	// uniformly — DC measurement studies find rack-level traffic
	// matrices sparse because servers talk to a stable, small set of
	// destinations [18][23].
	localityBias = 0.85
	// partnerRacksPerRack sizes each rack's partner set.
	partnerRacksPerRack = 3
	// The mice rate is uniform on [miceRateMinMbps, miceRateMaxMbps).
	// Their exact difference, 1.95, rounds to the float64 that run-time
	// subtraction gives.
	miceRateMinMbps = 0.05
	miceRateMaxMbps = 2.0
	// elephantsPerHotspot is how many VM pairs each hot rack pair gets.
	elephantsPerHotspot = 6
	// elephantRate is lognormal: exp(N(mu, sigma)) Mb/s, truncated at
	// elephantCapMbps. Elephants carry most bytes.
	elephantRateMu    = 3.4 // median ≈ 30 Mb/s
	elephantRateSigma = 0.7
	elephantCapMbps   = 400
	// intraRackHotspotFraction is the fraction of hotspot rack pairs
	// that are diagonal (a rack talking to itself heavily).
	intraRackHotspotFraction = 0.25
)

// GenConfig sizes the synthetic workload to the plant; the rest of its
// shape is the package's constants.
type GenConfig struct {
	// HotspotRackPairs is the number of rack pairs carrying elephant
	// aggregates ("only a handful of ToRs become hotspots").
	HotspotRackPairs int
}

// DefaultGenConfig returns the hotspot count for a plant of racks racks:
// ~6% of them (racks/16, at least 2).
func DefaultGenConfig(racks int) GenConfig {
	return GenConfig{HotspotRackPairs: max(racks/16, 2)}
}

// Generate synthesizes a traffic matrix over the placed VMs of c. The
// hotspot structure is anchored on the racks of the *initial* placement,
// so the initial ToR-level TM exhibits the sparse hotspot pattern of
// Fig. 3a; S-CORE then migrates VMs to dissolve the expensive cells.
//
// Generation streams: draws are recorded as flat (pair, rate)
// contributions and bulk-loaded into an exact-fit CSR arena at the end
// (see Builder), so generating a 100k-VM instance never materializes a
// pair map or pays per-insert row maintenance.
func Generate(cfg GenConfig, topo topology.Topology, c *cluster.Cluster, rng *rand.Rand) (*Matrix, error) {
	vms := c.VMs()
	if len(vms) < 2 {
		return nil, fmt.Errorf("traffic: need at least 2 VMs, have %d", len(vms))
	}

	// Index VMs by rack of their current host for hotspot wiring.
	byRack := make([][]cluster.VMID, topo.Racks())
	for _, vm := range vms {
		h := c.HostOf(vm)
		if h == cluster.NoHost {
			return nil, fmt.Errorf("traffic: VM %d is unplaced", vm)
		}
		r := topo.RackOf(h)
		byRack[r] = append(byRack[r], vm)
	}
	occupied := make([]int, 0, len(byRack))
	for r, set := range byRack {
		if len(set) > 0 {
			occupied = append(occupied, r)
		}
	}
	if len(occupied) == 0 {
		return nil, fmt.Errorf("traffic: no occupied racks")
	}

	// Each rack gets a small stable partner set; mice traffic mostly
	// stays within rack ∪ partners, keeping the rack-level TM sparse.
	partners := make([][]int, topo.Racks())
	for _, r := range occupied {
		seen := map[int]bool{r: true}
		for len(partners[r]) < partnerRacksPerRack && len(seen) < len(occupied) {
			p := occupied[rng.Intn(len(occupied))]
			if !seen[p] {
				seen[p] = true
				partners[r] = append(partners[r], p)
			}
		}
	}

	b := NewBuilder(int(micePairsPerVM*float64(len(vms))) +
		cfg.HotspotRackPairs*elephantsPerHotspot)

	// Background mice pairs: Poisson-ish degree, locality-biased peers.
	for _, u := range vms {
		r := topo.RackOf(c.HostOf(u))
		n := poisson(rng, micePairsPerVM)
		for i := 0; i < n; i++ {
			var v cluster.VMID
			if rng.Float64() < localityBias {
				pool := byRack[r]
				if len(partners[r]) > 0 && rng.Float64() < 0.6 {
					pool = byRack[partners[r][rng.Intn(len(partners[r]))]]
				}
				if len(pool) == 0 {
					continue
				}
				v = pool[rng.Intn(len(pool))]
			} else {
				v = vms[rng.Intn(len(vms))]
			}
			if v == u {
				continue
			}
			rate := miceRateMinMbps + rng.Float64()*(miceRateMaxMbps-miceRateMinMbps)
			b.Add(u, v, rate)
		}
	}

	// Elephant hotspots between (or within) selected racks.
	for i := 0; i < cfg.HotspotRackPairs; i++ {
		ra := occupied[rng.Intn(len(occupied))]
		rb := ra
		if rng.Float64() >= intraRackHotspotFraction && len(occupied) > 1 {
			for rb == ra {
				rb = occupied[rng.Intn(len(occupied))]
			}
		}
		for j := 0; j < elephantsPerHotspot; j++ {
			u := byRack[ra][rng.Intn(len(byRack[ra]))]
			v := byRack[rb][rng.Intn(len(byRack[rb]))]
			if u == v {
				continue
			}
			rate := math.Exp(elephantRateMu + elephantRateSigma*rng.NormFloat64())
			if rate > elephantCapMbps {
				rate = elephantCapMbps
			}
			b.Add(u, v, rate)
		}
	}
	return b.Build(), nil
}

// poisson draws a Poisson variate via Knuth's method; fine for small mean.
func poisson(rng *rand.Rand, mean float64) int {
	l := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 1000 { // guard against pathological means
			return k
		}
	}
}

// TorMatrix aggregates the pairwise VM rates into a ToR-to-ToR matrix for
// the current allocation — the heatmaps of Fig. 3a–c. Element [i][j]
// holds the total rate between racks i and j; the matrix is symmetric
// with intra-rack traffic on the diagonal.
func TorMatrix(m *Matrix, topo topology.Topology, c *cluster.Cluster) [][]float64 {
	n := topo.Racks()
	out := make([][]float64, n)
	buf := make([]float64, n*n)
	for i := range out {
		out[i], buf = buf[:n:n], buf[n:]
	}
	m.ForEachPair(func(a, b cluster.VMID, rate float64) {
		ha, hb := c.HostOf(a), c.HostOf(b)
		if ha == cluster.NoHost || hb == cluster.NoHost {
			return
		}
		ra, rb := topo.RackOf(ha), topo.RackOf(hb)
		out[ra][rb] += rate
		if ra != rb {
			out[rb][ra] += rate
		}
	})
	return out
}
