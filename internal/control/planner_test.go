package control

import (
	"math/rand"
	"testing"

	"github.com/score-dc/score/internal/cluster"
	"github.com/score-dc/score/internal/shard"
	"github.com/score-dc/score/internal/topology"
)

// rackEdge is one rack-level rate delta, as the controller would hand it
// to AddEdge.
type rackEdge struct {
	ra, rb int
	rate   float64
}

// naivePlan is the planner's policy stated over the raw rack-pair list:
// pick the granularity by the rack-local rule, then score every shard
// count from the unit count down to 1 at that granularity, edge by edge,
// under the partitioner's contiguous-block mapping. No pod table, no
// rack-aligned shortcut, no early knowledge of which counts fit.
func naivePlan(rackPod []int, pods int, edges []rackEdge) Recommendation {
	var total, intraRack float64
	for _, e := range edges {
		total += e.rate
		if e.ra == e.rb {
			intraRack += e.rate
		}
	}
	if total <= 0 {
		return Recommendation{Shards: 1, Granularity: shard.ByPod}
	}
	g, units, unitOf := shard.ByPod, pods, func(r int) int { return rackPod[r] }
	if intraRack/total >= rackLocalShare {
		g, units, unitOf = shard.ByRack, len(rackPod), func(r int) int { return r }
	}
	for n := units; n > 1; n-- {
		var cross float64
		for _, e := range edges {
			if unitOf(e.ra)*n/units != unitOf(e.rb)*n/units {
				cross += e.rate
			}
		}
		if cross <= maxCrossShare*total {
			return Recommendation{Shards: n, Granularity: g}
		}
	}
	return Recommendation{Shards: 1, Granularity: g}
}

// planShape generates one rack-level traffic shape: rack-local, pod-local,
// clustered in blocks of neighbouring pods, or uniform (cross-pod-heavy),
// each diluted by a random share of uniform rack pairs, with about a
// third of the edges then partly or wholly backed out. Rates are
// multiples of traffic's 2^-20 grid.
func planShape(rng *rand.Rand, rackPod []int, pods int) []rackEdge {
	racks := len(rackPod)
	perPod := racks / pods
	grid := func(units int) float64 { return float64(units) / (1 << 20) }
	shape, noise := rng.Intn(4), rng.Float64()*rng.Float64()
	blocks := 1 + rng.Intn(pods) // shape 2: how many blocks the pods cluster into
	var edges []rackEdge
	for i, n := 0, rng.Intn(4*racks); i < n; i++ {
		ra, rb := rng.Intn(racks), rng.Intn(racks)
		if rng.Float64() >= noise {
			switch shape {
			case 0: // rack-local
				rb = ra
			case 1: // pod-local
				rb = rackPod[ra]*perPod + rng.Intn(perPod)
			case 2: // block-local: a peer pod in the same block
				for pb := rng.Intn(pods); ; pb = rng.Intn(pods) {
					if pb*blocks/pods == rackPod[ra]*blocks/pods {
						rb = pb*perPod + rng.Intn(perPod)
						break
					}
				}
			}
		}
		units := 1 + rng.Intn(1<<26)
		edges = append(edges, rackEdge{ra, rb, grid(units)})
		if rng.Intn(3) == 0 {
			edges = append(edges, rackEdge{ra, rb, -grid(1 + rng.Intn(units))})
		}
	}
	return edges
}

// TestPlanEqualsNaivePlanner: Plan reads three sums and a pod × pod
// table; the policy it implements is defined on rack pairs. Over
// generated shapes the two must give the same recommendation, and the
// shapes must reach every kind of answer: one ring per rack, the serial
// plan, one ring per pod and a count in between.
func TestPlanEqualsNaivePlanner(t *testing.T) {
	for _, k := range []int{4, 8, 16} {
		topo, err := topology.NewFatTree(k, 1000)
		if err != nil {
			t.Fatal(err)
		}
		s := NewSummary(topo)
		rackPod := make([]int, s.numRacks)
		for h := 0; h < topo.Hosts(); h++ {
			rackPod[topo.RackOf(cluster.HostID(h))] = topo.PodOf(cluster.HostID(h))
		}
		rng := rand.New(rand.NewSource(int64(k)))
		reached := map[Recommendation]int{}
		for trial := 0; trial < 3000; trial++ {
			edges := planShape(rng, rackPod, s.numPods)
			s.Reset()
			for _, e := range edges {
				s.AddEdge(e.ra, e.rb, e.rate)
			}
			got, want := Plan(s), naivePlan(rackPod, s.numPods, edges)
			if got != want {
				t.Fatalf("k=%d trial %d: Plan %+v, naive planner %+v", k, trial, got, want)
			}
			reached[got]++
		}
		between := 0
		for rec := range reached {
			if rec.Granularity == shard.ByPod && rec.Shards > 1 && rec.Shards < s.numPods {
				between++
			}
		}
		for _, must := range []Recommendation{
			{Shards: s.numRacks, Granularity: shard.ByRack},
			{Shards: 1, Granularity: shard.ByPod},
			{Shards: s.numPods, Granularity: shard.ByPod},
		} {
			if reached[must] == 0 {
				t.Errorf("k=%d: no generated shape reached %+v", k, must)
			}
		}
		if between == 0 {
			t.Errorf("k=%d: no generated shape reached a count between 1 and %d", k, s.numPods)
		}
		t.Logf("k=%d: %d distinct recommendations, %d between serial and per-pod", k, len(reached), between)
	}
}

// TestPlannerConstants: Plan answers "one ring per rack" without scoring
// it, which is sound only while what a rack-local matrix leaves outside
// its racks fits the cross-shard cap.
func TestPlannerConstants(t *testing.T) {
	if 1-rackLocalShare > maxCrossShare {
		t.Fatalf("rack-aligned plans may not fit: 1 − %v > %v", rackLocalShare, maxCrossShare)
	}
}

// TestPlanAndFoldZeroAllocs: folding deltas that open and empty pod pairs
// and planning on the candidate-scanning path allocate nothing.
func TestPlanAndFoldZeroAllocs(t *testing.T) {
	topo, err := topology.NewFatTree(8, 1000) // 8 pods, 32 racks
	if err != nil {
		t.Fatal(err)
	}
	s := NewSummary(topo)
	s.AddEdge(0, 31, 100) // pods 0↔7: crosses every split, so Plan scans to n = 2
	if rec := Plan(s); rec.Shards != 1 {
		t.Fatalf("fixture plans %+v, want the serial plan after a full scan", rec)
	}
	allocs := testing.AllocsPerRun(100, func() {
		s.AddEdge(4, 20, 7) // opens pod pair 1↔5
		_ = Plan(s)
		s.AddEdge(4, 20, -7) // and empties it
		_ = Plan(s)
	})
	if allocs != 0 {
		t.Fatalf("AddEdge + Plan allocate %v per run, want 0", allocs)
	}
}
