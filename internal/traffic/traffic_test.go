package traffic

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/score-dc/score/internal/cluster"
	"github.com/score-dc/score/internal/topology"
)

func TestMatrixSetRate(t *testing.T) {
	m := NewMatrix()
	m.Set(1, 2, 10)
	if got := m.Rate(1, 2); got != 10 {
		t.Fatalf("Rate(1,2) = %v, want 10", got)
	}
	if got := m.Rate(2, 1); got != 10 {
		t.Fatalf("Rate(2,1) = %v, want 10 (symmetry)", got)
	}
	if got := m.Rate(1, 3); got != 0 {
		t.Fatalf("Rate(1,3) = %v, want 0", got)
	}
	m.Set(1, 2, 0) // removal
	if got := m.Rate(1, 2); got != 0 {
		t.Fatalf("rate after removal = %v, want 0", got)
	}
	if got := m.Degree(1); got != 0 {
		t.Fatalf("degree after removal = %d, want 0", got)
	}
	m.Set(5, 5, 100) // self-pair ignored
	if got := m.NumPairs(); got != 0 {
		t.Fatalf("self pair stored; NumPairs = %d", got)
	}
}

func TestMatrixAddAccumulates(t *testing.T) {
	m := NewMatrix()
	m.Add(1, 2, 3)
	m.Add(2, 1, 4)
	if got := m.Rate(1, 2); got != 7 {
		t.Fatalf("accumulated rate = %v, want 7", got)
	}
	if got := m.Degree(1); got != 1 {
		t.Fatalf("degree = %d, want 1 (no duplicate neighbors)", got)
	}
}

func TestNeighborsSortedAndSymmetric(t *testing.T) {
	m := NewMatrix()
	m.Set(5, 1, 1)
	m.Set(5, 9, 1)
	m.Set(5, 3, 1)
	got := m.Neighbors(5)
	want := []cluster.VMID{1, 3, 9}
	if len(got) != len(want) {
		t.Fatalf("Neighbors = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Neighbors = %v, want %v", got, want)
		}
	}
	for _, v := range want {
		found := false
		for _, u := range m.Neighbors(v) {
			if u == 5 {
				found = true
			}
		}
		if !found {
			t.Fatalf("neighbor lists not symmetric for %d", v)
		}
	}
}

func TestVMLoad(t *testing.T) {
	m := NewMatrix()
	m.Set(1, 2, 10)
	m.Set(1, 3, 5)
	if got := m.VMLoad(1); got != 15 {
		t.Fatalf("VMLoad = %v, want 15", got)
	}
	if got := m.VMLoad(2); got != 10 {
		t.Fatalf("VMLoad(2) = %v, want 10", got)
	}
}

func TestScaledPreservesStructure(t *testing.T) {
	m := NewMatrix()
	m.Set(1, 2, 3)
	m.Set(2, 4, 5)
	s := m.Scaled(10)
	if got := s.Rate(1, 2); got != 30 {
		t.Fatalf("scaled rate = %v, want 30", got)
	}
	if got := s.NumPairs(); got != m.NumPairs() {
		t.Fatalf("scaled pairs = %d, want %d", got, m.NumPairs())
	}
	if got := m.Rate(1, 2); got != 3 {
		t.Fatalf("original mutated: %v", got)
	}
}

func TestPairsDeterministicOrder(t *testing.T) {
	m := NewMatrix()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		m.Set(cluster.VMID(rng.Intn(50)), cluster.VMID(rng.Intn(50)), 1+rng.Float64())
	}
	p1, _ := m.Pairs()
	p2, _ := m.Pairs()
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("Pairs order is not deterministic")
		}
		if p1[i].A >= p1[i].B {
			t.Fatalf("pair %v not canonical", p1[i])
		}
		if i > 0 && (p1[i-1].A > p1[i].A || (p1[i-1].A == p1[i].A && p1[i-1].B >= p1[i].B)) {
			t.Fatal("Pairs not sorted")
		}
	}
}

func buildPlacedCluster(t *testing.T) (topology.Topology, *cluster.Cluster, *rand.Rand) {
	t.Helper()
	topo, err := topology.NewCanonicalTree(topology.ScaledCanonicalConfig(16, 5))
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(cluster.UniformHosts(topo.Hosts(), 8, 8192, 1000))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	pm := cluster.NewPlacementManager(cl, 1000)
	for i := 0; i < topo.Hosts()*3; i++ {
		if _, err := pm.CreateVM(512); err != nil {
			t.Fatal(err)
		}
	}
	if err := pm.PlaceRandom(rng); err != nil {
		t.Fatal(err)
	}
	return topo, cl, rng
}

func TestGenerateStructure(t *testing.T) {
	topo, cl, rng := buildPlacedCluster(t)
	cfg := DefaultGenConfig(topo.Racks())
	m, err := Generate(cfg, topo, cl, rng)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if m.NumPairs() == 0 {
		t.Fatal("empty matrix")
	}
	// Every pair references existing, placed VMs with positive rates.
	pairs, rates := m.Pairs()
	for i, p := range pairs {
		if rates[i] <= 0 {
			t.Fatalf("pair %v has non-positive rate", p)
		}
		if cl.HostOf(p.A) == cluster.NoHost || cl.HostOf(p.B) == cluster.NoHost {
			t.Fatalf("pair %v references unplaced VM", p)
		}
	}
	// Long tail: the top decile of pairs must carry the majority of
	// bytes (the paper's elephant observation).
	sorted := append([]float64(nil), rates...)
	for i := range sorted {
		for j := i + 1; j < len(sorted); j++ {
			if sorted[j] > sorted[i] {
				sorted[i], sorted[j] = sorted[j], sorted[i]
			}
		}
	}
	var total, topDecile float64
	for i, r := range sorted {
		total += r
		if i < len(sorted)/10 {
			topDecile += r
		}
	}
	if topDecile < 0.5*total {
		t.Fatalf("top decile carries %.1f%% of bytes, want majority", 100*topDecile/total)
	}
}

func TestGenerateSparseTorMatrix(t *testing.T) {
	topo, cl, rng := buildPlacedCluster(t)
	m, err := Generate(DefaultGenConfig(topo.Racks()), topo, cl, rng)
	if err != nil {
		t.Fatal(err)
	}
	tor := TorMatrix(m, topo, cl)
	if len(tor) != topo.Racks() {
		t.Fatalf("ToR matrix dimension %d, want %d", len(tor), topo.Racks())
	}
	// Symmetry and hotspot sparsity: some cells dominate.
	var max, sum float64
	nonzero := 0
	for i := range tor {
		for j := range tor[i] {
			if math.Abs(tor[i][j]-tor[j][i]) > 1e-9 {
				t.Fatalf("ToR matrix asymmetric at (%d,%d)", i, j)
			}
			if tor[i][j] > 0 {
				nonzero++
			}
			sum += tor[i][j]
			if tor[i][j] > max {
				max = tor[i][j]
			}
		}
	}
	if max < 5*sum/float64(nonzero+1) {
		t.Fatalf("no hotspot structure: max cell %v vs mean %v", max, sum/float64(nonzero))
	}
	// Aggregate ToR traffic equals 2x pairwise rates of inter-rack plus
	// diagonal: verify total conservation.
	pairs, rates := m.Pairs()
	var want float64
	for i, p := range pairs {
		ra, rb := topo.RackOf(cl.HostOf(p.A)), topo.RackOf(cl.HostOf(p.B))
		if ra == rb {
			want += rates[i]
		} else {
			want += 2 * rates[i]
		}
	}
	if math.Abs(sum-want) > 1e-6*want {
		t.Fatalf("ToR totals %v, want %v", sum, want)
	}
}

func TestGenerateErrors(t *testing.T) {
	topo, cl, rng := buildPlacedCluster(t)
	cfg := DefaultGenConfig(topo.Racks())
	cfg.MiceRateMinMbps, cfg.MiceRateMaxMbps = 5, 1
	if _, err := Generate(cfg, topo, cl, rng); err == nil {
		t.Fatal("inverted mice bounds accepted")
	}
	empty, err := cluster.New(cluster.UniformHosts(topo.Hosts(), 4, 1024, 1000))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Generate(DefaultGenConfig(topo.Racks()), topo, empty, rng); err == nil {
		t.Fatal("empty cluster accepted")
	}
}

// TestMatrixQuickSymmetry: Rate is always symmetric and non-negative
// under arbitrary Set/Add sequences.
func TestMatrixQuickSymmetry(t *testing.T) {
	f := func(ops []struct {
		U, V uint8
		R    float64
	}) bool {
		m := NewMatrix()
		for _, op := range ops {
			r := math.Abs(op.R)
			if math.IsNaN(r) || math.IsInf(r, 0) {
				continue
			}
			m.Add(cluster.VMID(op.U), cluster.VMID(op.V), r)
		}
		for u := 0; u < 256; u += 16 {
			for v := 0; v < 256; v += 16 {
				a, b := cluster.VMID(u), cluster.VMID(v)
				if m.Rate(a, b) != m.Rate(b, a) || m.Rate(a, b) < 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestChangesSinceReplay: the changelog replays every mutation in order,
// so a consumer at any in-window generation reconstructs the present.
func TestChangesSinceReplay(t *testing.T) {
	m := NewMatrix()
	base := m.Generation()
	m.Set(1, 2, 10)
	m.Add(2, 3, 5)
	m.Set(1, 2, 25)
	m.Set(2, 3, 0) // removal
	m.Add(4, 1, 7)

	changes, ok := m.ChangesSince(base)
	if !ok {
		t.Fatal("in-window generation reported unavailable")
	}
	if len(changes) != 5 {
		t.Fatalf("got %d changes, want 5", len(changes))
	}
	// Replaying the log over an empty rate map must reproduce Rate.
	replay := map[Pair]float64{}
	for _, ch := range changes {
		if got := replay[ch.Pair]; math.Abs(got-ch.Old) > 1e-12 {
			t.Fatalf("change %+v: replay sees old rate %v", ch, got)
		}
		if ch.New == 0 {
			delete(replay, ch.Pair)
		} else {
			replay[ch.Pair] = ch.New
		}
	}
	for p, r := range replay {
		if got := m.Rate(p.A, p.B); got != r {
			t.Fatalf("replayed rate for %+v = %v, matrix has %v", p, r, got)
		}
	}
	if m.Rate(2, 3) != 0 {
		t.Fatal("removed pair still has rate")
	}

	// Current generation: empty delta, still ok.
	if ch, ok := m.ChangesSince(m.Generation()); !ok || len(ch) != 0 {
		t.Fatalf("ChangesSince(now) = %v, %v", ch, ok)
	}
	// A future generation is unknowable.
	if _, ok := m.ChangesSince(m.Generation() + 1); ok {
		t.Fatal("future generation reported available")
	}
}

// TestChangesSinceWindowOverflow: once the log restarts, generations
// behind the new window must be refused (full-rebuild signal), while
// generations inside it keep working.
func TestChangesSinceWindowOverflow(t *testing.T) {
	m := NewMatrix()
	m.Set(1, 2, 1)
	old := m.Generation()
	for i := 0; i < changeLogCap+10; i++ {
		m.Set(1, 2, float64(i+2))
	}
	if _, ok := m.ChangesSince(old); ok {
		t.Fatal("generation behind the restarted window reported available")
	}
	recent := m.Generation()
	m.Set(3, 4, 9)
	changes, ok := m.ChangesSince(recent)
	if !ok || len(changes) != 1 || changes[0].New != 9 {
		t.Fatalf("recent delta = %v, %v", changes, ok)
	}
}

// TestNoOpMutationsLogNothing: mutations that do not change the matrix
// must not advance the generation or grow the log.
func TestNoOpMutationsLogNothing(t *testing.T) {
	m := NewMatrix()
	m.Set(1, 2, 5)
	gen := m.Generation()
	m.Set(3, 3, 7)  // self pair
	m.Set(8, 9, -1) // removal of an absent pair
	m.Set(8, 9, 0)
	m.Set(1, 2, math.NaN()) // neither a rate nor a removal
	m.Add(1, 2, math.NaN())
	if m.Generation() != gen || m.Rate(1, 2) != 5 {
		t.Fatalf("no-op mutations: generation %d (want %d), rate %v", m.Generation(), gen, m.Rate(1, 2))
	}
	if ch, ok := m.ChangesSince(gen); !ok || len(ch) != 0 {
		t.Fatalf("no-op mutations logged %v, %v", ch, ok)
	}
}

// TestRatesLandOnTheGrid: the three writers of an Edge.Rate round to a
// whole number of quanta — nearest, at least one, at most the ceiling —
// and sums of what they stored do not depend on the order taken.
func TestRatesLandOnTheGrid(t *testing.T) {
	const q = 1.0 / quantaPerMbps
	for _, c := range []struct{ in, want float64 }{
		{1, 1},
		{0.3, math.RoundToEven(0.3*quantaPerMbps) * q},
		{q / 1000, q},        // a pair that exists keeps a positive rate
		{5e-324, q},          // the smallest positive float64
		{2.5 * q, 2 * q},     // ties go to the even quantum
		{1e300, maxRateMbps}, // finite garbage saturates
		{math.Inf(1), maxRateMbps},
	} {
		m, b := NewMatrix(), NewBuilder(1)
		m.Set(1, 2, c.in)
		b.Add(1, 2, c.in)
		if got := m.Rate(1, 2); got != c.want {
			t.Errorf("Set(%g) stored %v, want %v", c.in, got, c.want)
		}
		if got := b.Build().Rate(1, 2); got != c.want {
			t.Errorf("Builder.Add(%g) stored %v, want %v", c.in, got, c.want)
		}
	}

	rng := rand.New(rand.NewSource(41))
	m := NewMatrix()
	for i := 0; i < 4000; i++ {
		u, v := cluster.VMID(rng.Intn(300)), cluster.VMID(rng.Intn(300))
		if rng.Intn(3) == 0 {
			m.Add(u, v, rng.ExpFloat64())
		} else {
			m.Set(u, v, 400*rng.Float64())
		}
	}
	scaled := m.Scaled(math.Pi)
	_, rates := scaled.Pairs()
	var fwd, rev float64
	for i, r := range rates {
		if r*quantaPerMbps != math.Trunc(r*quantaPerMbps) {
			t.Fatalf("scaled rate %v is off the grid", r)
		}
		fwd += r
		rev += rates[len(rates)-1-i]
	}
	if math.Float64bits(fwd) != math.Float64bits(rev) || fwd != scaled.TotalRate() {
		t.Fatalf("sum of rates depends on order: %v forward, %v reversed, %v by rows/2", fwd, rev, scaled.TotalRate())
	}
}
