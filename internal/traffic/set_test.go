package traffic

import (
	"math"
	"math/rand"
	"testing"

	"github.com/score-dc/score/internal/cluster"
	"github.com/score-dc/score/internal/topology"
)

// setModel is Set's contract as a map: the rate stored per pair, and
// the generation and changelog entry each call must produce.
type setModel struct {
	rates map[Pair]float64
	keys  []Pair // the model's pairs, for drawing one at random
	at    map[Pair]int
	gen   uint64
}

func (s *setModel) put(p Pair, rate float64) {
	if _, ok := s.rates[p]; !ok {
		s.at[p] = len(s.keys)
		s.keys = append(s.keys, p)
	}
	s.rates[p] = rate
}

func (s *setModel) drop(p Pair) {
	i := s.at[p]
	last := s.keys[len(s.keys)-1]
	s.keys[i], s.at[last] = last, i
	s.keys = s.keys[:len(s.keys)-1]
	delete(s.at, p)
	delete(s.rates, p)
}

// set applies Set(u, v, rate) to the model and returns the changelog
// entry it must log, ok false when the call must change nothing.
func (s *setModel) set(u, v cluster.VMID, rate float64) (EdgeChange, bool) {
	if u == v || math.IsNaN(rate) {
		return EdgeChange{}, false
	}
	p := MakePair(u, v)
	old := s.rates[p]
	if rate <= 0 {
		if old == 0 {
			return EdgeChange{}, false
		}
		s.drop(p)
		s.gen++
		return EdgeChange{Pair: p, Old: old, New: 0}, true
	}
	rate = onGrid(rate)
	s.put(p, rate)
	s.gen++
	return EdgeChange{Pair: p, Old: old, New: rate}, true
}

// insertShape says how an insert into row u will grow it: 0 when the
// row has room or does not exist yet, 1 when its full slot abuts the
// arena's end and extends in place, 2 when it spills to the overflow
// region.
func insertShape(m *Matrix, u cluster.VMID) int {
	i := m.rowIndex(u)
	if i < 0 {
		return 0
	}
	r := m.rows[i]
	switch {
	case r.ovf != 0 || r.cap == 0 || r.len < r.cap:
		return 0
	case int(r.off+r.cap) == len(m.arena):
		return 1
	default:
		return 2
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestSetFollowsMapModel drives Set with a seeded stream of 60k calls
// against a map model and checks, after every call, the rate both ways,
// NumPairs, Generation and the one changelog entry the call logged —
// its pair, Old and New. The stream updates (some to the rate already
// stored), inserts into rows that extend in place and rows that spill,
// retires present and absent pairs, and sends self-pairs, NaN and
// sub-quantum rates, with churn enough to compact the arena several
// times. A Set that logs the new rate as Old, or loses the removed rate
// on a retire, fails here.
func TestSetFollowsMapModel(t *testing.T) {
	const calls, ids, hubs = 60000, 600, 8
	rng := rand.New(rand.NewSource(44))
	m := NewMatrix()
	model := &setModel{rates: map[Pair]float64{}, at: map[Pair]int{}}
	vm := func() cluster.VMID {
		if rng.Intn(5) == 0 {
			return cluster.VMID(1 + rng.Intn(hubs)) // rows long enough to spill
		}
		return cluster.VMID(1 + rng.Intn(ids))
	}
	rate := func() float64 { return 0.001 + 100*rng.Float64() }
	var extended, spilled int
	for call := 0; call < calls; call++ {
		var u, v cluster.VMID
		var r float64
		switch op := rng.Intn(100); {
		case op < 30 && len(model.keys) > 0: // update
			p := model.keys[rng.Intn(len(model.keys))]
			u, v, r = p.A, p.B, rate()
		case op < 36 && len(model.keys) > 0: // same-rate update
			p := model.keys[rng.Intn(len(model.keys))]
			u, v, r = p.B, p.A, model.rates[p]
		case op < 56 && len(model.keys) > 0: // retire
			p := model.keys[rng.Intn(len(model.keys))]
			u, v, r = p.A, p.B, -float64(rng.Intn(2))
		case op < 60: // retire, most often of an absent pair
			u, v, r = vm(), vm(), 0
		case op < 62: // self-pair
			u = vm()
			v, r = u, rate()
		case op < 64: // NaN
			u, v, r = vm(), vm(), math.NaN()
		case op < 67: // below one quantum
			u, v, r = vm(), vm(), 1e-9*rng.Float64()+math.SmallestNonzeroFloat64
		default: // insert, or an update when the pair exists
			u, v, r = vm(), vm(), rate()
		}
		if r > 0 && u != v && model.rates[MakePair(u, v)] == 0 {
			for _, end := range []cluster.VMID{u, v} {
				switch insertShape(m, end) {
				case 1:
					extended++
				case 2:
					spilled++
				}
			}
		}

		prev := m.Generation()
		want, changed := model.set(u, v, r)
		m.Set(u, v, r)

		p := MakePair(u, v)
		if got := model.rates[p]; !sameBits(m.Rate(u, v), got) || !sameBits(m.Rate(v, u), got) {
			t.Fatalf("call %d: Set(%d, %d, %v): Rate %v / %v, model %v", call, u, v, r, m.Rate(u, v), m.Rate(v, u), got)
		}
		if m.NumPairs() != len(model.rates) || m.Generation() != model.gen {
			t.Fatalf("call %d: Set(%d, %d, %v): %d pairs at generation %d, model %d at %d",
				call, u, v, r, m.NumPairs(), m.Generation(), len(model.rates), model.gen)
		}
		log, ok := m.ChangesSince(prev)
		switch {
		case !ok:
			t.Fatalf("call %d: ChangesSince(%d) refused", call, prev)
		case !changed && len(log) != 0:
			t.Fatalf("call %d: Set(%d, %d, %v) changed nothing but logged %+v", call, u, v, r, log)
		case changed && (len(log) != 1 || log[0].Pair != want.Pair || !sameBits(log[0].Old, want.Old) || !sameBits(log[0].New, want.New)):
			t.Fatalf("call %d: Set(%d, %d, %v) logged %+v, want %+v", call, u, v, r, log, want)
		}

		if call%4096 == 4095 || call == calls-1 {
			seen := 0
			m.ForEachPair(func(a, b cluster.VMID, rate float64) {
				seen++
				if got := model.rates[MakePair(a, b)]; !sameBits(rate, got) {
					t.Fatalf("call %d: stored λ(%d, %d) = %v, model %v", call, a, b, rate, got)
				}
			})
			if seen != len(model.rates) {
				t.Fatalf("call %d: matrix holds %d pairs, model %d", call, seen, len(model.rates))
			}
		}
	}
	st := m.Stats()
	t.Logf("%d pairs at the end, %d compactions, %d in-place extensions, %d spills", m.NumPairs(), st.Compactions, extended, spilled)
	if st.Compactions < 2 || extended == 0 || spilled == 0 {
		t.Fatalf("stream too tame: %d compactions, %d in-place extensions, %d spills", st.Compactions, extended, spilled)
	}
}

// TestMatrixSetZeroAllocs: once the changelog has reached its capacity,
// an update and a retire that leaves both rows non-empty allocate
// nothing.
func TestMatrixSetZeroAllocs(t *testing.T) {
	m := NewMatrix()
	rng := rand.New(rand.NewSource(5))
	var pairs []Pair
	for len(pairs) < 2400 {
		u, v := cluster.VMID(1+rng.Intn(200)), cluster.VMID(1+rng.Intn(200))
		if u != v && m.Rate(u, v) == 0 {
			m.Set(u, v, 1+rng.Float64())
			pairs = append(pairs, MakePair(u, v))
		}
	}
	for i := 0; i <= changeLogCap; i++ {
		p := pairs[i%len(pairs)]
		m.Set(p.A, p.B, float64(1+i%5))
	}
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		p := pairs[i%len(pairs)]
		m.Set(p.A, p.B, float64(2+i%7))
		i++
	}); n != 0 {
		t.Fatalf("update: %v allocs per Set, want 0", n)
	}
	compacts, i := m.Stats().Compactions, 0
	if n := testing.AllocsPerRun(300, func() {
		p := pairs[i]
		m.Set(p.A, p.B, 0)
		i++
	}); n != 0 {
		t.Fatalf("retire: %v allocs per Set, want 0", n)
	}
	if m.Stats().Compactions != compacts || m.NumPairs() != len(pairs)-i {
		t.Fatalf("retire: %d pairs left of %d after %d retires, %d compactions", m.NumPairs(), len(pairs), i, m.Stats().Compactions-compacts)
	}
}

// daemonShapedMatrix generates the traffic of the k=16 daemon's plant:
// a fat tree of 1,024 hosts, 30 VMs each placed in host order, and the
// hotspot matrix over them. It returns the matrix and the VM count (IDs
// run from 1).
func daemonShapedMatrix(b *testing.B) (*Matrix, int) {
	b.Helper()
	const k, perHost = 16, 30
	topo, err := topology.NewFatTree(k, 1000)
	if err != nil {
		b.Fatal(err)
	}
	slots := perHost + perHost/4 + 2
	cl, err := cluster.New(cluster.UniformHosts(topo.Hosts(), slots, slots*1024, 1000))
	if err != nil {
		b.Fatal(err)
	}
	pm := cluster.NewPlacementManager(cl, 1)
	for h := 0; h < topo.Hosts(); h++ {
		for j := 0; j < perHost; j++ {
			id, err := pm.CreateVM(1024)
			if err != nil {
				b.Fatal(err)
			}
			if err := cl.Place(id, cluster.HostID(h)); err != nil {
				b.Fatal(err)
			}
		}
	}
	m, err := Generate(DefaultGenConfig(topo.Racks()), topo, cl, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	return m, cl.NumVMs()
}

// BenchmarkMatrixSet times the three modes of Set an observe batch
// folds, on the k=16 daemon's matrix: an update of an existing pair, the
// insert of a new pair and the retire of one. Inserts and retires cycle
// through a pool of new pairs, restored with the timer stopped each time
// the pool is used up. Update and retire must read 0 allocs/op.
func BenchmarkMatrixSet(b *testing.B) {
	m, nVMs := daemonShapedMatrix(b)
	pairs, rates := m.Pairs()
	pairs, rates = append([]Pair(nil), pairs...), append([]float64(nil), rates...)
	rng := rand.New(rand.NewSource(2))
	fresh := make([]Pair, 0, 4096)
	for len(fresh) < cap(fresh) {
		u, v := cluster.VMID(1+rng.Intn(nVMs)), cluster.VMID(1+rng.Intn(nVMs))
		if u != v && m.Rate(u, v) == 0 && m.Degree(u) > 0 && m.Degree(v) > 0 {
			fresh = append(fresh, MakePair(u, v))
		}
	}
	for i := 0; i <= changeLogCap; i++ { // the changelog at its capacity
		j := (i * 7919) % len(pairs)
		m.Set(pairs[j].A, pairs[j].B, rates[j])
	}
	insert := func(p Pair) { m.Set(p.A, p.B, 1.5) }
	retire := func(p Pair) { m.Set(p.A, p.B, 0) }
	// cycle times op over the pool, running undo over it with the timer
	// stopped whenever it is used up, and leaves the pool as it found it.
	cycle := func(b *testing.B, op, undo func(Pair)) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			j := i % len(fresh)
			if j == 0 && i > 0 {
				b.StopTimer()
				for _, p := range fresh {
					undo(p)
				}
				b.StartTimer()
			}
			op(fresh[j])
		}
		b.StopTimer()
		for _, p := range fresh[:(b.N-1)%len(fresh)+1] {
			undo(p)
		}
	}

	b.Run("update", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			j := (i * 7919) % len(pairs)
			m.Set(pairs[j].A, pairs[j].B, rates[j]+float64(i&1)+0.5)
		}
	})
	b.Run("insert", func(b *testing.B) { cycle(b, insert, retire) })
	b.Run("retire", func(b *testing.B) {
		for _, p := range fresh {
			insert(p)
		}
		b.ResetTimer()
		cycle(b, retire, insert)
		for _, p := range fresh {
			retire(p)
		}
	})
}
