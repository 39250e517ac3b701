package shard

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/score-dc/score/internal/cluster"
	"github.com/score-dc/score/internal/core"
	"github.com/score-dc/score/internal/token"
	"github.com/score-dc/score/internal/topology"
	"github.com/score-dc/score/internal/traffic"
)

// The generated-op-stream property behind the token visit: whatever the
// cluster, the traffic matrix and the scheduler are put through, an
// instance whose rounds go through Visit (the quiet-VM memo live) and a
// twin whose visits always run the kernel (kernelOnly) apply the same
// migrations with the same ΔC bits and land on the same total cost,
// round after round. One byte stream drives both; the same interpreter
// serves the seeded property test and the native fuzz target.

// propSizes are the three small configurations of SNIPPETS.md snippet 3
// (hosts, VMs): small enough that a stream of a few hundred ops runs in
// milliseconds, tight enough (4 slots, RAM and CPU that bind before the
// slots do, 1 Gb/s NICs against rates of hundreds of Mb/s) that
// refusals are the common case.
var propSizes = []struct{ hosts, vms, racksPerPod int }{
	{20, 60, 2}, {40, 120, 4}, {60, 180, 5},
}

// stepTuner is a shard.Tuner the op stream sets between rounds.
type stepTuner struct {
	shards int
	g      Granularity
}

func (s *stepTuner) Plan() (int, Granularity) { return s.shards, s.g }

// world is one instance under test.
type world struct {
	cl    *cluster.Cluster
	tm    *traffic.Matrix
	eng   *core.Engine
	coord *Coordinator
	tuner *stepTuner
	saved map[cluster.VMID]cluster.HostID
	next  cluster.VMID
}

func newWorld(t testing.TB, size int, cfg core.Config) *world {
	t.Helper()
	sz := propSizes[size]
	topo, err := topology.NewCanonicalTree(topology.CanonicalConfig{
		Racks: sz.hosts / 2, HostsPerRack: 2, RacksPerPod: sz.racksPerPod, CoreSwitches: 2,
		HostLinkMbps: 1000, TorUplinkMbps: 10000, AggUplinkMbps: 10000,
	})
	if err != nil {
		t.Fatal(err)
	}
	hosts := cluster.UniformHosts(sz.hosts, 4, 4096, 1000)
	for i := range hosts {
		hosts[i].CPUMilli = 4000
	}
	cl, err := cluster.New(hosts)
	if err != nil {
		t.Fatal(err)
	}
	w := &world{cl: cl, tm: traffic.NewMatrix(), tuner: &stepTuner{shards: 1}, next: 1}
	rng := rand.New(rand.NewSource(int64(size) + 1))
	for i := 0; i < sz.vms; i++ {
		w.place(512+256*rng.Intn(5), 500*rng.Intn(4), rng.Intn(sz.hosts))
	}
	for i := 0; i < 2*sz.vms; i++ {
		a, b := cluster.VMID(1+rng.Intn(sz.vms)), cluster.VMID(1+rng.Intn(sz.vms))
		w.tm.Set(a, b, float64(1+rng.Intn(300)))
	}
	cm, err := core.NewCostModel(core.PaperWeights()...)
	if err != nil {
		t.Fatal(err)
	}
	if w.eng, err = core.NewEngine(topo, cm, cl, w.tm, cfg); err != nil {
		t.Fatal(err)
	}
	w.coord, err = NewCoordinator(w.eng, Config{
		Tuner:     w.tuner,
		NewPolicy: func(int) token.Policy { return token.RoundRobin{} },
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// place registers a VM and puts it on the first host from `from` on
// that fits it; a VM nobody fits is dropped again.
func (w *world) place(ram, cpu, from int) {
	id := w.next
	if w.cl.AddVM(cluster.VM{ID: id, RAMMB: ram, CPUMilli: cpu}) != nil {
		return
	}
	w.next++
	n := w.cl.NumHosts()
	for i := 0; i < n; i++ {
		if h := cluster.HostID((from + i) % n); w.cl.Fits(id, h) && w.cl.Place(id, h) == nil {
			return
		}
	}
	w.cl.Remove(id)
}

// vm picks a live VM by index byte; 0 when none is left.
func (w *world) vm(b byte) cluster.VMID {
	vms := w.cl.VMs()
	if len(vms) == 0 {
		return 0
	}
	return vms[int(b)%len(vms)]
}

// serialPass is the single-token round: every VM visited once in ID
// order through Engine.Visit, moves applied at once.
func (w *world) serialPass() (applied []core.Decision, skipped int) {
	for _, u := range w.cl.VMs() {
		dec, ok, skip := w.eng.Visit(u)
		if skip {
			skipped++
		}
		if !ok {
			continue
		}
		if realized, err := w.eng.Apply(dec); err == nil {
			dec.Delta = realized
			applied = append(applied, dec)
		}
	}
	return applied, skipped
}

// step applies one op; a round returns what it applied and skipped.
// Mutations that fail (no capacity, unknown VM) fail alike in both
// worlds and are ignored.
func (w *world) step(op, a, b, c byte) (round bool, applied []core.Decision, skipped int, err error) {
	switch op % 10 {
	case 0, 1: // sharded round; twice as likely as any other op
		w.tuner.shards, w.tuner.g = 1+int(a)%4, Granularity(int(a)>>2&1)
		r, err := w.coord.RunRound()
		if err != nil {
			return true, nil, 0, err
		}
		for _, sh := range r.Shards {
			skipped += sh.Skipped
		}
		return true, r.Applied, skipped, nil
	case 2:
		applied, skipped = w.serialPass()
		return true, applied, skipped, nil
	case 3:
		w.place(256*(1+int(a)%6), 500*(int(b)%4), int(c))
	case 4:
		w.cl.Move(w.vm(a), cluster.HostID(int(b)%w.cl.NumHosts()))
	case 5:
		u := w.vm(a)
		w.tm.ClearVM(u)
		w.cl.Remove(u)
	case 6:
		w.cl.Respec(w.vm(a), 256*(1+int(b)%6), 500*(int(c)%4))
	case 7:
		w.tm.Set(w.vm(a), w.vm(b), float64(c)*4) // c == 0 retires the pair
	case 8:
		w.tm.ClearVM(w.vm(a))
	case 9:
		switch a % 3 {
		case 0:
			w.saved = w.cl.Snapshot()
		case 1:
			if w.saved != nil {
				w.cl.Restore(w.saved) // fails, harmlessly, once the population changed
			}
		default:
			w.tm = w.tm.Clone()
			w.eng.SetTraffic(w.tm)
		}
	}
	return false, nil, 0, nil
}

// runOps interprets data as an op stream (4 bytes per op) against a
// memoized world and its kernel-only twin and fails on the first
// divergence. It returns how many visits the memoized world skipped.
func runOps(t testing.TB, size int, data []byte) (skippedTotal int) {
	t.Helper()
	cfg := core.DefaultConfig()
	memo, twin := newWorld(t, size, cfg), newWorld(t, size, cfg)
	kernelOnly(twin.eng)
	defer memo.coord.Close()
	defer twin.coord.Close()
	for i := 0; i+4 <= len(data); i += 4 {
		op, a, b, c := data[i], data[i+1], data[i+2], data[i+3]
		round, got, skipped, err := memo.step(op, a, b, c)
		_, want, tskipped, terr := twin.step(op, a, b, c)
		if err != nil || terr != nil {
			t.Fatalf("op %d (%d): round failed: %v / %v", i/4, op%10, err, terr)
		}
		if !round {
			continue
		}
		if tskipped != 0 {
			t.Fatalf("op %d: the kernel-only twin skipped %d visits", i/4, tskipped)
		}
		skippedTotal += skipped
		if !sameDecisions(got, want) {
			t.Fatalf("op %d (%d): applied %s\nkernel-only twin %s", i/4, op%10, fmtDecisions(got), fmtDecisions(want))
		}
		if a, b := memo.eng.TotalCost(), twin.eng.TotalCost(); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("op %d: total cost %v, kernel-only twin %v", i/4, a, b)
		}
	}
	return skippedTotal
}

func fmtDecisions(ds []core.Decision) string {
	s := ""
	for _, d := range ds {
		s += fmt.Sprintf("\n  VM %d: %d→%d ΔC %v", d.VM, d.From, d.Target, d.Delta)
	}
	if s == "" {
		return "nothing"
	}
	return s
}

// TestVisitEqualsKernelUnderGeneratedOps drives seeded random op
// streams through all three sizes.
func TestVisitEqualsKernelUnderGeneratedOps(t *testing.T) {
	streams := 40
	if testing.Short() {
		streams = 8
	}
	for size := range propSizes {
		skipped := 0
		for seed := 0; seed < streams; seed++ {
			rng := rand.New(rand.NewSource(int64(1000*size + seed)))
			data := make([]byte, 4*300)
			rng.Read(data)
			skipped += runOps(t, size, data)
		}
		t.Logf("size %d: %d visits skipped over %d streams", size, skipped, streams)
		if skipped == 0 {
			t.Errorf("size %d: no visit was skipped in %d streams; the property was not exercised", size, streams)
		}
	}
}

// FuzzVisitOps is the same property with the fuzzer choosing the
// stream. The seed corpus (f.Add below and testdata/fuzz/FuzzVisitOps)
// runs on every plain `go test`.
func FuzzVisitOps(f *testing.F) {
	// Settle, then poke one thing at a time between rounds.
	f.Add(byte(0), []byte{
		0, 1, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0,
		4, 3, 7, 0, 0, 3, 0, 0,
		6, 5, 0, 0, 0, 6, 0, 0,
		7, 1, 9, 200, 2, 0, 0, 0,
		5, 2, 0, 0, 0, 7, 0, 0,
		9, 0, 0, 0, 3, 1, 2, 3, 9, 1, 0, 0, 0, 0, 0, 0,
		9, 2, 0, 0, 0, 5, 0, 0,
	})
	f.Add(byte(1), []byte{0, 3, 0, 0, 2, 0, 0, 0, 8, 4, 0, 0, 0, 7, 0, 0, 2, 0, 0, 0})
	f.Add(byte(2), []byte{0, 7, 0, 0, 0, 7, 0, 0, 7, 3, 4, 0, 0, 2, 0, 0})
	// Retire pairs and add them back between rounds: a fall to 0 frees
	// NIC room at both ends, the re-add only loads it.
	f.Add(byte(1), []byte{
		0, 1, 0, 0, 0, 5, 0, 0, 2, 0, 0, 0,
		7, 3, 9, 60, 0, 1, 0, 0, 7, 3, 9, 0, 0, 1, 0, 0, 7, 3, 9, 60, 0, 6, 0, 0,
		7, 12, 40, 0, 2, 0, 0, 0, 7, 12, 40, 200, 1, 2, 0, 0,
		8, 17, 0, 0, 0, 3, 0, 0, 7, 17, 5, 150, 7, 17, 21, 90, 0, 1, 0, 0, 2, 0, 0, 0,
	})
	f.Fuzz(func(t *testing.T, size byte, data []byte) {
		if len(data) > 4*400 {
			data = data[:4*400]
		}
		runOps(t, int(size)%len(propSizes), data)
	})
}
