package shard

import (
	"fmt"
	"testing"
	"time"

	"github.com/score-dc/score/internal/cluster"
	"github.com/score-dc/score/internal/core"
)

// fakeState is a tiny authoritative allocation: VM i sits at host i,
// ΔC comes from a per-VM base gain that halves whenever one of the VM's
// peers has already moved — so a batching bug that validates a decision
// after a same-window peer move produces a different float than the
// sequential pass.
type fakeState struct {
	hosts   map[cluster.VMID]cluster.HostID
	base    map[cluster.VMID]float64
	peerTab map[cluster.VMID][]cluster.VMID
	moved   map[cluster.VMID]bool
	fail    map[cluster.VMID]bool // VMs whose Apply errors, leaving the state untouched
	applies int
}

func newFakeState(n int) *fakeState {
	s := &fakeState{
		hosts:   map[cluster.VMID]cluster.HostID{},
		base:    map[cluster.VMID]float64{},
		peerTab: map[cluster.VMID][]cluster.VMID{},
		moved:   map[cluster.VMID]bool{},
	}
	for i := 0; i < n; i++ {
		vm := cluster.VMID(i + 1)
		s.hosts[vm] = cluster.HostID(i)
		s.base[vm] = float64(n/2 - i) // later proposals go non-positive
		if i > 0 {
			s.peerTab[vm] = append(s.peerTab[vm], cluster.VMID(i))
		}
		if i+2 <= n {
			s.peerTab[vm] = append(s.peerTab[vm], cluster.VMID(i+2))
		}
	}
	return s
}

func (s *fakeState) delta(vm cluster.VMID) float64 {
	d := s.base[vm]
	for _, p := range s.peerTab[vm] {
		if s.moved[p] {
			d /= 2
		}
	}
	return d
}

func (s *fakeState) apply(d core.Decision) (float64, error) {
	if s.fail[d.VM] {
		return 0, fmt.Errorf("fake: commit of VM %d refused", d.VM)
	}
	realized := s.delta(d.VM)
	s.hosts[d.VM] = d.Target
	s.moved[d.VM] = true
	s.applies++
	return realized, nil
}

// seqEnv exposes fakeState as a plain Env: the shared pass takes the
// sequential path.
type seqEnv struct{ s *fakeState }

func (e seqEnv) Delta(vm cluster.VMID, _ cluster.HostID) float64 { return e.s.delta(vm) }
func (e seqEnv) Admissible(cluster.VMID, cluster.HostID) bool    { return true }
func (e seqEnv) HostOf(vm cluster.VMID) cluster.HostID           { return e.s.hosts[vm] }
func (e seqEnv) Apply(d core.Decision) (float64, error)          { return e.s.apply(d) }

// batEnv exposes the same state as a BatchEnv with a persistent tuner
// and an optional per-wave delay standing in for the commit RTT.
type batEnv struct {
	s     *fakeState
	tuner *BatchTuner
	delay time.Duration
	waves []int // width of each ApplyAll wave, in order
}

func (e *batEnv) Delta(vm cluster.VMID, _ cluster.HostID) float64 { return e.s.delta(vm) }
func (e *batEnv) Admissible(cluster.VMID, cluster.HostID) bool    { return true }
func (e *batEnv) HostOf(vm cluster.VMID) cluster.HostID           { return e.s.hosts[vm] }
func (e *batEnv) Apply(d core.Decision) (float64, error)          { return e.s.apply(d) }
func (e *batEnv) Prefetch([]cluster.HostID)                       {}
func (e *batEnv) Peers(vm cluster.VMID) []cluster.VMID            { return e.s.peerTab[vm] }
func (e *batEnv) Tuner() *BatchTuner                              { return e.tuner }

func (e *batEnv) ApplyAll(ds []core.Decision) ([]float64, []error) {
	if len(ds) > 0 {
		e.waves = append(e.waves, len(ds))
	}
	if e.delay > 0 {
		time.Sleep(e.delay)
	}
	realized := make([]float64, len(ds))
	errs := make([]error, len(ds))
	for i, d := range ds {
		realized[i], errs[i] = e.s.apply(d)
	}
	return realized, errs
}

func proposalsFor(n int) []core.Decision {
	ps := make([]core.Decision, 0, n)
	for i := 0; i < n; i++ {
		vm := cluster.VMID(i + 1)
		ps = append(ps, core.Decision{
			VM:     vm,
			From:   cluster.HostID(i),
			Target: cluster.HostID(i + 1000),
			Delta:  float64(n/2 - i),
		})
	}
	return ps
}

// TestTunerWindow checks the derivation: default before any
// observation, budget-derived after, clamped to [1, maxBatch].
func TestTunerWindow(t *testing.T) {
	var zero *BatchTuner
	if got := zero.window(100); got != defaultBatch {
		t.Fatalf("nil tuner window = %d, want %d", got, defaultBatch)
	}
	tu := &BatchTuner{}
	if got := tu.window(100); got != defaultBatch {
		t.Fatalf("unobserved window = %d, want %d", got, defaultBatch)
	}
	// Fast link: 1ms waves. 100 remaining → ceil(100·1ms/250ms) = 1.
	tu.rttNS = float64(time.Millisecond)
	if got := tu.window(100); got != 1 {
		t.Fatalf("fast-link window = %d, want 1", got)
	}
	// 50ms waves, 40 remaining → ceil(40·50/250) = 8 waves of 8.
	tu.rttNS = float64(50 * time.Millisecond)
	if got := tu.window(40); got != 8 {
		t.Fatalf("mid-link window = %d, want 8", got)
	}
	// Slow link: 1s waves, long merge → clamp at maxBatch.
	tu.rttNS = float64(time.Second)
	if got := tu.window(500); got != maxBatch {
		t.Fatalf("slow-link window = %d, want %d (clamp)", got, maxBatch)
	}
	if got := tu.window(0); got != 1 {
		t.Fatalf("empty-merge window = %d, want 1", got)
	}
}

// TestTunerObserve: the EWMA tracks wave round trips and the batched
// pass feeds it.
func TestTunerObserve(t *testing.T) {
	tu := &BatchTuner{}
	tu.observe(100 * time.Millisecond)
	if tu.rttNS != float64(100*time.Millisecond) {
		t.Fatalf("first observation not adopted: %v", tu.rttNS)
	}
	tu.observe(200 * time.Millisecond)
	if want := float64(150 * time.Millisecond); tu.rttNS != want {
		t.Fatalf("EWMA = %v, want %v", tu.rttNS, want)
	}

	env := &batEnv{s: newFakeState(8), tuner: &BatchTuner{}, delay: time.Millisecond}
	ReconcileProposals(env, 0, proposalsFor(8), nil)
	if env.tuner.rttNS <= 0 {
		t.Fatal("batched pass did not feed the tuner")
	}
}

// TestAdaptiveBatchedMatchesSequential: whatever window the tuner
// picks, the batched passes must produce exactly the sequential
// outcome — same applied decisions, same realized floats, same final
// allocation, same rejects.
func TestAdaptiveBatchedMatchesSequential(t *testing.T) {
	const n = 60
	windows := map[string]float64{
		"unobserved":   0,
		"narrow(w=1)":  float64(time.Millisecond),
		"derived(w≈8)": float64(50 * time.Millisecond),
		"clamped(max)": float64(10 * time.Second),
	}
	for name, rtt := range windows {
		t.Run(name, func(t *testing.T) {
			seq := newFakeState(n)
			seqApplied, seqRejected := ReconcileProposals(seqEnv{seq}, 0, proposalsFor(n), nil)

			bat := newFakeState(n)
			env := &batEnv{s: bat, tuner: &BatchTuner{rttNS: rtt}}
			batApplied, batRejected := ReconcileProposals(env, 0, proposalsFor(n), nil)

			if len(batApplied) != len(seqApplied) || len(batRejected) != len(seqRejected) {
				t.Fatalf("applied/rejected = %d/%d, sequential %d/%d",
					len(batApplied), len(batRejected), len(seqApplied), len(seqRejected))
			}
			for i := range seqApplied {
				if batApplied[i] != seqApplied[i] {
					t.Fatalf("applied[%d] = %+v, sequential %+v", i, batApplied[i], seqApplied[i])
				}
			}
			for vm, h := range seq.hosts {
				if bat.hosts[vm] != h {
					t.Fatalf("final HostOf(%d) = %d, sequential %d", vm, bat.hosts[vm], h)
				}
			}
			// The derived cap must actually bound the waves.
			cap := (&BatchTuner{rttNS: rtt}).window(n)
			for _, w := range env.waves {
				if w > cap {
					t.Fatalf("wave of %d exceeds derived cap %d", w, cap)
				}
			}
		})
	}
}

// TestAdaptiveMergeMatchesSequential mirrors the check for the staged-
// commit merge pass.
func TestAdaptiveMergeMatchesSequential(t *testing.T) {
	const n = 40
	seq := newFakeState(n)
	seqApplied, seqStale, err := MergeStaged(seqEnv{seq}, 0, proposalsFor(n), nil)
	if err != nil {
		t.Fatal(err)
	}

	bat := newFakeState(n)
	env := &batEnv{s: bat, tuner: &BatchTuner{rttNS: float64(20 * time.Millisecond)}}
	batApplied, batStale, err := MergeStaged(env, 0, proposalsFor(n), nil)
	if err != nil {
		t.Fatal(err)
	}
	if batStale != seqStale || len(batApplied) != len(seqApplied) {
		t.Fatalf("applied/stale = %d/%d, sequential %d/%d",
			len(batApplied), batStale, len(seqApplied), seqStale)
	}
	for i := range seqApplied {
		if batApplied[i] != seqApplied[i] {
			t.Fatalf("applied[%d] = %+v, sequential %+v", i, batApplied[i], seqApplied[i])
		}
	}
	for vm, h := range seq.hosts {
		if bat.hosts[vm] != h {
			t.Fatalf("final HostOf(%d) = %d, sequential %d", vm, bat.hosts[vm], h)
		}
	}
}
