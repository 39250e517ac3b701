package sim

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"github.com/score-dc/score/internal/cluster"
	"github.com/score-dc/score/internal/core"
	"github.com/score-dc/score/internal/token"
)

// freshViewCheck is Highest-Level First behind a check: the view the
// Runner lends each hop must equal one built afresh — a new slice of
// per-peer PairLevels in row order and the holder's VMLevel.
type freshViewCheck struct {
	token.HighestLevelFirst
	t    *testing.T
	eng  *core.Engine
	hops int
}

func (p *freshViewCheck) Next(tok *token.Token, view token.HolderView) (cluster.VMID, bool) {
	u := view.Holder
	var fresh []token.Entry
	for _, ed := range p.eng.Traffic().NeighborEdges(u) {
		fresh = append(fresh, token.Entry{ID: ed.Peer, Level: uint8(p.eng.PairLevel(u, ed.Peer))})
	}
	if !slices.Equal(view.Neighbors, fresh) || view.NeighborLevels != nil {
		p.t.Fatalf("hop %d, holder %d: lent levels %v (map %v), fresh %v", p.hops, u, view.Neighbors, view.NeighborLevels, fresh)
	}
	if int(view.OwnLevel) != p.eng.VMLevel(u) {
		p.t.Fatalf("hop %d, holder %d: own level %d, VMLevel %d", p.hops, u, view.OwnLevel, p.eng.VMLevel(u))
	}
	p.hops++
	return p.HighestLevelFirst.Next(tok, view)
}

// TestReusedHolderViewEqualsFresh: the Runner refills one slice per hop
// and takes OwnLevel as the maximum of the pair levels it just wrote;
// over a serial HLF run with migrations, token loss and rates changing
// mid-run, every hop's view equals a freshly built one.
func TestReusedHolderViewEqualsFresh(t *testing.T) {
	eng, rng := buildEngine(t, 9)
	cfg := smallConfig()
	cfg.TokenLossProb = 0.002
	pol := &freshViewCheck{t: t, eng: eng}
	r, err := NewRunner(eng, pol, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	vms, churn := eng.Cluster().VMs(), rand.New(rand.NewSource(5))
	for at := 1.0; at < cfg.DurationS; at += 2.3 {
		r.des.Schedule(at, func() {
			a, b := vms[churn.Intn(len(vms))], vms[churn.Intn(len(vms))]
			eng.Traffic().Set(a, b, 90*churn.Float64()*float64(churn.Intn(3)))
		})
	}
	m, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.TotalMigrations == 0 || m.TokensRegenerated == 0 {
		t.Fatalf("%d migrations, %d regenerations: the run exercised neither", m.TotalMigrations, m.TokensRegenerated)
	}
	if want := m.TokenHops - m.TokensRegenerated; pol.hops != want {
		t.Fatalf("checked %d views, want one per delivered hop (%d)", pol.hops, want)
	}
}

// TestHolderViewAndNextZeroAllocs: once the lent slice has grown to the
// widest row, a hop's holder view and Highest-Level First's Next allocate
// nothing.
func TestHolderViewAndNextZeroAllocs(t *testing.T) {
	eng, rng := buildEngine(t, 4)
	r, err := NewRunner(eng, token.HighestLevelFirst{}, smallConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	vms := eng.Cluster().VMs()
	r.tok = token.NewAtLevel(vms, uint8(eng.Topology().Depth()))
	hop := func(u cluster.VMID) cluster.VMID {
		next, ok := r.policy.Next(r.tok, r.holderView(u))
		if !ok {
			t.Fatal("no next holder")
		}
		return next
	}
	for _, u := range vms { // warm: every row once
		hop(u)
	}
	u := vms[0]
	if a := testing.AllocsPerRun(200, func() { u = hop(u) }); a != 0 {
		t.Fatalf("holder view + Next allocate %.1f times per hop, want 0", a)
	}
}

// TestHopZeroAllocs: once a run has converged and the hop's buffers are
// warm, a whole token hop — the holder's Visit, its view, Highest-Level
// First's Next and the scheduling of the next hop — allocates nothing.
// The hop runs as the run delivers it, from the event queue, where it is
// the only pending event.
func TestHopZeroAllocs(t *testing.T) {
	eng, rng := buildEngine(t, 4)
	cfg := smallConfig()
	cfg.DurationS = 60 * float64(eng.Cluster().NumVMs()) * cfg.HopLatencyS // 60 passes
	r, err := NewRunner(eng, token.HighestLevelFirst{}, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	m, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if last := m.Iterations[len(m.Iterations)-2]; m.TotalMigrations == 0 || last.Migrations != 0 {
		t.Fatalf("%d migrations, %d in the last full pass: the run did not converge", m.TotalMigrations, last.Migrations)
	}
	hop := func() {
		if r.des.Pending() != 1 || !r.des.Step() {
			t.Fatalf("%d pending events, want the next hop alone", r.des.Pending())
		}
	}
	for i := 0; i < eng.Cluster().NumVMs(); i++ { // warm: every holder once
		hop()
	}
	hops, migs := r.hops, r.metrics.TotalMigrations
	if a := testing.AllocsPerRun(200, hop); a != 0 {
		t.Fatalf("a hop allocates %.1f times, want 0", a)
	}
	if r.hops == hops || r.metrics.TotalMigrations != migs {
		t.Fatalf("%d hops and %d migrations while measuring: want hops and no migration", r.hops-hops, r.metrics.TotalMigrations-migs)
	}
}

// TestUnconvergedRunAllocsBelowMigrations: a run still migrating when it
// ends allocates fewer times than it migrates. A migration's pre-copy
// window is the time it ends, stored per VM, not a scheduled event.
func TestUnconvergedRunAllocsBelowMigrations(t *testing.T) {
	eng, rng := buildEngineSized(t, 4, 32, 0)
	cfg := smallConfig()
	cfg.DurationS = float64(eng.Cluster().NumVMs()) * cfg.HopLatencyS / 2 // half a pass
	r, err := NewRunner(eng, token.HighestLevelFirst{}, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err := r.Run()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if last := m.Iterations[len(m.Iterations)-1]; last.Migrations == 0 {
		t.Fatalf("no migration in the last pass: the run converged")
	}
	if allocs := after.Mallocs - before.Mallocs; allocs >= uint64(m.TotalMigrations) {
		t.Fatalf("the run allocated %d times for %d migrations, want fewer", allocs, m.TotalMigrations)
	}
}

// TestPendingEventsBounded: after every step of an unconverged run with
// token loss, the event queue holds at most the next hop, the next
// sample and a lost token's regeneration; a migration in its pre-copy
// adds none. Run only sets the run up (its duration ends before the
// first hop); the test then lengthens it and delivers every event.
func TestPendingEventsBounded(t *testing.T) {
	eng, rng := buildEngineSized(t, 9, 32, 0)
	cfg := smallConfig()
	cfg.DurationS = cfg.HopLatencyS / 2
	cfg.TokenLossProb = 0.01
	r, err := NewRunner(eng, token.HighestLevelFirst{}, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	r.cfg.DurationS = 60
	migs, regens, most := r.metrics.TotalMigrations, r.metrics.TokensRegenerated, 0
	for r.des.Step() && r.des.Now() <= r.cfg.DurationS {
		n := r.des.Pending()
		if n > 3 {
			t.Fatalf("t=%.2fs: %d pending events, want at most 3", r.des.Now(), n)
		}
		most = max(most, n)
	}
	if r.metrics.TotalMigrations == migs || r.metrics.TokensRegenerated == regens {
		t.Fatalf("%d migrations, %d regenerations: the run exercised neither", r.metrics.TotalMigrations-migs, r.metrics.TokensRegenerated-regens)
	}
	if most < 2 {
		t.Fatalf("at most %d pending events: the sample tick never ran beside the hop", most)
	}
}
