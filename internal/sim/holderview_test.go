package sim

import (
	"maps"
	"math/rand"
	"testing"

	"github.com/score-dc/score/internal/cluster"
	"github.com/score-dc/score/internal/core"
	"github.com/score-dc/score/internal/token"
)

// freshViewCheck is Highest-Level First behind a check: the view the
// Runner lends each hop must equal one built afresh — a new map of
// per-peer PairLevels and the holder's VMLevel.
type freshViewCheck struct {
	token.HighestLevelFirst
	t    *testing.T
	eng  *core.Engine
	hops int
}

func (p *freshViewCheck) Next(tok *token.Token, view token.HolderView) (cluster.VMID, bool) {
	u := view.Holder
	fresh := make(map[cluster.VMID]uint8)
	for _, ed := range p.eng.Traffic().NeighborEdges(u) {
		fresh[ed.Peer] = uint8(p.eng.PairLevel(u, ed.Peer))
	}
	if !maps.Equal(view.NeighborLevels, fresh) {
		p.t.Fatalf("hop %d, holder %d: lent levels %v, fresh %v", p.hops, u, view.NeighborLevels, fresh)
	}
	if int(view.OwnLevel) != p.eng.VMLevel(u) {
		p.t.Fatalf("hop %d, holder %d: own level %d, VMLevel %d", p.hops, u, view.OwnLevel, p.eng.VMLevel(u))
	}
	p.hops++
	return p.HighestLevelFirst.Next(tok, view)
}

// TestReusedHolderViewEqualsFresh: the Runner refills one map per hop
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
