package hypervisor

import (
	"fmt"
	"testing"

	"github.com/score-dc/score/internal/cluster"
	"github.com/score-dc/score/internal/core"
	"github.com/score-dc/score/internal/token"
	"github.com/score-dc/score/internal/topology"
	"github.com/score-dc/score/internal/traffic"
)

// TestAdmitOnEveryPlane: the three places a move is admitted — an engine
// view, a dom0 agent's token visit (the target's capacity response) and
// the reconciler's merge env (its probed, cached capacity) — answer
// through core.Admit, so on one instance they agree, case by case:
//
//   - VM 1 (1000 millicores) to host 2, which has 500 of its 2000 left:
//     CPU-full, refused;
//   - VM 3 to host 4, whose NIC carries 860 Mb/s: it would carry 950, over
//     90 % of 1000, refused;
//   - VM 7 to host 5, whose NIC already carries 1000 Mb/s: 950 after the
//     move is over 90 % but cools the hot NIC, admitted.
func TestAdmitOnEveryPlane(t *testing.T) {
	topo, err := topology.NewCanonicalTree(topology.CanonicalConfig{
		Racks: 4, HostsPerRack: 2, RacksPerPod: 2, CoreSwitches: 1,
		HostLinkMbps: 1000, TorUplinkMbps: 1000, AggUplinkMbps: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	hosts := cluster.UniformHosts(topo.Hosts(), 4, 8192, 1000)
	for i := range hosts {
		hosts[i].CPUMilli = 2000
	}
	cl, err := cluster.New(hosts)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []struct {
		vm   cluster.VMID
		host cluster.HostID
		cpu  int
	}{{1, 0, 1000}, {2, 2, 1500}, {3, 1, 0}, {4, 4, 0}, {5, 6, 0}, {6, 7, 0}, {7, 3, 0}, {8, 5, 0}, {9, 6, 0}, {10, 7, 0}} {
		if err := cl.AddVM(cluster.VM{ID: p.vm, RAMMB: 1024, CPUMilli: p.cpu}); err != nil {
			t.Fatal(err)
		}
		if err := cl.Place(p.vm, p.host); err != nil {
			t.Fatal(err)
		}
	}
	tm := traffic.NewMatrix()
	tm.Set(1, 2, 10)
	tm.Set(3, 4, 10)
	tm.Set(3, 5, 100)
	tm.Set(4, 6, 850)
	tm.Set(7, 8, 300)
	tm.Set(7, 9, 250)
	tm.Set(8, 10, 700)
	cm, err := core.NewCostModel(core.PaperWeights()...)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(topo, cm, cl, tm, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if eng.HostNetLoad(4) != 860 || eng.HostNetLoad(5) != 1000 {
		t.Fatalf("fixture: NIC loads %v on host 4, %v on host 5; want 860, 1000", eng.HostNetLoad(4), eng.HostNetLoad(5))
	}

	hub, reg := NewMemHub(), NewRegistry()
	var agents []*Agent
	for h := range hosts {
		ag, err := NewAgent(AgentConfig{
			HostID: cluster.HostID(h), Slots: 4, RAMMB: 8192, CPUMilli: 2000, NICMbps: 1000,
			Topo: topo, Cost: cm, Policy: token.RoundRobin{},
		}, reg)
		if err != nil {
			t.Fatal(err)
		}
		if err := ag.Start(func(hd Handler) (Transport, error) { return hub.NewEndpoint(fmt.Sprint("dom0-", h), hd) }); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = ag.Close() })
		agents = append(agents, ag)
	}
	rec, err := NewReconciler(ReconcilerConfig{Topo: topo, Cost: cm, Shards: 1}, reg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Start(func(hd Handler) (Transport, error) { return hub.NewEndpoint("reconciler", hd) }); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rec.Close() })
	env := &reconcileEnv{r: rec, recs: make(map[cluster.VMID]vmRecord), caps: make(map[cluster.HostID]*hostCap)}
	for _, id := range cl.VMs() {
		vm, _ := cl.VM(id)
		rates := make(map[cluster.VMID]float64)
		for _, ed := range tm.NeighborEdges(id) {
			rates[ed.Peer] = ed.Rate
		}
		if err := agents[cl.HostOf(id)].Adopt(vm, rates); err != nil {
			t.Fatal(err)
		}
		env.recs[id] = vmRecord{ramMB: vm.RAMMB, cpuMilli: vm.CPUMilli, rates: tm.NeighborEdges(id)}
	}

	view := eng.NewView()
	for _, tc := range []struct {
		vm     cluster.VMID
		target cluster.HostID
		want   bool
	}{{1, 2, false}, {3, 4, false}, {7, 5, true}} {
		src := agents[cl.HostOf(tc.vm)]
		src.mu.Lock()
		r := src.vms[tc.vm]
		src.mu.Unlock()
		_, v, _ := src.bestMove(tc.vm, src.HostID(), r, &ringOverlay{})
		planes := map[string]bool{
			"engine view": view.Admissible(tc.vm, tc.target),
			"agent visit": v.Admissible(tc.vm, tc.target),
			"merge env":   env.Admissible(tc.vm, tc.target),
		}
		for plane, got := range planes {
			if got != tc.want {
				t.Errorf("VM %d to host %d: %s admits = %v, want %v", tc.vm, tc.target, plane, got, tc.want)
			}
		}
	}
}
