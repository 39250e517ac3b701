package hypervisor

import (
	"errors"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"github.com/score-dc/score/internal/cluster"
	"github.com/score-dc/score/internal/core"
	"github.com/score-dc/score/internal/token"
	"github.com/score-dc/score/internal/topology"
	"github.com/score-dc/score/internal/traffic"
)

func TestMessageRoundTrip(t *testing.T) {
	m := Message{
		Type: MsgCapacityResp, ReqID: 42, VM: 7, Host: 3,
		FreeSlots: 5, FreeRAMMB: 2048, RAMMB: 512,
		ReplyTo: "127.0.0.1:9999", Payload: []byte{1, 2, 3},
	}
	got, err := DecodeMessage(m.Encode())
	if err != nil {
		t.Fatalf("DecodeMessage: %v", err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, m)
	}
}

func TestMessageRoundTripQuick(t *testing.T) {
	f := func(ty uint8, reqID, vm uint32, host int32, slots, ram, demand int32, reply string, payload []byte) bool {
		if len(reply) > 60000 {
			reply = reply[:60000]
		}
		m := Message{
			Type: MsgType(ty), ReqID: reqID, VM: cluster.VMID(vm),
			Host: cluster.HostID(host), FreeSlots: slots, FreeRAMMB: ram,
			RAMMB: demand, ReplyTo: reply, Payload: payload,
		}
		got, err := DecodeMessage(m.Encode())
		if err != nil {
			return false
		}
		if len(m.Payload) == 0 {
			m.Payload = nil // Decode normalizes empty payloads to nil
		}
		return reflect.DeepEqual(m, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMessageDecodeErrors(t *testing.T) {
	if _, err := DecodeMessage(nil); err == nil {
		t.Fatal("nil buffer accepted")
	}
	m := Message{Type: MsgToken, Payload: []byte{1, 2, 3, 4}}
	buf := m.Encode()
	if _, err := DecodeMessage(buf[:len(buf)-2]); err == nil {
		t.Fatal("truncated payload accepted")
	}
}

func TestRatesRoundTrip(t *testing.T) {
	in := []traffic.Edge{{Peer: 1, Rate: 10.5}, {Peer: 2, Rate: 0.000125}, {Peer: 99, Rate: 400}}
	out, err := DecodeRateEdges(EncodeRateEdges(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("len = %d, want %d", len(out), len(in))
	}
	for i, e := range in {
		if out[i].Peer != e.Peer {
			t.Fatalf("edge %d: peer %d, want %d", i, out[i].Peer, e.Peer)
		}
		if d := out[i].Rate - e.Rate; d > 1e-6 || d < -1e-6 {
			t.Fatalf("rate[%d] = %v, want %v", e.Peer, out[i].Rate, e.Rate)
		}
	}
	if _, err := DecodeRateEdges([]byte{0, 0}); err == nil {
		t.Fatal("short rates buffer accepted")
	}
}

func TestMemHubDelivery(t *testing.T) {
	hub := NewMemHub()
	got := make(chan Message, 1)
	a, err := hub.NewEndpoint("a", func(from string, m Message) { got <- m })
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := hub.NewEndpoint("b", func(string, Message) {})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.Send("a", Message{Type: MsgCapacityReq, VM: 1}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if m.Type != MsgCapacityReq || m.VM != 1 {
			t.Fatalf("delivered %+v", m)
		}
	case <-time.After(time.Second):
		t.Fatal("message not delivered")
	}
	if err := b.Send("nowhere", Message{}); err == nil {
		t.Fatal("send to unknown endpoint succeeded")
	}
	if _, err := hub.NewEndpoint("a", nil); err == nil {
		t.Fatal("duplicate address accepted")
	}
}

func TestMemHubCloseStopsDelivery(t *testing.T) {
	hub := NewMemHub()
	var count atomic.Int64
	a, err := hub.NewEndpoint("a", func(string, Message) { count.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	b, err := hub.NewEndpoint("b", func(string, Message) {})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if err := b.Send("a", Message{}); err == nil {
		t.Fatal("send to closed endpoint succeeded")
	}
}

func TestTCPTransportRoundTrip(t *testing.T) {
	got := make(chan Message, 1)
	srv, err := NewTCPTransport("127.0.0.1:0", func(from string, m Message) { got <- m })
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := NewTCPTransport("127.0.0.1:0", func(string, Message) {})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	want := Message{Type: MsgCapacityReq, ReqID: 9, VM: 4, RAMMB: 196, ReplyTo: cli.Addr()}
	if err := cli.Send(srv.Addr(), want); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if !reflect.DeepEqual(m, want) {
			t.Fatalf("got %+v, want %+v", m, want)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("frame not delivered over TCP")
	}
}

// buildAgents wires n agents over a shared hub with one VM pair placed
// far apart.
func buildAgents(t *testing.T, n int) (*Registry, []*Agent, topology.Topology) {
	t.Helper()
	topo, err := topology.NewCanonicalTree(topology.CanonicalConfig{
		Racks: 4, HostsPerRack: 2, RacksPerPod: 2, CoreSwitches: 1,
		HostLinkMbps: 1000, TorUplinkMbps: 1000, AggUplinkMbps: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	cm, err := core.NewCostModel(core.PaperWeights()...)
	if err != nil {
		t.Fatal(err)
	}
	hub := NewMemHub()
	reg := NewRegistry()
	agents := make([]*Agent, n)
	for h := 0; h < n; h++ {
		ag, err := NewAgent(AgentConfig{
			HostID: cluster.HostID(h), Slots: 4, RAMMB: 8192,
			Topo: topo, Cost: cm, Policy: token.RoundRobin{},
		}, reg)
		if err != nil {
			t.Fatal(err)
		}
		addr := ag
		_ = addr
		if err := ag.Start(func(handler Handler) (Transport, error) {
			return hub.NewEndpoint(agentAddr(h), handler)
		}); err != nil {
			t.Fatal(err)
		}
		agents[h] = ag
	}
	t.Cleanup(func() {
		for _, a := range agents {
			_ = a.Close()
		}
	})
	return reg, agents, topo
}

func agentAddr(h int) string { return "dom0-" + string(rune('A'+h)) }

func TestAgentLocationAndCapacityProbes(t *testing.T) {
	_, agents, _ := buildAgents(t, 4)
	if err := agents[2].AddVM(7, 1024, nil); err != nil {
		t.Fatal(err)
	}
	// Capacity probe against agent 2.
	resp, err := agents[0].rq.request(agents[2].Addr(), Message{Type: MsgCapacityReq, VM: 7, RAMMB: 100})
	if err != nil {
		t.Fatal(err)
	}
	if resp.FreeSlots != 3 || resp.FreeRAMMB != 8192-1024 {
		t.Fatalf("capacity = %d slots, %d MB", resp.FreeSlots, resp.FreeRAMMB)
	}
}

// TestUnreachablePeerKeepsDecision: an agent reads where its peers sit
// from the registry, so a peer whose dom0 is cut off still counts in the
// holder's row. VM 1 on host 0 talks to VM 2 on host 6 (80 Mb/s) and VM 3
// on host 7 (10 Mb/s), rack-mates in the other pod, and host 7's dom0 is
// isolated: the visit picks the engine's target, host 6, with the
// engine's ΔC to the bit.
func TestUnreachablePeerKeepsDecision(t *testing.T) {
	topo, err := topology.NewCanonicalTree(topology.CanonicalConfig{
		Racks: 4, HostsPerRack: 2, RacksPerPod: 2, CoreSwitches: 1,
		HostLinkMbps: 1000, TorUplinkMbps: 1000, AggUplinkMbps: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	hosts := cluster.UniformHosts(topo.Hosts(), 4, 8192, 1000)
	cl, err := cluster.New(hosts)
	if err != nil {
		t.Fatal(err)
	}
	for vm, h := range map[cluster.VMID]cluster.HostID{1: 0, 2: 6, 3: 7} {
		if err := cl.AddVM(cluster.VM{ID: vm, RAMMB: 1024}); err != nil {
			t.Fatal(err)
		}
		if err := cl.Place(vm, h); err != nil {
			t.Fatal(err)
		}
	}
	tm := traffic.NewMatrix()
	tm.Set(1, 2, 80)
	tm.Set(1, 3, 10)
	cm, err := core.NewCostModel(core.PaperWeights()...)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(topo, cm, cl, tm, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	want, ok := eng.BestMigration(1)
	if !ok || want.Target != 6 {
		t.Fatalf("fixture: engine decides %+v, %v; want a move to host 6", want, ok)
	}

	faults := NewFaultPlan(FaultConfig{})
	hub, reg := NewMemHub(), NewRegistry()
	var agents []*Agent
	for h := range hosts {
		ag, err := NewAgent(AgentConfig{
			HostID: cluster.HostID(h), Slots: 4, RAMMB: 8192, NICMbps: 1000,
			Topo: topo, Cost: cm, Policy: token.RoundRobin{},
		}, reg)
		if err != nil {
			t.Fatal(err)
		}
		ag.probeTimeout = 50 * time.Millisecond
		if err := ag.Start(func(hd Handler) (Transport, error) {
			tr, err := hub.NewEndpoint(agentAddr(h), hd)
			if err != nil {
				return nil, err
			}
			return faults.Wrap(tr), nil
		}); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = ag.Close() })
		agents = append(agents, ag)
	}
	for _, id := range cl.VMs() {
		vm, _ := cl.VM(id)
		rates := make(map[cluster.VMID]float64)
		for _, ed := range tm.NeighborEdges(id) {
			rates[ed.Peer] = ed.Rate
		}
		if err := agents[cl.HostOf(id)].Adopt(vm, rates); err != nil {
			t.Fatal(err)
		}
	}
	faults.Isolate(agents[7].Addr())

	agents[0].mu.Lock()
	rec := agents[0].vms[1]
	agents[0].mu.Unlock()
	dec, _, ok := agents[0].bestMove(1, 0, rec, &ringOverlay{})
	if !ok || dec.Target != want.Target {
		t.Fatalf("agent decides %+v, %v; engine moves VM 1 to host %d", dec, ok, want.Target)
	}
	if got, eq := dec.Delta, eng.Delta(1, dec.Target); math.Float64bits(got) != math.Float64bits(eq) {
		t.Fatalf("agent ΔC %v, engine ΔC %v", got, eq)
	}
}

func TestAgentTokenRingMigratesPair(t *testing.T) {
	_, agents, topo := buildAgents(t, 8)
	// VM 1 on host 0 (pod 0), VM 2 on host 6 (pod 1): level-3 pair.
	if err := agents[0].AddVM(1, 1024, map[cluster.VMID]float64{2: 80}); err != nil {
		t.Fatal(err)
	}
	if err := agents[6].AddVM(2, 1024, map[cluster.VMID]float64{1: 80}); err != nil {
		t.Fatal(err)
	}
	if got := topo.Level(0, 6); got != 3 {
		t.Fatalf("fixture: pair at level %d, want 3", got)
	}

	var migrations atomic.Int64
	done := make(chan struct{})
	var hops atomic.Int64
	var once sync.Once
	for _, ag := range agents {
		ag.OnToken = func(ev TokenEvent) bool {
			if ev.Migrated {
				migrations.Add(1)
			}
			if hops.Add(1) >= 8 {
				once.Do(func() { close(done) })
				return false
			}
			return true
		}
	}
	tok := token.New([]cluster.VMID{1, 2})
	if err := agents[0].InjectToken(tok, 1); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("token ring stalled")
	}
	if migrations.Load() == 0 {
		t.Fatal("level-3 pair never migrated")
	}
	// The pair must now be co-located within a rack.
	find := func(vm cluster.VMID) cluster.HostID {
		for _, a := range agents {
			for _, id := range a.VMs() {
				if id == vm {
					return a.HostID()
				}
			}
		}
		return cluster.NoHost
	}
	h1, h2 := find(1), find(2)
	if h1 == cluster.NoHost || h2 == cluster.NoHost {
		t.Fatalf("VM lost during migration: %d, %d", h1, h2)
	}
	if topo.Level(h1, h2) > 1 {
		t.Fatalf("pair still at level %d after migrations", topo.Level(h1, h2))
	}
}

func TestAgentCapacityRefusalFallsBack(t *testing.T) {
	_, agents, topo := buildAgents(t, 4)
	// Fill host 2 completely; VM 1 on host 0 talks to VM 100 on host 2.
	for i := 0; i < 4; i++ {
		if err := agents[2].AddVM(cluster.VMID(100+i), 1024, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := agents[0].AddVM(1, 1024, map[cluster.VMID]float64{100: 50}); err != nil {
		t.Fatal(err)
	}
	if topo.RackOf(3) != topo.RackOf(2) || topo.RackOf(0) == topo.RackOf(2) {
		t.Fatal("fixture: host 3 must be host 2's rack-mate, host 0 outside that rack")
	}
	ev := agents[0].decide(1, vmRecord{ramMB: 1024, rates: []traffic.Edge{{Peer: 100, Rate: 50}}})
	// Host 2 refuses the capacity probe; the rest of its rack still puts
	// the pair at level 1 (Section V-B5).
	if !ev.Migrated || ev.Target != 3 {
		t.Fatalf("decision %+v, want a move to host 2's rack-mate, host 3", ev)
	}
	if vms := agents[3].VMs(); len(vms) != 1 || vms[0] != 1 {
		t.Fatalf("host 3 holds %v, want VM 1", vms)
	}
}

// TestAgentRejectsOverCapacityAdd: a dom0 (4 slots, 8192 MB) adopts VMs
// in order until one does not fit — out of slots, or out of RAM — which
// it refuses with cluster.ErrNoCapacity, and its capacity response still
// reports the room the adopted VMs left.
func TestAgentRejectsOverCapacityAdd(t *testing.T) {
	for _, tc := range []struct {
		name  string
		ramMB []int // the last VM is the one refused
	}{
		{"slot", []int{512, 512, 512, 512, 512}},
		{"RAM", []int{6144, 6144}},
	} {
		_, agents, _ := buildAgents(t, 2)
		last, used := len(tc.ramMB)-1, 0
		for i, ram := range tc.ramMB[:last] {
			if err := agents[0].AddVM(cluster.VMID(i), ram, nil); err != nil {
				t.Fatal(err)
			}
			used += ram
		}
		if err := agents[0].AddVM(99, tc.ramMB[last], nil); !errors.Is(err, cluster.ErrNoCapacity) {
			t.Fatalf("%s-overflow AddVM: err = %v, want ErrNoCapacity", tc.name, err)
		}
		resp, err := agents[1].rq.request(agents[0].Addr(), Message{Type: MsgCapacityReq})
		if err != nil {
			t.Fatal(err)
		}
		if int(resp.FreeSlots) != 4-last || int(resp.FreeRAMMB) != 8192-used {
			t.Fatalf("%s overflow: capacity response %d slots, %d MB; want %d, %d", tc.name, resp.FreeSlots, resp.FreeRAMMB, 4-last, 8192-used)
		}
	}
}

// TestRegistryRefusesRebindingAddress: an address serves one host. The
// registry refuses to bind it to a second, and so does the Start of an
// agent whose transport has it; binding it to its own host again is fine.
func TestRegistryRefusesRebindingAddress(t *testing.T) {
	reg, agents, topo := buildAgents(t, 2)
	addr := agents[0].Addr()
	if err := reg.AssignHost(0, addr); err != nil {
		t.Fatalf("re-binding %s to its own host: %v", addr, err)
	}
	if err := reg.AssignHost(1, addr); err == nil {
		t.Fatalf("binding %s, which serves host 0, to host 1 was accepted", addr)
	}
	cm, err := core.NewCostModel(core.PaperWeights()...)
	if err != nil {
		t.Fatal(err)
	}
	ag, err := NewAgent(AgentConfig{HostID: 2, Slots: 4, RAMMB: 8192, Topo: topo, Cost: cm, Policy: token.RoundRobin{}}, reg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ag.Close() })
	// A hub of its own lends the agent host 0's address.
	if err := ag.Start(func(h Handler) (Transport, error) { return NewMemHub().NewEndpoint(addr, h) }); err == nil {
		t.Fatalf("agent for host 2 started on %s, which serves host 0", addr)
	}
	if a, ok := reg.HostAddr(1); ok && a == addr {
		t.Fatal("refused binding changed the host directory")
	}
	if _, ok := reg.HostAddr(2); ok {
		t.Fatal("refused Start registered host 2")
	}
}
