package hypervisor

import (
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
	if err := b.Send("a", Message{Type: MsgLocationReq, VM: 1}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if m.Type != MsgLocationReq || m.VM != 1 {
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
			ProbeTimeout: 2 * time.Second,
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
	// Agent 0 probes VM 7's location through the registry + protocol.
	h, ok := agents[0].locate(7)
	if !ok || h != 2 {
		t.Fatalf("locate = %d,%v, want host 2", h, ok)
	}
	// Capacity probe against agent 2.
	resp, err := agents[0].request(agents[2].Addr(), Message{Type: MsgCapacityReq, VM: 7, RAMMB: 100})
	if err != nil {
		t.Fatal(err)
	}
	if resp.FreeSlots != 3 || resp.FreeRAMMB != 8192-1024 {
		t.Fatalf("capacity = %d slots, %d MB", resp.FreeSlots, resp.FreeRAMMB)
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
	ev := agents[0].decide(1, 1024, []traffic.Edge{{Peer: 100, Rate: 50}})
	// Host 2 refuses the capacity probe; the rest of its rack still puts
	// the pair at level 1 (Section V-B5).
	if !ev.Migrated || ev.Target != 3 {
		t.Fatalf("decision %+v, want a move to host 2's rack-mate, host 3", ev)
	}
	if vms := agents[3].VMs(); len(vms) != 1 || vms[0] != 1 {
		t.Fatalf("host 3 holds %v, want VM 1", vms)
	}
}

func TestAgentRejectsOverCapacityAdd(t *testing.T) {
	_, agents, _ := buildAgents(t, 2)
	for i := 0; i < 4; i++ {
		if err := agents[0].AddVM(cluster.VMID(i), 512, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := agents[0].AddVM(99, 512, nil); err == nil {
		t.Fatal("slot-overflow AddVM accepted")
	}
}

func TestLocationCacheAvoidsReprobes(t *testing.T) {
	_, agents, _ := buildAgents(t, 4)
	if err := agents[2].AddVM(7, 1024, nil); err != nil {
		t.Fatal(err)
	}
	if h, ok := agents[0].locate(7); !ok || h != 2 {
		t.Fatalf("locate = %d,%v, want host 2", h, ok)
	}
	// Poison the cached host: a second locate inside the TTL must serve
	// the poisoned value, proving no fresh probe happened.
	agents[0].mu.Lock()
	ent, ok := agents[0].locCache[7]
	if !ok {
		agents[0].mu.Unlock()
		t.Fatal("location probe did not populate the cache")
	}
	ent.host = 99
	agents[0].locCache[7] = ent
	agents[0].mu.Unlock()
	if h, _ := agents[0].locate(7); h != 99 {
		t.Fatalf("locate inside TTL = %d, want cached sentinel 99", h)
	}
	// Expire the entry: the next locate must re-probe and heal.
	agents[0].mu.Lock()
	ent = agents[0].locCache[7]
	ent.expires = time.Now().Add(-time.Second)
	agents[0].locCache[7] = ent
	agents[0].mu.Unlock()
	if h, ok := agents[0].locate(7); !ok || h != 2 {
		t.Fatalf("locate after expiry = %d,%v, want re-probed host 2", h, ok)
	}
}

func TestLocationCacheInvalidatedOnObservedMigration(t *testing.T) {
	_, agents, _ := buildAgents(t, 4)
	if err := agents[2].AddVM(7, 1024, nil); err != nil {
		t.Fatal(err)
	}
	if h, _ := agents[0].locate(7); h != 2 {
		t.Fatalf("initial locate = %d, want 2", h)
	}
	// The VM "migrates" to agent 3: the registry now names a different
	// dom0, so the cached entry must be dropped despite its live TTL.
	if err := agents[3].AddVM(7, 1024, nil); err != nil { // Assigns in registry
		t.Fatal(err)
	}
	if h, ok := agents[0].locate(7); !ok || h != 3 {
		t.Fatalf("locate after observed migration = %d,%v, want host 3", h, ok)
	}
}

func TestDecideUpdatesSourceCache(t *testing.T) {
	_, agents, topo := buildAgents(t, 8)
	if err := agents[0].AddVM(1, 1024, map[cluster.VMID]float64{2: 80}); err != nil {
		t.Fatal(err)
	}
	if err := agents[6].AddVM(2, 1024, map[cluster.VMID]float64{1: 80}); err != nil {
		t.Fatal(err)
	}
	ev := agents[0].decide(1, 1024, []traffic.Edge{{Peer: 2, Rate: 80}})
	if !ev.Migrated {
		t.Fatal("level-3 pair did not migrate")
	}
	// The source dom0 observed its own migration: its cache must name
	// the target without another probe.
	agents[0].mu.Lock()
	ent, ok := agents[0].locCache[1]
	agents[0].mu.Unlock()
	if !ok || ent.host != ev.Target {
		t.Fatalf("source cache for migrated VM = %+v,%v, want host %d", ent, ok, ev.Target)
	}
	if topo.Level(ev.Target, 6) > 1 {
		t.Fatalf("migration target %d not near peer host 6", ev.Target)
	}
}
