package hypervisor

import (
	"math"
	"sync"
	"testing"
	"time"

	"github.com/score-dc/score/internal/cluster"
	"github.com/score-dc/score/internal/core"
	"github.com/score-dc/score/internal/token"
	"github.com/score-dc/score/internal/topology"
)

// TestChaosTokenLossRecovers is the headline acceptance test: with a
// deterministic schedule dropping every 12th shard-token hop (8.3% ≥ the
// 5% floor) on a 4-shard distributed round, every round must still
// complete through reconciler-driven ring regeneration — no round-level
// timeout — with every committed move re-validated to lower the mirror
// cost, and the reports must count the re-injected tokens.
func TestChaosTokenLossRecovers(t *testing.T) {
	plan := NewFaultPlan(FaultConfig{
		Seed:      42,
		DropEvery: 12,
		Types:     []MsgType{MsgShardToken},
	})
	p := buildShardPlaneOpts(t, 4, 7, 10, 4, token.HighestLevelFirst{}, planeOpts{
		faults:        plan,
		shardDeadline: 50 * time.Millisecond,
	})
	applied, reports := distributedRounds(t, p)
	if len(applied) == 0 {
		t.Fatal("no migrations; chaos test vacuous")
	}

	st := plan.Stats()
	if st.Dropped == 0 {
		t.Fatal("fault plan dropped nothing; loss injection inert")
	}
	if ratio := float64(st.Dropped) / float64(st.Eligible); ratio < 0.05 {
		t.Fatalf("dropped %d of %d shard-token hops (%.1f%%), below the 5%% floor",
			st.Dropped, st.Eligible, 100*ratio)
	}
	regen, recovered := 0, 0
	for _, rep := range reports {
		regen += rep.Regenerated
		recovered += rep.Recovered
		for _, ring := range rep.Rings {
			if ring.Regenerated > 0 && ring.Hops == 0 {
				t.Fatalf("round %d shard %d regenerated %d times but recorded no hops",
					rep.Number, ring.Shard, ring.Regenerated)
			}
		}
	}
	if regen == 0 || recovered == 0 {
		t.Fatalf("token loss injected (%d drops) but reports show %d re-injections, %d recovered rings",
			st.Dropped, regen, recovered)
	}

	// Theorem 1 under fire: the committed sequence must replay cleanly
	// on the engine mirror, each move lowering the global cost by its
	// re-validated ΔC.
	cl := p.eng.Cluster()
	cost := p.eng.TotalCost()
	for i, d := range applied {
		if d.Delta <= 0 {
			t.Fatalf("move %d has non-improving ΔC %v", i, d.Delta)
		}
		if got := cl.HostOf(d.VM); got != d.From {
			t.Fatalf("move %d: mirror has VM %d on host %d, move claims %d", i, d.VM, got, d.From)
		}
		if err := cl.Move(d.VM, d.Target); err != nil {
			t.Fatalf("move %d: mirror replay: %v", i, err)
		}
		next := p.eng.TotalCost()
		if next >= cost {
			t.Fatalf("move %d did not lower global cost: %v -> %v", i, cost, next)
		}
		if rel := math.Abs((cost - next - d.Delta) / d.Delta); rel > 1e-6 {
			t.Fatalf("move %d: realized reduction %v vs reconciler ΔC %v", i, cost-next, d.Delta)
		}
		cost = next
	}
	// Exactly-once: the mirror and the agents agree on every placement,
	// so no regenerated ring double-applied a move.
	for vm, h := range p.finalPlacement() {
		if got := cl.HostOf(vm); got != h {
			t.Fatalf("mirror has VM %d on host %d, agents on %d", vm, got, h)
		}
	}
}

// TestChaosZeroFaultBitIdentical: with fault injection disabled, the
// FaultTransport-wrapped plane must produce byte-identical output to the
// unwrapped plane — the wrapper consumes no randomness and perturbs no
// ordering on the passthrough path.
func TestChaosZeroFaultBitIdentical(t *testing.T) {
	run := func(plan *FaultPlan) string {
		p := buildShardPlaneOpts(t, 4, 23, 10, 4, token.HighestLevelFirst{}, planeOpts{faults: plan})
		applied, reports := distributedRounds(t, p)
		if len(applied) == 0 {
			t.Fatal("fixture produced no migrations; identity test vacuous")
		}
		return fingerprintReports(reports, p.finalPlacement())
	}
	bare := run(nil)
	plan := NewFaultPlan(FaultConfig{Seed: 99})
	wrapped := run(plan)
	if bare != wrapped {
		t.Fatal("zero-fault FaultTransport plane diverged from the unwrapped plane")
	}
	if st := plan.Stats(); st != (FaultStats{}) {
		t.Fatalf("zero-fault plan intervened: %+v", st)
	}
}

// TestChaosAgentCrashEvicted: a dom0 that goes silent mid-round (full
// partition) must be evicted from its ring after repeated re-injections,
// its ring slots re-homed to the successor, and the round — plus the
// following rounds — must complete without it. Healing the partition
// readmits the host.
func TestChaosAgentCrashEvicted(t *testing.T) {
	plan := NewFaultPlan(FaultConfig{Seed: 5})
	p := buildShardPlaneOpts(t, 4, 11, 10, 4, token.RoundRobin{}, planeOpts{
		faults:        plan,
		probeTimeout:  25 * time.Millisecond,
		shardDeadline: 300 * time.Millisecond,
	})

	// Pick the victim: a shard-0 (pod 0) host with hosted VMs that is
	// not the ring's injection point, so the first visit happens before
	// the token ever needs the victim.
	firstVM := cluster.VMID(1 << 30)
	for h := 0; h < 4; h++ {
		for _, vm := range p.agents[h].VMs() {
			if vm < firstVM {
				firstVM = vm
			}
		}
	}
	firstHost, ok := p.reg.HostOfVM(firstVM)
	if !ok {
		t.Fatalf("injection VM %d unregistered", firstVM)
	}
	victim := cluster.HostID(-1)
	for h := cluster.HostID(0); h < 4; h++ {
		if h != firstHost && len(p.agents[h].VMs()) > 0 {
			victim = h
			break
		}
	}
	if victim < 0 {
		t.Skip("pod 0 concentrated on one host this seed; crash path unexercised")
	}
	victimAddr := p.agents[victim].Addr()
	victimVMs := make(map[cluster.VMID]cluster.HostID)
	for _, vm := range p.agents[victim].VMs() {
		victimVMs[vm] = victim
	}

	// Crash the victim at the ring's first shard-0 visit: everything to
	// and from its dom0 is silently dropped from then on — probes,
	// commits and tokens alike.
	var once sync.Once
	for _, ag := range p.agents {
		ag.OnShardToken = func(shard int, ev TokenEvent) {
			if shard == 0 {
				once.Do(func() { plan.Isolate(victimAddr) })
			}
		}
	}

	rep, err := p.rec.RunRound()
	if err != nil {
		t.Fatalf("crash round did not complete: %v", err)
	}
	evicted := false
	for _, h := range rep.Evicted {
		if h == victim {
			evicted = true
		}
	}
	if !evicted {
		t.Fatalf("victim host %d not evicted; evicted=%v regenerated=%d", victim, rep.Evicted, rep.Regenerated)
	}
	if rep.Regenerated == 0 {
		t.Fatal("crash recovery applied no token re-injection")
	}
	for _, d := range rep.Applied {
		if _, stranded := victimVMs[d.VM]; stranded {
			t.Fatalf("round moved VM %d stranded on the crashed host", d.VM)
		}
		if d.Target == victim {
			t.Fatalf("round committed a move onto the crashed host %d", victim)
		}
	}

	// The next round must route around the dead dom0 up front — it
	// cannot ack the shard assignment — rather than wedge the plane.
	rep2, err := p.rec.RunRound()
	if err != nil {
		t.Fatalf("post-crash round did not complete: %v", err)
	}
	evicted = false
	for _, h := range rep2.Evicted {
		if h == victim {
			evicted = true
		}
	}
	if !evicted {
		t.Fatalf("dead host %d not excluded from the post-crash round", victim)
	}

	// Heal: the host acks the next assignment and rejoins the plane.
	plan.Heal(victimAddr)
	rep3, err := p.rec.RunRound()
	if err != nil {
		t.Fatalf("healed round did not complete: %v", err)
	}
	for _, h := range rep3.Evicted {
		if h == victim {
			t.Fatalf("healed host %d still evicted", victim)
		}
	}
}

// TestChaosDropDupDelaySoak drives full quiescence under combined drop,
// duplicate and delay faults across every recovery-covered message type.
// Duplicated tokens fork rings (only the furthest fork is accepted),
// delayed frames arrive as stale-attempt stragglers, and lost completion
// reports regenerate from the reconciler's copy — the plane must still
// converge to a consistent, Theorem-1-clean placement.
func TestChaosDropDupDelaySoak(t *testing.T) {
	plan := NewFaultPlan(FaultConfig{
		Seed:      20140630,
		DropProb:  0.06,
		DupProb:   0.08,
		DelayProb: 0.08,
		Delay:     5 * time.Millisecond,
		Types:     []MsgType{MsgShardToken, MsgRingAck, MsgRingDone},
	})
	p := buildShardPlaneOpts(t, 4, 31, 10, 4, token.HighestLevelFirst{}, planeOpts{
		faults:        plan,
		shardDeadline: 60 * time.Millisecond,
	})
	applied, reports := distributedRounds(t, p)
	if len(applied) == 0 {
		t.Fatal("no migrations; soak vacuous")
	}
	cl := p.eng.Cluster()
	for i, d := range applied {
		if d.Delta <= 0 {
			t.Fatalf("move %d has non-improving ΔC %v", i, d.Delta)
		}
		if err := cl.Move(d.VM, d.Target); err != nil {
			t.Fatalf("move %d: mirror replay: %v (double-applied or misordered commit)", i, err)
		}
	}
	for vm, h := range p.finalPlacement() {
		if got := cl.HostOf(vm); got != h {
			t.Fatalf("mirror has VM %d on host %d, agents on %d", vm, got, h)
		}
	}
	if st := plan.Stats(); st.Dropped == 0 && st.Duplicated == 0 && st.Delayed == 0 {
		t.Fatalf("fault plan inert: %+v", st)
	}
	regen := 0
	for _, rep := range reports {
		regen += rep.Regenerated
	}
	t.Logf("soak: %d rounds, %d applied, %d re-injections, faults %+v",
		len(reports), len(applied), regen, plan.Stats())
}

// TestChaosCommitPathLossSurvives: loss on the commit path itself —
// MsgReconcileCommit, MsgMigrate and their responses — must not abort a
// round. Same-ReqID retries plus the agents' dedup replay recover lost
// frames, a move whose retries are exhausted is rejected (not fatal),
// and every move that does land replays Theorem-1-clean on the mirror.
func TestChaosCommitPathLossSurvives(t *testing.T) {
	plan := NewFaultPlan(FaultConfig{
		Seed:     77,
		DropProb: 0.15,
		Types:    []MsgType{MsgReconcileCommit, MsgReconcileResp, MsgMigrate, MsgMigrateAck},
	})
	p := buildShardPlaneOpts(t, 4, 7, 10, 4, token.HighestLevelFirst{}, planeOpts{
		faults:       plan,
		probeTimeout: 50 * time.Millisecond,
	})
	applied, _ := distributedRounds(t, p)
	if len(applied) == 0 {
		t.Fatal("no migrations survived commit-path loss; test vacuous")
	}
	if st := plan.Stats(); st.Dropped == 0 {
		t.Fatalf("fault plan inert: %+v", st)
	}
	cl := p.eng.Cluster()
	for i, d := range applied {
		if d.Delta <= 0 {
			t.Fatalf("move %d has non-improving ΔC %v", i, d.Delta)
		}
		if err := cl.Move(d.VM, d.Target); err != nil {
			t.Fatalf("move %d: mirror replay: %v", i, err)
		}
	}
	// No split brain: every VM has exactly one hosting dom0 and the
	// registry agrees with it, even where acks were lost.
	owners := make(map[cluster.VMID]cluster.HostID)
	for _, ag := range p.agents {
		for _, vm := range ag.VMs() {
			if prev, dup := owners[vm]; dup {
				t.Fatalf("VM %d recorded on both host %d and host %d", vm, prev, ag.HostID())
			}
			owners[vm] = ag.HostID()
		}
	}
	for vm, h := range owners {
		if got, ok := p.reg.HostOfVM(vm); !ok || got != h {
			t.Fatalf("registry has VM %d on host %v, agent records say %d", vm, got, h)
		}
	}
}

// TestCommitDuplicateSuppressed: a duplicated MsgReconcileCommit or
// MsgMigrate frame must not execute twice — the agent replays the
// recorded response instead (per-requester ReqIDs never legitimately
// repeat), so at-least-once delivery still yields exactly-once commits.
func TestCommitDuplicateSuppressed(t *testing.T) {
	hub := NewMemHub()
	reg := NewRegistry()
	mk := func(addr string) func(Handler) (Transport, error) {
		return func(h Handler) (Transport, error) { return hub.NewEndpoint(addr, h) }
	}
	topo, err := topology.NewFatTree(4, 1000)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := core.NewCostModel(core.PaperWeights()...)
	if err != nil {
		t.Fatal(err)
	}

	mkAgent := func(host cluster.HostID, addr string) *Agent {
		ag, err := NewAgent(AgentConfig{
			HostID: host, Slots: 8, RAMMB: 32768,
			Topo: topo, Cost: cm, Policy: token.RoundRobin{},
		}, reg)
		if err != nil {
			t.Fatal(err)
		}
		if err := ag.Start(mk(addr)); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = ag.Close() })
		return ag
	}
	src := mkAgent(0, "src")
	dst := mkAgent(1, "dst")
	if err := src.AddVM(1, 512, map[cluster.VMID]float64{2: 5}); err != nil {
		t.Fatal(err)
	}

	resps := make(chan Message, 8)
	probe, err := hub.NewEndpoint("probe", func(from string, m Message) { resps <- m })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = probe.Close() })

	commit := Message{Type: MsgReconcileCommit, ReqID: 7, VM: 1, Host: 1, ReplyTo: "probe", Payload: []byte("dst")}
	await := func(what string) Message {
		select {
		case m := <-resps:
			return m
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for %s", what)
			return Message{}
		}
	}
	if err := probe.Send("src", commit); err != nil {
		t.Fatal(err)
	}
	first := await("commit response")
	if first.Type != MsgReconcileResp || first.FreeSlots != 1 {
		t.Fatalf("commit failed: %+v", first)
	}
	if err := probe.Send("src", commit); err != nil {
		t.Fatal(err)
	}
	second := await("replayed commit response")
	if second.Type != first.Type || second.FreeSlots != first.FreeSlots || second.VM != first.VM || second.Host != first.Host {
		t.Fatalf("duplicate commit answered differently: %+v vs %+v", second, first)
	}
	if got := len(dst.VMs()); got != 1 {
		t.Fatalf("dst hosts %d VMs, want exactly 1", got)
	}
	if len(src.VMs()) != 0 {
		t.Fatal("src still hosts the migrated VM")
	}
	if addr, _ := reg.Lookup(1); addr != "dst" {
		t.Fatalf("registry points VM 1 at %q after duplicate commit", addr)
	}

	// Duplicate MsgMigrate: the raw transfer must not be re-adopted
	// either; the recorded ack is replayed.
	mig := Message{Type: MsgMigrate, ReqID: 9, VM: 5, RAMMB: 256, ReplyTo: "probe", Payload: EncodeRateEdges(nil)}
	if err := probe.Send("dst", mig); err != nil {
		t.Fatal(err)
	}
	ack1 := await("migrate ack")
	if ack1.Type != MsgMigrateAck {
		t.Fatalf("migrate rejected: %+v", ack1)
	}
	if err := probe.Send("dst", mig); err != nil {
		t.Fatal(err)
	}
	ack2 := await("replayed migrate ack")
	if ack2.Type != MsgMigrateAck || ack2.Host != ack1.Host || ack2.VM != ack1.VM {
		t.Fatalf("duplicate migrate answered differently: %+v vs %+v", ack2, ack1)
	}
	if got := len(dst.VMs()); got != 2 {
		t.Fatalf("dst hosts %d VMs after duplicate transfer, want 2", got)
	}
}
