package hypervisor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/score-dc/score/internal/cluster"
	"github.com/score-dc/score/internal/core"
	"github.com/score-dc/score/internal/obs"
	"github.com/score-dc/score/internal/shard"
	"github.com/score-dc/score/internal/token"
	"github.com/score-dc/score/internal/topology"
	"github.com/score-dc/score/internal/traffic"
)

func TestRingStateRoundTrip(t *testing.T) {
	st := &RingState{
		Shard: 3, Round: 7, Attempt: 2, Hops: 12, Limit: 40,
		Token: token.NewAtLevel([]cluster.VMID{1, 5, 9}, 3).Encode(),
		Staged: []StagedMove{
			{VM: 5, From: 2, To: 4, Delta: 123.456789, RAMMB: 1024,
				Rates: []traffic.Edge{{Peer: 1, Rate: 10.5}, {Peer: 9, Rate: 0.25}}},
			{VM: 9, From: 8, To: 4, Delta: -1.5, RAMMB: 512, Rates: nil},
		},
		Proposals: []StagedMove{
			{VM: 1, From: 0, To: 15, Delta: math.Pi, RAMMB: 2048,
				Rates: []traffic.Edge{{Peer: 5, Rate: 99}}},
		},
	}
	got, err := DecodeRingState(st.Encode())
	if err != nil {
		t.Fatalf("DecodeRingState: %v", err)
	}
	if got.Shard != st.Shard || got.Round != st.Round || got.Attempt != st.Attempt ||
		got.Hops != st.Hops || got.Limit != st.Limit {
		t.Fatalf("header mismatch: %+v vs %+v", got, st)
	}
	if string(got.Token) != string(st.Token) {
		t.Fatal("token bytes mismatch")
	}
	check := func(name string, a, b []StagedMove) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: %d vs %d moves", name, len(a), len(b))
		}
		for i := range a {
			if a[i].VM != b[i].VM || a[i].From != b[i].From || a[i].To != b[i].To ||
				math.Float64bits(a[i].Delta) != math.Float64bits(b[i].Delta) || a[i].RAMMB != b[i].RAMMB {
				t.Fatalf("%s[%d]: %+v vs %+v", name, i, a[i], b[i])
			}
			if len(a[i].Rates) != len(b[i].Rates) {
				t.Fatalf("%s[%d]: rate row length", name, i)
			}
			for j := range a[i].Rates {
				if a[i].Rates[j].Peer != b[i].Rates[j].Peer ||
					math.Abs(a[i].Rates[j].Rate-b[i].Rates[j].Rate) > 1e-6 {
					t.Fatalf("%s[%d] rate %d: %+v vs %+v", name, i, j, a[i].Rates[j], b[i].Rates[j])
				}
			}
		}
	}
	check("staged", got.Staged, st.Staged)
	check("proposals", got.Proposals, st.Proposals)
	if _, err := DecodeRingState(st.Encode()[:10]); err == nil {
		t.Fatal("truncated ring state accepted")
	}
}

func TestShardAssignmentRoundTrip(t *testing.T) {
	a := &ShardAssignment{Round: 9, Shards: 4, ReconcilerAddr: "recon-1",
		HostShard: []int32{0, 0, 1, 1, 2, 2, 3, 3}}
	got, err := DecodeShardAssignment(a.Encode())
	if err != nil {
		t.Fatalf("DecodeShardAssignment: %v", err)
	}
	if got.Round != a.Round || got.Shards != a.Shards || got.ReconcilerAddr != a.ReconcilerAddr {
		t.Fatalf("header mismatch: %+v", got)
	}
	for h, s := range a.HostShard {
		if got.HostShard[h] != s {
			t.Fatalf("HostShard[%d] = %d, want %d", h, got.HostShard[h], s)
		}
	}
	if got.ShardOfHost(-1) != 0 || got.ShardOfHost(99) != 3 || got.ShardOfHost(2) != 1 {
		t.Fatal("ShardOfHost conventions broken")
	}
	if _, err := DecodeShardAssignment(a.Encode()[:6]); err == nil {
		t.Fatal("truncated assignment accepted")
	}
}

// shardPlane is a fully wired distributed plane plus an engine mirror
// built on the identical instance (for cost accounting only — the
// engine takes no decisions).
type shardPlane struct {
	topo   topology.Topology
	reg    *Registry
	agents []*Agent
	rec    *Reconciler
	eng    *core.Engine
	// tcps collects the raw TCP transports of a planeOpts.tcp plane, for
	// pool statistics.
	tcps []*TCPTransport
}

// finalPlacement reads VM→host off the agents.
func (p *shardPlane) finalPlacement() map[cluster.VMID]cluster.HostID {
	out := make(map[cluster.VMID]cluster.HostID)
	for _, a := range p.agents {
		for _, vm := range a.VMs() {
			out[vm] = a.HostID()
		}
	}
	return out
}

// planeOpts tunes a test plane beyond the healthy defaults: a shared
// fault plan wrapping every endpoint's transport, and the short timeouts
// chaos tests need so recovery happens in test time.
type planeOpts struct {
	faults        *FaultPlan
	probeTimeout  time.Duration
	shardDeadline time.Duration
	evictAttempts int
	// tcp runs every endpoint on a real loopback TCPTransport instead
	// of the in-memory hub; tcpCfg tunes its pool.
	tcp    bool
	tcpCfg TCPConfig
	// adaptive derives per-shard deadlines from observed ack latency.
	adaptive bool
	// metrics, trace and audit attach the observability plane to the
	// reconciler.
	metrics *PlaneMetrics
	trace   *obs.Tracer
	audit   *obs.AuditRing
	// wrapRec, when set, wraps the reconciler's transport (outside any
	// fault wrapper).
	wrapRec func(Transport) Transport
}

// buildShardPlane assembles a fat-tree instance with hotspot traffic and
// one dom0 agent per host; shards <= 0 skips the reconciler (global-ring
// reference planes).
func buildShardPlane(t testing.TB, k int, seed int64, scale float64, shards int, pol token.Policy) *shardPlane {
	t.Helper()
	return buildShardPlaneOpts(t, k, seed, scale, shards, pol, planeOpts{})
}

// buildShardPlaneOpts is buildShardPlane with chaos knobs.
func buildShardPlaneOpts(t testing.TB, k int, seed int64, scale float64, shards int, pol token.Policy, o planeOpts) *shardPlane {
	t.Helper()
	topo, err := topology.NewFatTree(k, 1000)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(cluster.UniformHosts(topo.Hosts(), 8, 32768, 1000))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	pm := cluster.NewPlacementManager(cl, 0x0a000001)
	for i := 0; i < topo.Hosts()*4; i++ {
		if _, err := pm.CreateVM(1024); err != nil {
			t.Fatal(err)
		}
	}
	if err := pm.PlaceRandom(rng); err != nil {
		t.Fatal(err)
	}
	tm, err := traffic.Generate(traffic.DefaultGenConfig(topo.Racks()), topo, cl, rng)
	if err != nil {
		t.Fatal(err)
	}
	if scale != 1 {
		tm = tm.Scaled(scale)
	}
	cm, err := core.NewCostModel(core.PaperWeights()...)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(topo, cm, cl, tm, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	p := &shardPlane{topo: topo, reg: NewRegistry(), eng: eng}
	hub := NewMemHub()
	mk := func(addr string) func(Handler) (Transport, error) {
		return func(h Handler) (Transport, error) {
			var tr Transport
			var err error
			if o.tcp {
				tcp, terr := NewTCPTransportConfig("127.0.0.1:0", h, o.tcpCfg)
				if terr == nil {
					p.tcps = append(p.tcps, tcp)
				}
				tr, err = tcp, terr
			} else {
				tr, err = hub.NewEndpoint(addr, h)
			}
			if err != nil || o.faults == nil {
				return tr, err
			}
			return o.faults.Wrap(tr), nil
		}
	}
	for h := 0; h < topo.Hosts(); h++ {
		ag, err := NewAgent(AgentConfig{
			HostID: cluster.HostID(h), Slots: 8, RAMMB: 32768,
			Topo: topo, Cost: cm, Policy: pol,
			ProbeTimeout: o.probeTimeout,
		}, p.reg)
		if err != nil {
			t.Fatal(err)
		}
		if err := ag.Start(mk(fmt.Sprintf("dom0-%d", h))); err != nil {
			t.Fatal(err)
		}
		p.agents = append(p.agents, ag)
	}
	for _, vm := range cl.VMs() {
		h := cl.HostOf(vm)
		rates := make(map[cluster.VMID]float64)
		for _, ed := range tm.NeighborEdges(vm) {
			rates[ed.Peer] = ed.Rate
		}
		if err := p.agents[h].AddVM(vm, 1024, rates); err != nil {
			t.Fatal(err)
		}
	}
	if shards > 0 {
		rec, err := NewReconciler(ReconcilerConfig{
			Topo: topo, Cost: cm, Shards: shards, Granularity: shard.ByPod,
			ProbeTimeout:     o.probeTimeout,
			ShardDeadline:    o.shardDeadline,
			EvictAttempts:    o.evictAttempts,
			AdaptiveDeadline: o.adaptive,
			Metrics:          o.metrics,
			Trace:            o.trace,
			Audit:            o.audit,
		}, p.reg)
		if err != nil {
			t.Fatal(err)
		}
		if err := rec.Start(func(h Handler) (Transport, error) {
			tr, err := mk("reconciler")(h)
			if err != nil || o.wrapRec == nil {
				return tr, err
			}
			return o.wrapRec(tr), nil
		}); err != nil {
			t.Fatal(err)
		}
		p.rec = rec
	}
	t.Cleanup(func() {
		if p.rec != nil {
			_ = p.rec.Close()
		}
		for _, a := range p.agents {
			_ = a.Close()
		}
	})
	return p
}

// globalRingPasses runs the existing global agent ring as the serial
// reference, structured into rounds to match the sharded mode: each pass
// injects a fresh optimistically-leveled token at the lowest VM, runs
// |V| visits with immediate execution, and passes repeat until one
// migrates nothing. Returns every migration in execution order.
func globalRingPasses(t *testing.T, p *shardPlane) []core.Decision {
	t.Helper()
	var all []core.Decision
	vms := p.eng.Cluster().VMs()
	depth := uint8(p.topo.Depth())
	for pass := 0; pass < 64; pass++ {
		var mu sync.Mutex
		var passMigs []core.Decision
		visits := 0
		done := make(chan struct{})
		for _, ag := range p.agents {
			ag.OnToken = func(ev TokenEvent) bool {
				mu.Lock()
				defer mu.Unlock()
				if ev.Migrated {
					passMigs = append(passMigs, core.Decision{VM: ev.Holder, From: ev.From, Target: ev.Target, Delta: ev.Delta})
				}
				visits++
				if visits >= len(vms) {
					close(done)
					return false
				}
				return true
			}
		}
		first := vms[0]
		addr, ok := p.reg.Lookup(first)
		if !ok {
			t.Fatalf("pass %d: VM %d unregistered", pass, first)
		}
		var injector *Agent
		for _, ag := range p.agents {
			if ag.Addr() == addr {
				injector = ag
			}
		}
		tok := token.NewAtLevel(vms, depth)
		if err := injector.InjectToken(tok, first); err != nil {
			t.Fatal(err)
		}
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("pass %d stalled", pass)
		}
		if len(passMigs) == 0 {
			return all
		}
		all = append(all, passMigs...)
	}
	t.Fatal("global ring did not quiesce in 64 passes")
	return nil
}

// distributedRounds runs reconciler rounds to quiescence, returning the
// concatenated applied migrations.
func distributedRounds(t *testing.T, p *shardPlane) ([]core.Decision, []*RoundReport) {
	t.Helper()
	var all []core.Decision
	var reports []*RoundReport
	for round := 0; round < 64; round++ {
		rep, err := p.rec.RunRound()
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, rep)
		all = append(all, rep.Applied...)
		if len(rep.Applied) == 0 {
			return all, reports
		}
	}
	t.Fatal("distributed rounds did not quiesce in 64 rounds")
	return nil, nil
}

// TestDistributedSingleShardMatchesGlobalRing: acceptance criterion —
// with one shard, the staged ring plus reconciler merge must reproduce
// the global agent ring's migration sequence bit for bit (same VMs, same
// hosts, same ΔC floats) and land every VM on the identical host.
func TestDistributedSingleShardMatchesGlobalRing(t *testing.T) {
	for _, pol := range []token.Policy{token.RoundRobin{}, token.HighestLevelFirst{}} {
		ref := buildShardPlane(t, 4, 7, 10, 0, pol)
		want := globalRingPasses(t, ref)
		if len(want) == 0 {
			t.Fatalf("%s: reference produced no migrations; test vacuous", pol.Name())
		}

		dist := buildShardPlane(t, 4, 7, 10, 1, pol)
		got, reports := distributedRounds(t, dist)
		if len(got) != len(want) {
			t.Fatalf("%s: distributed 1-shard applied %d migrations, global ring %d",
				pol.Name(), len(got), len(want))
		}
		for i := range want {
			if got[i].VM != want[i].VM || got[i].From != want[i].From || got[i].Target != want[i].Target ||
				math.Float64bits(got[i].Delta) != math.Float64bits(want[i].Delta) {
				t.Fatalf("%s: decision %d diverged:\n distributed %+v\n global     %+v",
					pol.Name(), i, got[i], want[i])
			}
		}
		for _, rep := range reports {
			if rep.CrossApplied+rep.CrossRejected != 0 {
				t.Fatalf("%s: single shard produced cross-shard proposals", pol.Name())
			}
			if rep.StaleRejected != 0 {
				t.Fatalf("%s: single-shard merge re-check fired %d times", pol.Name(), rep.StaleRejected)
			}
		}
		refPlace, distPlace := ref.finalPlacement(), dist.finalPlacement()
		if len(refPlace) != len(distPlace) {
			t.Fatalf("%s: placement cardinality differs", pol.Name())
		}
		for vm, h := range refPlace {
			if distPlace[vm] != h {
				t.Fatalf("%s: VM %d at host %d distributed vs %d global", pol.Name(), vm, distPlace[vm], h)
			}
		}
	}
}

// TestAgentRoundsMatchCoordinator: the dom0 agents decide through core's
// rule. On each fixture, fault-free 1-shard agent rounds run to
// quiescence apply the moves 1-shard shard.Coordinator rounds apply to
// the same instance — VM, source, target and ΔC to the bit, in order —
// and end in the same placement. The agent plane admits on slots and RAM
// alone, so the coordinator runs with bandwidth admission off on hosts
// with no CPU capacity.
func TestAgentRoundsMatchCoordinator(t *testing.T) {
	for _, fx := range []struct {
		k    int
		seed int64
	}{{4, 7}, {4, 23}, {6, 7}} {
		name := fmt.Sprintf("k=%d seed=%d", fx.k, fx.seed)
		p := buildShardPlane(t, fx.k, fx.seed, 10, 1, token.HighestLevelFirst{})
		cl := p.eng.Cluster().Clone()
		for h := 0; h < cl.NumHosts(); h++ {
			if host, _ := cl.Host(cluster.HostID(h)); host.CPUMilli != 0 {
				t.Fatalf("%s: host %d has CPU capacity, which the agent plane does not admit on", name, h)
			}
		}
		eng, err := core.NewEngine(p.topo, p.eng.CostModel(), cl, p.eng.Traffic(), core.Config{BandwidthThreshold: 0})
		if err != nil {
			t.Fatal(err)
		}
		coord, err := shard.NewCoordinator(eng, shard.Config{Shards: 1, Granularity: shard.ByPod})
		if err != nil {
			t.Fatal(err)
		}
		var want []core.Decision
		for round := 0; ; round++ {
			if round == 64 {
				t.Fatalf("%s: coordinator rounds did not quiesce in 64 rounds", name)
			}
			r, err := coord.RunRound()
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, r.Applied...)
			if len(r.Applied) == 0 {
				break
			}
		}
		if len(want) == 0 {
			t.Fatalf("%s: coordinator applied nothing; test vacuous", name)
		}

		got, _ := distributedRounds(t, p)
		for i := 0; i < len(got) && i < len(want); i++ {
			if got[i].VM != want[i].VM || got[i].From != want[i].From || got[i].Target != want[i].Target ||
				math.Float64bits(got[i].Delta) != math.Float64bits(want[i].Delta) {
				t.Fatalf("%s: decision %d diverged:\n agents      %+v\n coordinator %+v", name, i, got[i], want[i])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%s: agents applied %d moves, coordinator %d", name, len(got), len(want))
		}
		for vm, h := range p.finalPlacement() {
			if cl.HostOf(vm) != h {
				t.Fatalf("%s: VM %d on host %d at the agents, %d at the coordinator", name, vm, h, cl.HostOf(vm))
			}
		}
	}
}

// TestAgentRoundsMatchCoordinatorSharded: with several pod-aligned shards
// the two planes still run one round — the same partition, the same rings
// walked in ID order against frozen round-start state, the same merge. On
// each fixture, fault-free agent rounds run to quiescence equal
// shard.Coordinator rounds (bandwidth admission off, as the agent plane
// admits on slots and RAM alone): round for round — count, stale and
// cross-shard tallies, ring hops — move for move to the bit, and in the
// final placement.
func TestAgentRoundsMatchCoordinatorSharded(t *testing.T) {
	type roundSig struct {
		stale, crossOK, crossNo, ringHops, totalHops int
	}
	for _, fx := range []struct {
		k    int
		seed int64
	}{{4, 7}, {4, 23}, {6, 7}, {8, 3}} {
		for _, shards := range []int{2, 4} {
			name := fmt.Sprintf("k=%d seed=%d shards=%d", fx.k, fx.seed, shards)
			p := buildShardPlane(t, fx.k, fx.seed, 10, shards, token.HighestLevelFirst{})
			cl := p.eng.Cluster().Clone()
			eng, err := core.NewEngine(p.topo, p.eng.CostModel(), cl, p.eng.Traffic(), core.Config{BandwidthThreshold: 0})
			if err != nil {
				t.Fatal(err)
			}
			coord, err := shard.NewCoordinator(eng, shard.Config{Shards: shards, Granularity: shard.ByPod})
			if err != nil {
				t.Fatal(err)
			}
			var want []core.Decision
			var wantRounds []roundSig
			for round := 0; ; round++ {
				if round == 64 {
					t.Fatalf("%s: coordinator rounds did not quiesce in 64 rounds", name)
				}
				r, err := coord.RunRound()
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, r.Applied...)
				wantRounds = append(wantRounds, roundSig{r.StaleRejected, r.CrossApplied, r.CrossRejected, r.RingHops, r.TotalHops})
				if len(r.Applied) == 0 {
					break
				}
			}
			if len(want) == 0 {
				t.Fatalf("%s: coordinator applied nothing; test vacuous", name)
			}

			got, reports := distributedRounds(t, p)
			if len(reports) != len(wantRounds) {
				t.Fatalf("%s: agents ran %d rounds, coordinator %d", name, len(reports), len(wantRounds))
			}
			for i, rep := range reports {
				sig := roundSig{rep.StaleRejected, rep.CrossApplied, rep.CrossRejected, rep.RingHops, rep.TotalHops}
				if sig != wantRounds[i] {
					t.Fatalf("%s: round %d diverged:\n agents      %+v\n coordinator %+v", name, i+1, sig, wantRounds[i])
				}
			}
			for i := 0; i < len(got) && i < len(want); i++ {
				if got[i].VM != want[i].VM || got[i].From != want[i].From || got[i].Target != want[i].Target ||
					math.Float64bits(got[i].Delta) != math.Float64bits(want[i].Delta) {
					t.Fatalf("%s: decision %d diverged:\n agents      %+v\n coordinator %+v", name, i, got[i], want[i])
				}
			}
			if len(got) != len(want) {
				t.Fatalf("%s: agents applied %d moves, coordinator %d", name, len(got), len(want))
			}
			for vm, h := range p.finalPlacement() {
				if cl.HostOf(vm) != h {
					t.Fatalf("%s: VM %d on host %d at the agents, %d at the coordinator", name, vm, h, cl.HostOf(vm))
				}
			}
			t.Logf("%s: %d moves in %d rounds", name, len(want), len(wantRounds))
		}
	}
}

// fingerprintReports serializes a distributed run's observable output.
func fingerprintReports(reports []*RoundReport, place map[cluster.VMID]cluster.HostID) string {
	out := ""
	for _, rep := range reports {
		out += fmt.Sprintf("round %d hops=%d/%d cross=%d/%d stale=%d\n",
			rep.Number, rep.RingHops, rep.TotalHops, rep.CrossApplied, rep.CrossRejected, rep.StaleRejected)
		for _, ring := range rep.Rings {
			out += fmt.Sprintf("  ring %d vms=%d hops=%d s=%d m=%d p=%d\n",
				ring.Shard, ring.VMs, ring.Hops, ring.Committed, ring.Merged, ring.Proposed)
		}
		for _, d := range rep.Applied {
			out += fmt.Sprintf("  vm %d: %d->%d delta=%x\n", d.VM, d.From, d.Target, math.Float64bits(d.Delta))
		}
	}
	ids := make([]cluster.VMID, 0, len(place))
	for vm := range place {
		ids = append(ids, vm)
	}
	for i := range ids {
		for j := i + 1; j < len(ids); j++ {
			if ids[j] < ids[i] {
				ids[i], ids[j] = ids[j], ids[i]
			}
		}
	}
	for _, vm := range ids {
		out += fmt.Sprintf("%d@%d ", vm, place[vm])
	}
	return out
}

// TestDistributedShardedDeterministic: multi-shard distributed rounds
// must produce byte-identical output for any GOMAXPROCS, even though
// the rings exchange live probe traffic concurrently.
func TestDistributedShardedDeterministic(t *testing.T) {
	run := func(procs int) string {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		p := buildShardPlane(t, 4, 23, 10, 4, token.HighestLevelFirst{})
		applied, reports := distributedRounds(t, p)
		if len(applied) == 0 {
			t.Fatal("fixture produced no migrations; determinism test vacuous")
		}
		return fingerprintReports(reports, p.finalPlacement())
	}
	base := run(1)
	for _, procs := range []int{4, 8} {
		if got := run(procs); got != base {
			t.Fatalf("distributed sharded output differs between GOMAXPROCS=1 and %d", procs)
		}
	}
}

// TestDistributedReconcilerTheorem1: every reconciler-committed move
// must lower the global cost — verified against an engine mirror that
// replays the committed sequence, and cross-checked against the ΔC the
// reconciler re-validated.
func TestDistributedReconcilerTheorem1(t *testing.T) {
	p := buildShardPlane(t, 4, 11, 10, 4, token.HighestLevelFirst{})
	applied, _ := distributedRounds(t, p)
	if len(applied) == 0 {
		t.Fatal("no migrations; test vacuous")
	}
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
			t.Fatalf("move %d: realized reduction %v vs reconciler ΔC %v (rel %v)",
				i, cost-next, d.Delta, rel)
		}
		cost = next
	}
	// The mirror must agree with the agents on every final location.
	for vm, h := range p.finalPlacement() {
		if got := cl.HostOf(vm); got != h {
			t.Fatalf("mirror has VM %d on host %d, agents on %d", vm, got, h)
		}
	}
}

// TestShardedLocationCacheInvalidation: a migration committed by shard
// A's ring must invalidate location-cache entries held by an agent
// working for shard B's ring before that agent's next probe — the
// registry no longer names the dom0 that answered the original probe,
// so the entry is dropped regardless of its live TTL.
func TestShardedLocationCacheInvalidation(t *testing.T) {
	p := buildShardPlane(t, 4, 7, 10, 4, token.HighestLevelFirst{})

	// Pick an agent in the last shard and warm its cache with the
	// locations of every VM in shard 0.
	probe := p.agents[len(p.agents)-1]
	part, err := shard.NewPartition(p.topo, p.eng.Cluster(), shard.ByPod, 4)
	if err != nil {
		t.Fatal(err)
	}
	before := make(map[cluster.VMID]cluster.HostID)
	for _, vm := range part.VMs(0) {
		h, ok := probe.locate(vm)
		if !ok {
			t.Fatalf("warmup locate of VM %d failed", vm)
		}
		before[vm] = h
	}
	// Push every entry's expiry an hour out, so the entries stay live
	// across the whole round and only invalidation can drop them.
	probe.mu.Lock()
	for vm, ent := range probe.locCache {
		ent.expires = time.Now().Add(time.Hour)
		probe.locCache[vm] = ent
	}
	probe.mu.Unlock()

	applied, _ := distributedRounds(t, p)
	moved := make(map[cluster.VMID]bool)
	for _, d := range applied {
		moved[d.VM] = true
	}
	if len(moved) == 0 {
		t.Fatal("no migrations; invalidation test vacuous")
	}

	// Every cached VM that migrated must resolve to its *new* host on
	// the next probe despite the hour-long TTL; unmoved VMs still serve
	// from cache.
	place := p.finalPlacement()
	checked := 0
	for vm := range before {
		h, ok := probe.locate(vm)
		if !ok {
			t.Fatalf("post-round locate of VM %d failed", vm)
		}
		if h != place[vm] {
			t.Fatalf("VM %d: cached probe answered host %d, agents have it on %d", vm, h, place[vm])
		}
		if moved[vm] {
			checked++
		}
	}
	if checked == 0 {
		t.Skip("no cached shard-0 VM migrated this seed; invalidation path unexercised")
	}
}

// TestDistributedFourShardNearSerial: acceptance criterion — on the
// fat-tree k=8 dense instance, the 4-shard distributed plane's final
// cost reduction must come within 15% of the serial (1-shard) ring's.
func TestDistributedFourShardNearSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("k=8 dense plane is heavy; skipped with -short")
	}
	reduction := func(shards int) float64 {
		p := buildShardPlane(t, 8, 20140630, 50, shards, token.HighestLevelFirst{})
		initial := p.eng.TotalCost()
		applied, _ := distributedRounds(t, p)
		cl := p.eng.Cluster()
		for _, d := range applied {
			if err := cl.Move(d.VM, d.Target); err != nil {
				t.Fatalf("mirror replay: %v", err)
			}
		}
		final := p.eng.TotalCost()
		if final >= initial {
			t.Fatalf("%d-shard plane did not reduce cost: %v -> %v", shards, initial, final)
		}
		return (initial - final) / initial
	}
	serial := reduction(1)
	sharded := reduction(4)
	if sharded < 0.85*serial {
		t.Fatalf("4-shard reduction %.1f%% captures under 85%% of serial %.1f%%",
			100*sharded, 100*serial)
	}
}

// capCounter counts the capacity probes sent through the transport it
// wraps.
type capCounter struct {
	Transport
	n atomic.Int64
}

func (c *capCounter) Send(to string, m Message) error {
	if m.Type == MsgCapacityReq {
		c.n.Add(1)
	}
	return c.Transport.Send(to, m)
}

// TestMergeProbesEachTargetOnce: the reconciler probes the capacity of
// every distinct target of the round's commits and proposals in one wave
// before the merge, and the merge answers every Admissible from that cache
// and the commits it folds in. On a fault-free 4-shard round no commit
// fails, so no entry is dropped and re-probed: the reconciler's probe count
// equals the distinct targets its audit records name.
func TestMergeProbesEachTargetOnce(t *testing.T) {
	ar := obs.NewAuditRing(1 << 12)
	cc := &capCounter{}
	p := buildShardPlaneOpts(t, 4, 7, 10, 4, token.HighestLevelFirst{}, planeOpts{
		audit: ar,
		wrapRec: func(tr Transport) Transport {
			cc.Transport = tr
			return cc
		},
	})
	rep, err := p.rec.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Evicted) != 0 || rep.Regenerated != 0 {
		t.Fatalf("fault-free round evicted %v and regenerated %d rings", rep.Evicted, rep.Regenerated)
	}
	targets := make(map[int32]bool)
	recs := ar.Snapshot()
	for _, r := range recs {
		targets[r.To] = true
	}
	if len(rep.Applied) == 0 || rep.CrossApplied+rep.CrossRejected == 0 {
		t.Fatalf("round applied %d moves over %d proposals; the merge is not exercised", len(rep.Applied), rep.CrossApplied+rep.CrossRejected)
	}
	if got := cc.n.Load(); got != int64(len(targets)) {
		t.Fatalf("reconciler sent %d capacity probes for %d distinct targets over %d decisions", got, len(targets), len(recs))
	}
	t.Logf("%d capacity probes for %d decisions", cc.n.Load(), len(recs))
}
