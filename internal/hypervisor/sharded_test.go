package hypervisor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
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
			{VM: 5, From: 2, To: 4, Delta: 123.456789, RAMMB: 1024, CPUMilli: 1500, NICFrom: 10.25, NICTo: -10.25,
				Rates: []traffic.Edge{{Peer: 1, Rate: 10.5}, {Peer: 9, Rate: 0.25}}},
			{VM: 9, From: 8, To: 4, Delta: -1.5, RAMMB: 512, Rates: nil},
		},
		Proposals: []StagedMove{
			{VM: 1, From: 0, To: 15, Delta: math.Pi, RAMMB: 2048, CPUMilli: 250, NICFrom: -99, NICTo: 99,
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
				math.Float64bits(a[i].Delta) != math.Float64bits(b[i].Delta) || a[i].RAMMB != b[i].RAMMB ||
				a[i].CPUMilli != b[i].CPUMilli || a[i].NICFrom != b[i].NICFrom || a[i].NICTo != b[i].NICTo {
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
// chaos tests need so recovery happens in test time (a zero probeTimeout
// or evictAttempts keeps the package's).
type planeOpts struct {
	faults        *FaultPlan
	probeTimeout  time.Duration
	shardDeadline time.Duration
	evictAttempts int
	// tcp runs every endpoint on a real loopback TCPTransport instead
	// of the in-memory hub.
	tcp bool
	// metrics, trace and audit attach the observability plane to the
	// reconciler.
	metrics *PlaneMetrics
	trace   *obs.Tracer
	audit   *obs.AuditRing
	// wrap, when set, wraps every endpoint's transport (outside any fault
	// wrapper); wrapRec wraps the reconciler's outside that.
	wrap, wrapRec func(Transport) Transport
}

// planeCPUMilli is the CPU capacity of buildShardPlane's hosts. Its VMs
// demand 500–2000 millicores, four per host on average, so CPU binds
// before the eight slots or the RAM do.
const planeCPUMilli = 6000

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
	hosts := cluster.UniformHosts(topo.Hosts(), 8, 32768, 1000)
	for i := range hosts {
		hosts[i].CPUMilli = planeCPUMilli
	}
	cl, err := cluster.New(hosts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < topo.Hosts()*4; i++ {
		vm := cluster.VM{ID: cluster.VMID(0x0a000001 + i), RAMMB: 1024, CPUMilli: 500 * (1 + i%4)}
		if err := cl.AddVM(vm); err != nil {
			t.Fatal(err)
		}
	}
	if err := cluster.NewPlacementManager(cl, 0).PlaceRandom(rng); err != nil {
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
				tcp, terr := NewTCPTransport("127.0.0.1:0", h)
				if terr == nil {
					p.tcps = append(p.tcps, tcp)
				}
				tr, err = tcp, terr
			} else {
				tr, err = hub.NewEndpoint(addr, h)
			}
			if err != nil {
				return nil, err
			}
			if o.faults != nil {
				tr = o.faults.Wrap(tr)
			}
			if o.wrap != nil {
				tr = o.wrap(tr)
			}
			return tr, nil
		}
	}
	for h := 0; h < topo.Hosts(); h++ {
		ag, err := NewAgent(AgentConfig{
			HostID: cluster.HostID(h), Slots: 8, RAMMB: 32768, CPUMilli: planeCPUMilli, NICMbps: 1000,
			Topo: topo, Cost: cm, Policy: pol,
		}, p.reg)
		if err != nil {
			t.Fatal(err)
		}
		if o.probeTimeout > 0 {
			ag.probeTimeout = o.probeTimeout
		}
		if err := ag.Start(mk(fmt.Sprintf("dom0-%d", h))); err != nil {
			t.Fatal(err)
		}
		p.agents = append(p.agents, ag)
	}
	for _, id := range cl.VMs() {
		vm, _ := cl.VM(id)
		rates := make(map[cluster.VMID]float64)
		for _, ed := range tm.NeighborEdges(id) {
			rates[ed.Peer] = ed.Rate
		}
		if err := p.agents[cl.HostOf(id)].Adopt(vm, rates); err != nil {
			t.Fatal(err)
		}
	}
	if shards > 0 {
		rec, err := NewReconciler(ReconcilerConfig{
			Topo: topo, Cost: cm, Shards: shards, Granularity: shard.ByPod,
			ShardDeadline: o.shardDeadline,
			Metrics:       o.metrics,
			Trace:         o.trace,
			Audit:         o.audit,
		}, p.reg)
		if err != nil {
			t.Fatal(err)
		}
		if o.probeTimeout > 0 {
			rec.probeTimeout = o.probeTimeout
		}
		if o.evictAttempts > 0 {
			rec.evictAttempts = o.evictAttempts
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

// globalRingPass runs one pass of the existing global agent ring: a
// fresh optimistically-leveled token injected at the lowest VM, |V|
// visits with immediate execution. Returns the pass's migrations in
// execution order.
func globalRingPass(t *testing.T, p *shardPlane) []core.Decision {
	t.Helper()
	vms := p.eng.Cluster().VMs()
	var mu sync.Mutex
	var migs []core.Decision
	visits := 0
	done := make(chan struct{})
	for _, ag := range p.agents {
		ag.OnToken = func(ev TokenEvent) bool {
			mu.Lock()
			defer mu.Unlock()
			if ev.Migrated {
				migs = append(migs, core.Decision{VM: ev.Holder, From: ev.From, Target: ev.Target, Delta: ev.Delta})
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
		t.Fatalf("VM %d unregistered", first)
	}
	var injector *Agent
	for _, ag := range p.agents {
		if ag.Addr() == addr {
			injector = ag
		}
	}
	tok := token.NewAtLevel(vms, uint8(p.topo.Depth()))
	if err := injector.InjectToken(tok, first); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("global ring pass stalled")
	}
	mu.Lock()
	defer mu.Unlock()
	return migs
}

// globalRingPasses runs the global ring as the serial reference,
// structured into rounds to match the sharded mode: passes repeat until
// one migrates nothing. Returns every migration in execution order.
func globalRingPasses(t *testing.T, p *shardPlane) []core.Decision {
	t.Helper()
	var all []core.Decision
	for pass := 0; pass < 64; pass++ {
		migs := globalRingPass(t, p)
		if len(migs) == 0 {
			return all
		}
		all = append(all, migs...)
	}
	t.Fatal("global ring did not quiesce in 64 passes")
	return nil
}

// TestLostMigrateAckKeepsOneRecord: a global-ring pass whose every
// MsgMigrateAck is lost still executes each move once. The target adopts
// the VM and updates the registry before its ack is dropped; the source,
// out of re-sends, finds the registry naming the target and drops its
// record. So every VM ends on exactly one dom0, the one the registry names.
func TestLostMigrateAckKeepsOneRecord(t *testing.T) {
	faults := NewFaultPlan(FaultConfig{DropEvery: 1, Types: []MsgType{MsgMigrateAck}})
	p := buildShardPlaneOpts(t, 4, 7, 10, 0, token.HighestLevelFirst{}, planeOpts{faults: faults, probeTimeout: 20 * time.Millisecond})
	migs := globalRingPass(t, p)
	held := make(map[cluster.VMID][]cluster.HostID)
	for _, a := range p.agents {
		for _, vm := range a.VMs() {
			held[vm] = append(held[vm], a.HostID())
		}
	}
	for _, vm := range p.eng.Cluster().VMs() {
		h, ok := p.reg.HostOfVM(vm)
		if got := held[vm]; !ok || len(got) != 1 || got[0] != h {
			t.Fatalf("VM %d held by the dom0s of hosts %v; the registry names host %d", vm, got, h)
		}
	}
	if len(migs) == 0 || faults.Stats().Dropped == 0 {
		t.Fatalf("%d moves, %d acks dropped: no lost ack was exercised", len(migs), faults.Stats().Dropped)
	}
}

// distributedRounds runs reconciler rounds to quiescence, returning the
// concatenated applied migrations and every round's report. A report's
// Applied list is lent until the next RunRound, so each kept report
// carries its own copy.
func distributedRounds(t *testing.T, p *shardPlane) ([]core.Decision, []*RoundReport) {
	t.Helper()
	var all []core.Decision
	var reports []*RoundReport
	for round := 0; round < 64; round++ {
		rep, err := p.rec.RunRound()
		if err != nil {
			t.Fatal(err)
		}
		kept := *rep
		kept.Applied = slices.Clone(rep.Applied)
		reports = append(reports, &kept)
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
// rule and admit through core.Admit. On each fixture — hosts with CPU
// capacity, VMs with CPU demand, NICs pushed against Section V-C's
// threshold — fault-free 1-shard agent rounds run to quiescence apply the
// moves 1-shard shard.Coordinator rounds apply to the same instance — VM,
// source, target and ΔC to the bit, in order — and end in the same
// placement.
func TestAgentRoundsMatchCoordinator(t *testing.T) {
	for _, fx := range []struct {
		k    int
		seed int64
	}{{4, 7}, {4, 23}, {6, 7}} {
		name := fmt.Sprintf("k=%d seed=%d", fx.k, fx.seed)
		p := buildShardPlane(t, fx.k, fx.seed, 10, 1, token.HighestLevelFirst{})
		cl := p.eng.Cluster().Clone()
		eng, err := core.NewEngine(p.topo, p.eng.CostModel(), cl, p.eng.Traffic(), core.DefaultConfig())
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
// walked in ID order against frozen round-start state, the same merge,
// the same admission rule. On each fixture, fault-free agent rounds run
// to quiescence equal shard.Coordinator rounds: round for round — count,
// stale and cross-shard tallies, ring hops — move for move to the bit,
// and in the final placement.
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
			eng, err := core.NewEngine(p.topo, p.eng.CostModel(), cl, p.eng.Traffic(), core.DefaultConfig())
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
