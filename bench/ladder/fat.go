package main

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/score-dc/score"
	"github.com/score-dc/score/bench/stat"
	"github.com/score-dc/score/internal/cluster"
	"github.com/score-dc/score/internal/control"
	"github.com/score-dc/score/internal/core"
	"github.com/score-dc/score/internal/obs"
	"github.com/score-dc/score/internal/shard"
	"github.com/score-dc/score/internal/token"
	"github.com/score-dc/score/internal/traffic"
)

const microCalls = 1 << 20 // calls per sub-microsecond rung

func topologyRungs(in inputs, out map[string]float64) error {
	level := func(topo score.Topology) float64 {
		rng := rand.New(rand.NewSource(in.Seed))
		n := topo.Hosts()
		a, b := make([]cluster.HostID, 4096), make([]cluster.HostID, 4096)
		for i := range a {
			a[i], b[i] = cluster.HostID(rng.Intn(n)), cluster.HostID(rng.Intn(n))
		}
		acc := 0
		ns := perCallNs(microCalls, func(i int) { acc += topo.Level(a[i&4095], b[i&4095]) })
		sink += float64(acc)
		return ns
	}
	out["topology.fattree_level_ns"] = level(in.Fat.Topo)
	out["topology.canonical_level_ns"] = level(in.Canon.Topo)
	return nil
}

func clusterRungs(in inputs, out map[string]float64) error {
	cl := in.Fat.Cl
	vms := cl.VMs()
	snap := cl.Snapshot()
	pick := picks(vms, 4096, in.Seed)
	acc := 0
	out["cluster.hostof_ns"] = perCallNs(microCalls, func(i int) { acc += int(cl.HostOf(pick[i&4095])) })
	sink += float64(acc)

	// Move with the engine's allocation observer attached, as every real
	// move has: there and back, two moves per iteration.
	hosts := cl.NumHosts()
	var moveErr error
	const moves = 1 << 15
	ns := perCallNs(moves, func(i int) {
		vm := pick[i&4095]
		home := cl.HostOf(vm)
		away := cluster.HostID((int(home) + 1 + i%7) % hosts)
		if !cl.Fits(vm, away) {
			return
		}
		if err := cl.Move(vm, away); err != nil {
			moveErr = err
		}
		if err := cl.Move(vm, home); err != nil {
			moveErr = err
		}
	})
	if moveErr != nil {
		return fmt.Errorf("cluster.move rung: %w", moveErr)
	}
	out["cluster.move_ns"] = ns / 2

	// Restore is a full rewrite whatever the current placement is.
	var restoreErr error
	out["cluster.restore_ms"] = medianMs(3, func() {
		if err := cl.Restore(snap); err != nil {
			restoreErr = err
		}
	})
	if restoreErr != nil {
		return restoreErr
	}

	// The cluster's own footprint: live heap with a clone held, minus
	// live heap once it is dropped.
	clone := cl.Clone()
	held := heapAlloc()
	sink += float64(clone.NumVMs())
	clone = nil
	dropped := heapAlloc()
	out["cluster.bytes_per_vm"] = (float64(held) - float64(dropped)) / float64(cl.NumVMs())
	return nil
}

func trafficRungs(in inputs, out map[string]float64) error {
	tm, cl := in.Fat.TM, in.Fat.Cl
	vms := cl.VMs()
	pick := picks(vms, 4096, in.Seed+1)
	acc := 0.0
	out["traffic.neighbors_ns"] = perCallNs(microCalls, func(i int) {
		for _, e := range tm.NeighborEdges(pick[i&4095]) {
			acc += e.Rate
		}
	})
	sink += acc

	// The three modes of Set, on a clone: re-announce an existing pair
	// at a new rate, insert a new pair, retire it again.
	w := tm.Clone()
	pairs, rates := w.Pairs()
	pairs, rates = append([]traffic.Pair(nil), pairs...), append([]float64(nil), rates...)
	const sets = 1 << 17
	out["traffic.set_update_ns"] = perCallNs(sets, func(i int) {
		j := (i * 7919) % len(pairs)
		w.Set(pairs[j].A, pairs[j].B, rates[j]+float64(i&1)+0.5)
	})
	// The changelog holds the most recent window of those updates.
	chg, ok := w.ChangesSince(w.Generation() - 2048)
	if !ok || len(chg) != 2048 {
		return fmt.Errorf("traffic.changes_since rung: window of %d changes, ok=%v", len(chg), ok)
	}
	const folds = 256
	t0 := time.Now()
	for r := 0; r < folds; r++ {
		chg, _ = w.ChangesSince(w.Generation() - 2048)
		for _, c := range chg {
			acc += c.New - c.Old
		}
	}
	out["traffic.changes_since_ns_per_edge"] = float64(time.Since(t0).Nanoseconds()) / float64(folds*2048)
	sink += acc

	rng := rand.New(rand.NewSource(in.Seed + 2))
	fresh := make([]traffic.Pair, 0, sets)
	for len(fresh) < sets {
		a, b := vms[rng.Intn(len(vms))], vms[rng.Intn(len(vms))]
		if a != b && w.Rate(a, b) == 0 {
			fresh = append(fresh, traffic.MakePair(a, b))
		}
	}
	out["traffic.set_insert_ns"] = perCallNs(len(fresh), func(i int) { w.Set(fresh[i].A, fresh[i].B, 1.5) })
	out["traffic.set_retire_ns"] = perCallNs(len(fresh), func(i int) { w.Set(fresh[i].A, fresh[i].B, 0) })

	var genErr error
	out["traffic.generate_ms"] = medianMs(3, func() {
		g, err := traffic.Generate(traffic.DefaultGenConfig(in.Fat.Topo.Racks()), in.Fat.Topo, cl, rand.New(rand.NewSource(in.Seed)))
		if err != nil {
			genErr = err
			return
		}
		sink += float64(g.NumPairs())
	})
	if genErr != nil {
		return genErr
	}
	out["traffic.bytes_per_pair"] = float64(tm.Stats().Bytes) / float64(tm.NumPairs())
	return nil
}

func coreRungs(in inputs, out map[string]float64) error {
	eng, cl := in.Fat.Eng, in.Fat.Cl
	vms := cl.VMs()
	snap := cl.Snapshot()
	pick := picks(vms, 4096, in.Seed+3)
	hosts := cl.NumHosts()
	acc := 0.0
	out["core.delta_ns"] = perCallNs(microCalls, func(i int) {
		acc += eng.Delta(pick[i&4095], cluster.HostID((i*31)%hosts))
	})

	// One token visit's decision through a shard view, as a ring pass
	// makes it: every VM once, nothing committed. Cold means at the
	// initial placement, where most VMs still have somewhere better to
	// go; shardRungs times the same call on the converged placement.
	view := eng.NewView()
	out["core.view_best_migration_cold_ns"] = perCallNs(len(vms), func(i int) {
		if d, ok := view.BestMigration(vms[i]); ok {
			acc += d.Delta
		}
	})

	// Apply, timed alone inside a serial decide-and-apply pass.
	var spent time.Duration
	applied := 0
	limit := len(vms)
	if limit > 1<<15 {
		limit = 1 << 15
	}
	for _, u := range vms[:limit] {
		d, ok := eng.BestMigration(u)
		if !ok {
			continue
		}
		t0 := time.Now()
		_, err := eng.Apply(d)
		spent += time.Since(t0)
		if err != nil {
			return fmt.Errorf("core.apply rung: %w", err)
		}
		applied++
	}
	if applied == 0 {
		return fmt.Errorf("core.apply rung: no migration to apply")
	}
	out["core.apply_ns"] = float64(spent.Nanoseconds()) / float64(applied)
	if err := cl.Restore(snap); err != nil {
		return err
	}

	out["core.total_cost_recompute_ms"] = medianMs(3, func() {
		eng.SetTraffic(in.Fat.TM) // drops the incremental accounting
		acc += eng.TotalCost()
	})
	sink += acc

	// The paper path decides on the engine directly, on the canonical
	// tree.
	cvms := in.Canon.Cl.VMs()
	ceng := in.Canon.Eng
	out["core.best_migration_ns"] = perCallNs(len(cvms), func(i int) {
		if d, ok := ceng.BestMigration(cvms[i]); ok {
			sink += d.Delta
		}
	})
	return nil
}

func tokenRungs(in inputs, out map[string]float64) error {
	vms := in.Fat.Cl.VMs()
	tok := token.New(vms)
	holder := vms[0]
	rr := token.RoundRobin{}
	out["token.rr_next_ns"] = perCallNs(len(vms), func(int) {
		next, ok := rr.Next(tok, token.HolderView{Holder: holder})
		if ok {
			holder = next
		}
	})

	// Highest-Level First as the serial runner calls it: the holder's
	// own and neighbour levels, then Algorithm 1's scan of the token.
	cl, eng, tm := in.Canon.Cl, in.Canon.Eng, in.Canon.TM
	cvms := cl.VMs()
	ctok := token.NewAtLevel(cvms, uint8(in.Canon.Topo.Depth()))
	hlf := token.HighestLevelFirst{}
	holder = cvms[0]
	calls := len(cvms)
	if calls > 4096 {
		calls = 4096
	}
	out["token.hlf_next_ns"] = perCallNs(calls, func(int) {
		neigh := tm.NeighborEdges(holder)
		levels := make(map[cluster.VMID]uint8, len(neigh))
		for _, ed := range neigh {
			levels[ed.Peer] = uint8(eng.PairLevel(holder, ed.Peer))
		}
		next, ok := hlf.Next(ctok, token.HolderView{Holder: holder, OwnLevel: uint8(eng.VMLevel(holder)), NeighborLevels: levels})
		if ok {
			holder = next
		}
	})
	return nil
}

// shardRungs runs the auto-tuned, Round-Robin coordinator of the
// converge workload, instrumented as the daemon runs it: one warm-up pass to settle
// the tuner, then a measured pass from the initial placement to
// quiescence. Quiet rounds are those from the ninth on, by which the
// pass applies well under 0.1 % of its moves per round.
func shardRungs(in inputs, out map[string]float64) error {
	eng, cl := in.Fat.Eng, in.Fat.Cl
	snap := cl.Snapshot()
	// The observability plane a resident scored attaches, at its
	// default sizes.
	reg := obs.NewRegistry()
	ctrlCfg := control.Config{Metrics: control.NewMetrics(reg)}
	cfg := shard.Config{
		NewPolicy: func(int) token.Policy { return token.RoundRobin{} },
		Metrics:   shard.NewMetrics(reg),
		Trace:     obs.NewTracer(in.TraceEvents),
		Audit:     obs.NewAuditRing(in.AuditEvents),
	}
	ctrl := control.New(in.Fat.Topo, ctrlCfg)
	defer ctrl.Bind(in.Fat.TM, cl)()
	cfg.Tuner = ctrl
	coord, err := shard.NewCoordinator(eng, cfg)
	if err != nil {
		return err
	}
	defer coord.Close()

	const passRounds, quietFrom, maxRounds = 16, 8, 96
	for i := 0; i < passRounds; i++ {
		if _, err := coord.RunRound(); err != nil {
			return err
		}
	}
	if err := cl.Restore(snap); err != nil {
		return err
	}
	changes0 := ctrlCfg.Metrics.PlanChanges.Value()
	var roundMs []float64
	var hops, applied, committed, stale, crossOK, crossNo int
	var quietWall, quietCPU float64
	converged := 0
	for i := 0; i < maxRounds; i++ {
		t0, cpu0 := time.Now(), stat.SelfCPUSeconds()
		res, err := coord.RunRound()
		if err != nil {
			return err
		}
		roundMs = append(roundMs, float64(time.Since(t0).Nanoseconds())/1e6)
		if i >= quietFrom {
			quietWall += time.Since(t0).Seconds()
			quietCPU += stat.SelfCPUSeconds() - cpu0
		}
		hops += res.TotalHops
		applied += len(res.Applied)
		stale += res.StaleRejected
		crossOK += res.CrossApplied
		crossNo += res.CrossRejected
		for _, s := range res.Shards {
			committed += s.Committed
		}
		if len(res.Applied) == 0 && converged == 0 {
			converged = i + 1
		}
		if converged > 0 && i+1 >= passRounds {
			break
		}
	}
	if converged == 0 {
		converged = maxRounds
	}
	out["shard.first_round_ms"] = roundMs[0]
	quiet := append([]float64(nil), roundMs[quietFrom:]...)
	out["shard.quiet_round_ms"] = stat.Median(quiet)
	out["shard.rounds_to_converge"] = float64(converged)
	out["shard.cross_applied_ratio"] = ratio(crossOK, crossOK+crossNo)
	out["shard.stale_ratio"] = ratio(stale, committed)
	out["shard.parallel_ratio"] = quietCPU / quietWall

	// The decision a quiet round's token visit makes: the same view call
	// as the cold rung, on the placement the pass converged to.
	view := eng.NewView()
	vms := cl.VMs()
	out["core.view_best_migration_ns"] = perCallNs(len(vms), func(i int) {
		if d, ok := view.BestMigration(vms[i]); ok {
			sink += d.Delta
		}
	})
	out["core.moves_per_visit"] = ratio(applied, hops)
	out["control.plan_changes"] = float64(ctrlCfg.Metrics.PlanChanges.Value() - changes0)

	shards, gran := ctrl.Plan()
	var partErr error
	out["shard.partition_ms"] = medianMs(3, func() {
		p, err := shard.NewPartition(in.Fat.Topo, cl, gran, shards)
		if err != nil {
			partErr = err
			return
		}
		sink += float64(p.Shards())
	})
	if partErr != nil {
		return partErr
	}
	if err := cl.Restore(snap); err != nil {
		return err
	}

	// Merge: one ring's staged commits replayed against the engine.
	// Reconcile: the same decisions handed over as cross-shard
	// proposals. Both from the initial placement.
	stage := func() []core.Decision {
		view := eng.NewView()
		for _, u := range cl.VMs() {
			if d, ok := view.BestMigration(u); ok {
				view.Commit(d) // a self-move stages nothing; the commit list is what counts
			}
		}
		return append([]core.Decision(nil), view.Commits()...)
	}
	cm := eng.Config().MigrationCost
	commits := stage()
	if len(commits) == 0 {
		return fmt.Errorf("shard.merge rung: nothing staged")
	}
	t0 := time.Now()
	if _, _, err := shard.MergeStaged(shard.EngineEnv(eng), cm, commits, nil); err != nil {
		return err
	}
	out["shard.merge_ns_per_move"] = float64(time.Since(t0).Nanoseconds()) / float64(len(commits))
	if err := cl.Restore(snap); err != nil {
		return err
	}
	proposals := stage()
	t0 = time.Now()
	ok, no := shard.ReconcileProposals(shard.EngineEnv(eng), cm, proposals, nil)
	out["shard.reconcile_ns_per_proposal"] = float64(time.Since(t0).Nanoseconds()) / float64(len(proposals))
	sink += float64(len(ok) + len(no))
	if err := cl.Restore(snap); err != nil {
		return err
	}

	// What the named rungs explain of a quiet round: every VM's visit
	// (decision + token forward) spread over the cores the rings kept
	// busy, plus a partition build and the tuner's plan. The rest is
	// the coordinator's own.
	explained := float64(len(vms))*(out["core.view_best_migration_ns"]+out["token.rr_next_ns"])/1e6/out["shard.parallel_ratio"] +
		out["shard.partition_ms"] + out["control.plan_us"]/1e3
	out["shard.ladder_residual_ratio"] = (out["shard.quiet_round_ms"] - explained) / out["shard.quiet_round_ms"]
	return nil
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func controlRungs(in inputs, out map[string]float64) error {
	cl := in.Fat.Cl
	w := in.Fat.TM.Clone()
	var ctrl *control.Controller
	var unbind func()
	// The first recommendation builds the rack-level summary from every
	// pair.
	out["control.rebuild_ms"] = medianMs(3, func() {
		if unbind != nil {
			unbind()
		}
		ctrl = control.New(in.Fat.Topo, control.Config{})
		unbind = ctrl.Bind(w, cl)
		ctrl.Recommendation()
	})
	defer func() { unbind() }()
	out["control.plan_us"] = perCallNs(4096, func(int) { ctrl.Plan() }) / 1e3

	// Steady-state fold: a batch of rate changes through the changelog
	// into the summary, then the plan.
	pairs, rates := w.Pairs()
	pairs, rates = append([]traffic.Pair(nil), pairs...), append([]float64(nil), rates...)
	const batch, batches = 256, 64
	t0 := time.Now()
	for b := 0; b < batches; b++ {
		for j := 0; j < batch; j++ {
			i := ((b*batch + j) * 7919) % len(pairs)
			w.Set(pairs[i].A, pairs[i].B, rates[i]*(1+0.1*float64(1+b&1)))
		}
		ctrl.Recommendation()
	}
	out["control.fold_us_per_change"] = float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(batch*batches)
	return nil
}

func obsRungs(in inputs, out map[string]float64) error {
	reg := obs.NewRegistry()
	c := reg.Counter("bench_counter_total", "ladder rung")
	h := reg.Histogram("bench_seconds", "ladder rung", obs.DefLatencyBuckets)
	tr := obs.NewTracer(in.TraceEvents)
	ar := obs.NewAuditRing(in.AuditEvents)
	out["obs.counter_inc_ns"] = perCallNs(microCalls, func(int) { c.Inc() })
	out["obs.histogram_observe_ns"] = perCallNs(microCalls, func(i int) { h.Observe(float64(i&1023) * 1e-4) })
	out["obs.trace_record_ns"] = perCallNs(microCalls, func(i int) {
		tr.Record(obs.Event{Kind: obs.EvVerdict, Code: obs.VerdictMerged, Round: uint32(i >> 12), Arg: int64(i)})
	})
	now := time.Now().UnixNano() // the merge pass stamps once per pass, not per record
	out["obs.audit_append_ns"] = perCallNs(microCalls, func(i int) {
		ar.Append(obs.AuditRecord{T: now, VM: uint32(i), Round: uint32(i >> 8), From: 1, To: 2, Verdict: obs.VerdictMerged})
	})
	// The query an operator makes after a round: that round's records
	// out of a full ring.
	last := int64((microCalls - 1) >> 8)
	out["obs.audit_query_ms"] = medianMs(9, func() { sink += float64(len(ar.Select(-1, last))) })
	return nil
}
