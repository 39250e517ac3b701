package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"github.com/score-dc/score"
	"github.com/score-dc/score/bench/stat"
	"github.com/score-dc/score/internal/cluster"
	"github.com/score-dc/score/internal/experiments"
	"github.com/score-dc/score/internal/ga"
	"github.com/score-dc/score/internal/hypervisor"
	"github.com/score-dc/score/internal/netsim"
	"github.com/score-dc/score/internal/obs"
	"github.com/score-dc/score/internal/serve"
	"github.com/score-dc/score/internal/sim"
	"github.com/score-dc/score/internal/token"
)

// observeBody is the POST /v1/observe wire shape, decoded as strictly
// as the daemon decodes it.
type observeBody struct {
	Source  string `json:"source"`
	Samples []struct {
		A        uint32  `json:"a"`
		B        uint32  `json:"b"`
		RateMbps float64 `json:"rate_mbps"`
	} `json:"samples"`
}

// serveRungs times the daemon's operations in process, without HTTP:
// the same instance admitted and loaded through the Daemon API, the
// ingest workload's own bodies decoded and folded, and a snapshot
// written and restored.
func serveRungs(in inputs, out map[string]float64) error {
	cl := in.Fat.Cl
	cfg := serve.Config{
		Topology: serve.TopologySpec{Kind: "fattree", K: in.FatK, HostLinkMbps: 1000},
		Hosts:    cluster.UniformHosts(cl.NumHosts(), in.Fat.Slots, in.Fat.RAMMB, 1000),
		Trace:    obs.NewTracer(in.TraceEvents),
		Audit:    obs.NewAuditRing(in.AuditEvents),
	}
	d, err := serve.New(cfg)
	if err != nil {
		return err
	}
	defer d.Close()

	vms := cl.VMs()
	t0 := time.Now()
	for _, vm := range vms {
		if _, _, err := d.Admit(serve.AdmitRequest{ID: vm, HasID: true, RAMMB: 1024, Host: cl.HostOf(vm), HasHost: true}); err != nil {
			return fmt.Errorf("serve.admit_bulk rung: %w", err)
		}
	}
	out["serve.admit_bulk_us_per_vm"] = float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(len(vms))

	batch := make([]serve.RateSample, 0, 4096)
	var loadErr error
	flush := func() {
		if len(batch) == 0 || loadErr != nil {
			return
		}
		if _, rejected, err := d.Observe("bench-load", batch); err != nil || rejected != 0 {
			loadErr = fmt.Errorf("loading the matrix: %d rejected, err %v", rejected, err)
		}
		batch = make([]serve.RateSample, 0, 4096)
	}
	in.Fat.TM.ForEachPair(func(a, b cluster.VMID, rate float64) {
		batch = append(batch, serve.RateSample{A: a, B: b, RateMbps: rate})
		if len(batch) == cap(batch) {
			flush()
		}
	})
	flush()
	if loadErr != nil {
		return loadErr
	}

	if len(in.Bodies) == 0 {
		return fmt.Errorf("serve rungs need observe bodies")
	}
	decoded := make([][]serve.RateSample, len(in.Bodies))
	samples := 0
	t0 = time.Now()
	for i, body := range in.Bodies {
		var ob observeBody
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&ob); err != nil {
			return fmt.Errorf("serve.json_decode rung: %w", err)
		}
		rs := make([]serve.RateSample, len(ob.Samples))
		for j, s := range ob.Samples {
			rs[j] = serve.RateSample{A: cluster.VMID(s.A), B: cluster.VMID(s.B), RateMbps: s.RateMbps}
		}
		decoded[i] = rs
		samples += len(rs)
	}
	out["serve.json_decode_us_per_sample"] = float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(samples)

	t0 = time.Now()
	for _, rs := range decoded {
		if _, _, err := d.Observe("bench", rs); err != nil {
			return fmt.Errorf("serve.observe_direct rung: %w", err)
		}
	}
	out["serve.observe_direct_us_per_sample"] = float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(samples)

	path := filepath.Join(in.Dir, "ladder.snapshot.json")
	defer os.Remove(path)
	var snapErr error
	out["serve.snapshot_ms"] = medianMs(3, func() {
		if _, err := d.Snapshot(path); err != nil {
			snapErr = err
		}
	})
	if snapErr != nil {
		return snapErr
	}
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	out["serve.snapshot_mb"] = float64(st.Size()) / (1 << 20)
	out["serve.restore_ms"] = medianMs(3, func() {
		back, err := serve.Restore(path, serve.Config{})
		if err != nil {
			snapErr = err
			return
		}
		back.Close()
	})
	return snapErr
}

// simRungs times the serial discrete-event path on the canonical tree.
func simRungs(in inputs, out map[string]float64) error {
	cl, tm, eng := in.Canon.Cl, in.Canon.TM, in.Canon.Eng
	snap := cl.Snapshot()
	cfg := sim.DefaultConfig()
	cfg.MaxIterations = 1
	cfg.DurationS = float64(cl.NumVMs())*cfg.HopLatencyS + cfg.SampleIntervalS
	runner, err := sim.NewRunner(eng, token.HighestLevelFirst{}, cfg, rand.New(rand.NewSource(in.Seed)))
	if err != nil {
		return err
	}
	t0 := time.Now()
	m, err := runner.Run()
	if err != nil {
		return err
	}
	out["sim.hop_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(m.TokenHops)
	if err := cl.Restore(snap); err != nil {
		return err
	}
	net := netsim.NewNetwork(in.Canon.Topo)
	out["netsim.recompute_ms"] = medianMs(5, func() { net.Recompute(tm, cl) })
	// The sample tick's Sync with no rate change pending, as in a paper
	// run.
	out["netsim.sync_us"] = perCallNs(1<<14, func(int) { net.Sync(tm, cl) }) / 1e3
	return nil
}

// agentPlane wires the distributed dom0 plane on a dense fat-tree: one
// agent per host over the in-memory hub, a reconciler when shards > 0.
type agentPlane struct {
	reg    *hypervisor.Registry
	agents []*hypervisor.Agent
	rec    *hypervisor.Reconciler
	vms    []score.VMID
}

func newAgentPlane(k, shards int, seed int64) (*agentPlane, error) {
	rng := rand.New(rand.NewSource(seed))
	topo, err := score.NewFatTree(k, 1000)
	if err != nil {
		return nil, err
	}
	cl, err := score.NewCluster(score.UniformHosts(topo.Hosts(), 8, 32768, 1000))
	if err != nil {
		return nil, err
	}
	pm := score.NewPlacementManager(cl, 1)
	for i := 0; i < topo.Hosts()*4; i++ {
		if _, err := pm.CreateVM(1024); err != nil {
			return nil, err
		}
	}
	if err := pm.PlaceRandom(rng); err != nil {
		return nil, err
	}
	tm, err := score.GenerateTraffic(score.DefaultGenConfig(topo.Racks()), topo, cl, rng)
	if err != nil {
		return nil, err
	}
	tm = tm.Scaled(50)
	cost, err := score.NewCostModel(score.PaperWeights()...)
	if err != nil {
		return nil, err
	}
	hub := hypervisor.NewMemHub()
	p := &agentPlane{reg: hypervisor.NewRegistry(), vms: cl.VMs()}
	mk := func(addr string) func(hypervisor.Handler) (hypervisor.Transport, error) {
		return func(h hypervisor.Handler) (hypervisor.Transport, error) { return hub.NewEndpoint(addr, h) }
	}
	for h := 0; h < topo.Hosts(); h++ {
		ag, err := hypervisor.NewAgent(hypervisor.AgentConfig{
			HostID: score.HostID(h), Slots: 8, RAMMB: 32768,
			Topo: topo, Cost: cost, Policy: token.RoundRobin{},
		}, p.reg)
		if err != nil {
			p.close()
			return nil, err
		}
		if err := ag.Start(mk(fmt.Sprintf("dom0-%d", h))); err != nil {
			p.close()
			return nil, err
		}
		p.agents = append(p.agents, ag)
	}
	for _, vm := range p.vms {
		rates := make(map[score.VMID]float64)
		for _, ed := range tm.NeighborEdges(vm) {
			rates[ed.Peer] = ed.Rate
		}
		if err := p.agents[cl.HostOf(vm)].AddVM(vm, 1024, rates); err != nil {
			p.close()
			return nil, err
		}
	}
	if shards > 0 {
		p.rec, err = hypervisor.NewReconciler(hypervisor.ReconcilerConfig{
			Topo: topo, Cost: cost, Shards: shards, Granularity: score.ShardByPod,
		}, p.reg)
		if err != nil {
			p.close()
			return nil, err
		}
		if err := p.rec.Start(mk("reconciler")); err != nil {
			p.close()
			return nil, err
		}
	}
	return p, nil
}

func (p *agentPlane) close() {
	if p.rec != nil {
		p.rec.Close()
	}
	for _, a := range p.agents {
		a.Close()
	}
}

// agentRungs records the distributed plane, which no end-to-end
// workload drives yet, so that collapsing the round drivers has a
// before-number.
func agentRungs(in inputs, out map[string]float64) error {
	k := 8
	if in.Toy {
		k = 4
	}
	const reps = 3
	var round, pass []float64
	for i := 0; i < reps; i++ {
		p, err := newAgentPlane(k, 4, in.Seed)
		if err != nil {
			return err
		}
		t0 := time.Now()
		_, err = p.rec.RunRound()
		round = append(round, float64(time.Since(t0).Nanoseconds())/1e6)
		p.close()
		if err != nil {
			return fmt.Errorf("hypervisor.sharded_round rung: %w", err)
		}

		// One pass of the paper's global agent ring: |V| token visits.
		if p, err = newAgentPlane(k, 0, in.Seed); err != nil {
			return err
		}
		done := make(chan struct{})
		var visits atomic.Int64
		total := int64(len(p.vms))
		for _, ag := range p.agents {
			ag.OnToken = func(hypervisor.TokenEvent) bool {
				if visits.Add(1) >= total {
					close(done)
					return false
				}
				return true
			}
		}
		addr, _ := p.reg.Lookup(p.vms[0])
		var injector *hypervisor.Agent
		for _, ag := range p.agents {
			if ag.Addr() == addr {
				injector = ag
			}
		}
		if injector == nil {
			p.close()
			return fmt.Errorf("hypervisor.ring_pass rung: no agent hosts VM %d", p.vms[0])
		}
		t0 = time.Now()
		err = injector.InjectToken(token.NewAtLevel(p.vms, 3), p.vms[0])
		if err == nil {
			select {
			case <-done:
			case <-time.After(60 * time.Second):
				err = fmt.Errorf("ring pass did not finish in 60 s")
			}
		}
		pass = append(pass, float64(time.Since(t0).Nanoseconds())/1e6)
		p.close()
		if err != nil {
			return fmt.Errorf("hypervisor.ring_pass rung: %w", err)
		}
	}
	out["hypervisor.sharded_round_ms"] = stat.Median(round)
	out["hypervisor.ring_pass_ms"] = stat.Median(pass)

	// The token on the wire: a |V|-entry token framed, unframed, decoded.
	const entries = 10000
	ids := make([]score.VMID, entries)
	for i := range ids {
		ids[i] = score.VMID(i*7 + 1)
	}
	tok := token.New(ids)
	var codecErr error
	ns := perCallNs(256, func(int) {
		msg := hypervisor.Message{Type: hypervisor.MsgToken, VM: ids[0], Payload: tok.Encode()}
		back, err := hypervisor.DecodeMessage(msg.Encode())
		if err == nil {
			_, err = token.Decode(back.Payload)
		}
		if err != nil {
			codecErr = err
		}
	})
	out["hypervisor.codec_ns_per_entry"] = ns / entries
	return codecErr
}

// baselineRungs records the two centralized baselines at the
// experiments' medium scale.
func baselineRungs(in inputs, out map[string]float64) error {
	scale := experiments.ScaleMedium
	cfg := ga.DefaultConfig()
	cfg.Population, cfg.MaxGenerations = 120, 150 // the experiments' medium-scale GA budget
	if in.Toy {
		scale = experiments.ScaleSmall
		cfg.Population, cfg.MinGenerations, cfg.MaxGenerations = 30, 2, 4
	}
	sc, err := experiments.NewScenario(experiments.Canonical, scale, experiments.Sparse, in.Seed)
	if err != nil {
		return err
	}
	t0 := time.Now()
	res, err := ga.Optimize(sc.Eng, cfg, rand.New(rand.NewSource(in.Seed)))
	if err != nil {
		return err
	}
	out["ga.optimize_ms"] = float64(time.Since(t0).Nanoseconds()) / 1e6
	sink += res.BestCost

	t0 = time.Now()
	m, err := sim.RunRemedy(sc.Eng, sim.DefaultRemedyConfig(), rand.New(rand.NewSource(in.Seed)))
	if err != nil {
		return err
	}
	out["remedy.run_ms"] = float64(time.Since(t0).Nanoseconds()) / 1e6
	sink += m.FinalCost
	return nil
}
