package sim

// This file drives the distributed sharded mode end to end, next to the
// in-process sharded mode (sharded.go): the decision plane is the real
// dom0 agent protocol of internal/hypervisor — one agent per host over
// an in-memory transport, one token ring per topology-aligned shard,
// coordinated by a reconciliation agent — while the engine's cluster
// acts as the metrics mirror. Every move the reconciler commits is
// replayed into the mirror, so cost sampling, link loads and the
// migration model see exactly what the agent plane executed.

import (
	"fmt"
	"time"

	"github.com/score-dc/score/internal/cluster"
	"github.com/score-dc/score/internal/hypervisor"
	"github.com/score-dc/score/internal/migration"
	"github.com/score-dc/score/internal/shard"
)

// agentPlane is a fully wired distributed hypervisor plane mirroring an
// engine's cluster.
type agentPlane struct {
	hub    *hypervisor.MemHub
	reg    *hypervisor.Registry
	agents []*hypervisor.Agent
	rec    *hypervisor.Reconciler
	faults *hypervisor.FaultPlan
}

func (p *agentPlane) close() {
	if p.rec != nil {
		_ = p.rec.Close()
	}
	for _, a := range p.agents {
		_ = a.Close()
	}
}

// buildAgentPlane instantiates one dom0 agent per cluster host (with the
// host's real capacity), registers every placed VM with its adjacency
// row, and starts a reconciler for the configured shard count.
func (r *Runner) buildAgentPlane() (*agentPlane, error) {
	eng := r.eng
	cl := eng.Cluster()
	p := &agentPlane{hub: hypervisor.NewMemHub(), reg: hypervisor.NewRegistry()}
	// Fault injection: a seeded fault plan drops (TokenLossProb) and/or
	// delays (TokenDelayProb × TokenDelayS) MsgShardToken hops on the
	// wire; the reconciler's per-shard deadline regenerates affected
	// rings from its acked copy. The plan's seed
	// comes from the runner's rng, so equal-seed runs inject the same
	// schedule.
	if r.cfg.TokenLossProb > 0 || r.cfg.TokenDelayProb > 0 {
		p.faults = hypervisor.NewFaultPlan(hypervisor.FaultConfig{
			Seed:      r.rng.Int63(),
			DropProb:  r.cfg.TokenLossProb,
			DelayProb: r.cfg.TokenDelayProb,
			Delay:     time.Duration(r.cfg.TokenDelayS * float64(time.Second)),
			Types:     []hypervisor.MsgType{hypervisor.MsgShardToken},
		})
	}
	mk := func(addr string) func(hypervisor.Handler) (hypervisor.Transport, error) {
		return func(h hypervisor.Handler) (hypervisor.Transport, error) {
			tr, err := p.hub.NewEndpoint(addr, h)
			if err != nil || p.faults == nil {
				return tr, err
			}
			return p.faults.Wrap(tr), nil
		}
	}
	for h := 0; h < cl.NumHosts(); h++ {
		host, err := cl.Host(cluster.HostID(h))
		if err != nil {
			p.close()
			return nil, err
		}
		ag, err := hypervisor.NewAgent(hypervisor.AgentConfig{
			HostID:        host.ID,
			Slots:         host.Slots,
			RAMMB:         host.RAMMB,
			CPUMilli:      host.CPUMilli,
			NICMbps:       host.NICMbps,
			Topo:          eng.Topology(),
			Cost:          eng.CostModel(),
			MigrationCost: eng.Config().MigrationCost,
			Policy:        r.policy,
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
	tm := eng.Traffic()
	for _, vm := range cl.VMs() {
		h := cl.HostOf(vm)
		if h == cluster.NoHost {
			continue
		}
		rec, err := cl.VM(vm)
		if err != nil {
			p.close()
			return nil, err
		}
		rates := make(map[cluster.VMID]float64)
		for _, ed := range tm.NeighborEdges(vm) {
			rates[ed.Peer] = ed.Rate
		}
		if err := p.agents[h].Adopt(rec, rates); err != nil {
			p.close()
			return nil, err
		}
	}
	rcfg := hypervisor.ReconcilerConfig{
		Topo:          eng.Topology(),
		Cost:          eng.CostModel(),
		MigrationCost: eng.Config().MigrationCost,
		Shards:        r.cfg.DistributedShards,
		Granularity:   r.cfg.ShardGranularity,
		ShardDeadline: time.Duration(r.cfg.DistributedDeadlineS * float64(time.Second)),
		Metrics:       r.ob.plane,
		Trace:         r.ob.trace,
		Audit:         r.cfg.Audit,
	}
	// Under auto-tuning the reconciler consults the controller — bound
	// to the engine mirror's traffic matrix and cluster, which replay
	// every committed move — for shard count and granularity each round.
	if ctrl := r.controller(); ctrl != nil {
		rcfg.Tuner = ctrl
	}
	rec, err := hypervisor.NewReconciler(rcfg, p.reg)
	if err != nil {
		p.close()
		return nil, err
	}
	if err := rec.Start(mk("reconciler")); err != nil {
		p.close()
		return nil, err
	}
	p.rec = rec
	return p, nil
}

// runDistributed runs the agent plane: reconciler rounds, with every
// committed move mirrored into the engine's cluster for cost sampling.
func (r *Runner) runDistributed() (*Metrics, error) {
	plane, err := r.buildAgentPlane()
	if err != nil {
		return nil, err
	}
	defer plane.close()
	cl := r.eng.Cluster()
	return r.runRounds(func(stats func(int) *ShardStats) (*shard.Round, error) {
		rep, err := plane.rec.RunRound()
		if err != nil {
			return nil, err
		}
		// Mirror each committed move: model its transfer under the link
		// load as it stands, then apply it to the metrics cluster, which
		// shifts its flows — the same sequence as a single-token
		// migration, driven by the agent plane's decisions.
		for _, d := range rep.Applied {
			r.charge(migration.Sample(r.rng, max(r.linkUtil(d.From), r.linkUtil(d.Target))))
			if err := cl.Move(d.VM, d.Target); err != nil {
				return nil, fmt.Errorf("sim: mirroring distributed move of VM %d: %w", d.VM, err)
			}
		}
		for _, ring := range rep.Rings {
			st := stats(ring.Shard)
			st.LatencyS += ring.Latency.Seconds()
			st.Regenerated += ring.Regenerated
			if ring.Regenerated > 0 {
				st.Recovered++
			}
		}
		r.metrics.TokensRegenerated += rep.Regenerated
		r.metrics.SpuriousRegens += rep.SpuriousRegens
		return &rep.Round, nil
	})
}
