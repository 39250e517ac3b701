// Package remedy reimplements the Remedy system [15] (Mann et al., IFIP
// Networking 2012) as the paper's head-to-head baseline (Section VI-B).
//
// Remedy is a centralized, OpenFlow-style controller: it collects
// aggregate link statistics from switches, detects congested links, and
// "ranks VMs viable for migration based on the network cost of migrating
// and temporal VM traffic load", migrating them to targets that balance
// network traffic. Its migration-cost model "estimates the number of
// migrated bytes as a function of page dirty rate". Unlike S-CORE it
// balances momentary load and does not weigh the topology's layered link
// costs, which is why it only marginally relieves core links and reduces
// overall communication cost by ~10% versus S-CORE's ~40% (Fig. 4).
package remedy

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"github.com/score-dc/score/internal/cluster"
	"github.com/score-dc/score/internal/migration"
	"github.com/score-dc/score/internal/netsim"
	"github.com/score-dc/score/internal/topology"
	"github.com/score-dc/score/internal/traffic"
)

// Config tunes the controller.
type Config struct {
	// CongestionThreshold marks a link congested when its utilization
	// exceeds this fraction.
	CongestionThreshold float64
	// TargetHeadroom rejects targets whose access link would exceed this
	// utilization after the move.
	TargetHeadroom float64
	// MaxMigrationsPerRound bounds control-round churn.
	MaxMigrationsPerRound int
	// HorizonS is the traffic horizon over which moving a VM's load off
	// a congested link is credited as benefit, balanced against the
	// modeled migrated bytes.
	HorizonS float64
	// CandidateTargets is how many candidate hosts are sampled per
	// migration decision.
	CandidateTargets int
	// Model and Dist drive the migrated-bytes estimate (Remedy's
	// page-dirty cost model).
	Model migration.Model
	Dist  migration.WorkloadDist
}

// DefaultConfig mirrors the comparison setup: sparse TM, moderate churn.
func DefaultConfig() Config {
	return Config{
		CongestionThreshold:   0.5,
		TargetHeadroom:        0.8,
		MaxMigrationsPerRound: 8,
		HorizonS:              120,
		CandidateTargets:      48,
		Model:                 migration.DefaultModel(),
		Dist:                  migration.PaperWorkloadDist(),
	}
}

// Migration is one executed Remedy move.
type Migration struct {
	VM         cluster.VMID
	From, To   cluster.HostID
	ReliefMbps float64
	CostMB     float64
}

// Controller is the centralized Remedy loop.
type Controller struct {
	topo topology.Topology
	cl   *cluster.Cluster
	tm   *traffic.Matrix
	net  *netsim.Network
	cfg  Config
	rng  *rand.Rand
	path []topology.LinkID
}

// NewController wires a controller over live cluster state. The network
// tracker is owned by the controller and recomputed each round.
func NewController(topo topology.Topology, cl *cluster.Cluster, tm *traffic.Matrix, cfg Config, rng *rand.Rand) (*Controller, error) {
	if topo == nil || cl == nil || tm == nil || rng == nil {
		return nil, fmt.Errorf("remedy: nil dependency")
	}
	if cfg.CongestionThreshold <= 0 || cfg.TargetHeadroom <= 0 {
		return nil, fmt.Errorf("remedy: thresholds must be positive")
	}
	if err := cfg.Model.Validate(); err != nil {
		return nil, err
	}
	return &Controller{
		topo: topo, cl: cl, tm: tm,
		net: netsim.NewNetwork(topo), cfg: cfg, rng: rng,
	}, nil
}

// Network exposes the controller's link view (recomputed by Round).
func (c *Controller) Network() *netsim.Network { return c.net }

// candidate is a VM contributing load to a congested link.
type candidate struct {
	vm        cluster.VMID
	linkLoad  float64 // Mb/s this VM sends over the congested link
	costMB    float64 // modeled migration bytes
	benefitMB float64 // linkLoad over the horizon, in MB
}

// Round runs one control iteration: poll link stats, pick congested
// links, rank VM candidates by benefit/cost, and migrate the best ones
// to load-balancing targets. It returns the executed migrations.
func (c *Controller) Round() []Migration {
	c.net.Recompute(c.tm, c.cl)
	congested := c.congestedLinks()
	if len(congested) == 0 {
		return nil
	}
	var done []Migration
	for _, link := range congested {
		if len(done) >= c.cfg.MaxMigrationsPerRound {
			break
		}
		for _, cand := range c.rankCandidates(link) {
			if len(done) >= c.cfg.MaxMigrationsPerRound {
				break
			}
			// Remedy's cost gate: migrate only when the traffic moved
			// off the congested link over the horizon outweighs the
			// bytes the migration itself will push through the network.
			if cand.benefitMB <= cand.costMB {
				continue
			}
			target, ok := c.pickTarget(cand.vm, link)
			if !ok {
				continue
			}
			from := c.cl.HostOf(cand.vm)
			if err := c.moveVM(cand.vm, target); err != nil {
				continue
			}
			done = append(done, Migration{
				VM: cand.vm, From: from, To: target,
				ReliefMbps: cand.linkLoad, CostMB: cand.costMB,
			})
			if c.net.LinkUtilization(link) <= c.cfg.CongestionThreshold {
				break // link relieved; move to the next hot link
			}
		}
	}
	return done
}

// congestedLinks returns switch-layer links above the threshold, hottest
// first. Host access links are excluded: a hot access link cannot be
// relieved by moving its own VM closer.
func (c *Controller) congestedLinks() []topology.LinkID {
	links := c.topo.Links()
	var hot []topology.LinkID
	for _, l := range links {
		if l.Level < 2 {
			continue
		}
		if c.net.LinkUtilization(l.ID) > c.cfg.CongestionThreshold {
			hot = append(hot, l.ID)
		}
	}
	sort.Slice(hot, func(i, j int) bool {
		return c.net.LinkUtilization(hot[i]) > c.net.LinkUtilization(hot[j])
	})
	return hot
}

// rankCandidates finds VMs whose flows traverse link, ranked by
// benefit-to-cost ratio (temporal load vs migration cost) as Remedy does.
func (c *Controller) rankCandidates(link topology.LinkID) []candidate {
	perVM := make(map[cluster.VMID]float64)
	pairs, rates := c.tm.Pairs()
	for i, p := range pairs {
		ha, hb := c.cl.HostOf(p.A), c.cl.HostOf(p.B)
		if ha == cluster.NoHost || hb == cluster.NoHost || ha == hb {
			continue
		}
		c.path = c.topo.PathLinks(c.path[:0], ha, hb, topology.PairHash(p.A, p.B))
		for _, l := range c.path {
			if l == link {
				perVM[p.A] += rates[i]
				perVM[p.B] += rates[i]
				break
			}
		}
	}
	// Each candidate takes one draw from the shared RNG: hand them out in
	// ascending VM ID, not in map order, so a seed fixes the run.
	vms := make([]cluster.VMID, 0, len(perVM))
	for vm := range perVM {
		vms = append(vms, vm)
	}
	slices.Sort(vms)
	out := make([]candidate, 0, len(perVM))
	for _, vm := range vms {
		load := perVM[vm]
		w := c.cfg.Dist.Draw(c.rng)
		res := c.cfg.Model.Migrate(w, 0)
		out = append(out, candidate{
			vm:        vm,
			linkLoad:  load,
			costMB:    res.MigratedMB,
			benefitMB: load * c.cfg.HorizonS / 8,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		ri := out[i].benefitMB / (out[i].costMB + 1)
		rj := out[j].benefitMB / (out[j].costMB + 1)
		if ri != rj {
			return ri > rj
		}
		return out[i].vm < out[j].vm
	})
	return out
}

// pickTarget samples hosts and returns the one that best lowers the
// network's maximum utilization while respecting capacity and headroom.
// Remedy balances load; it has no notion of layered link weights, so the
// sample is topology-blind.
func (c *Controller) pickTarget(vm cluster.VMID, hot topology.LinkID) (cluster.HostID, bool) {
	cur := c.cl.HostOf(vm)
	bestHost, bestScore := cluster.NoHost, 0.0
	n := c.cl.NumHosts()
	tried := 0
	for tried < c.cfg.CandidateTargets {
		h := cluster.HostID(c.rng.Intn(n))
		tried++
		if h == cur || !c.cl.Fits(vm, h) {
			continue
		}
		if c.net.HostLinkUtilization(h) > c.cfg.TargetHeadroom {
			continue
		}
		// Score: how much of the VM's traffic leaves the hot link,
		// minus pressure added to the target's access link.
		relief := c.reliefIfMoved(vm, h, hot)
		if relief <= 0 {
			continue
		}
		score := relief - c.net.HostLinkUtilization(h)*10
		if bestHost == cluster.NoHost || score > bestScore {
			bestHost, bestScore = h, score
		}
	}
	return bestHost, bestHost != cluster.NoHost
}

// reliefIfMoved estimates the Mb/s removed from the hot link if vm moved
// to target.
func (c *Controller) reliefIfMoved(vm cluster.VMID, target cluster.HostID, hot topology.LinkID) float64 {
	cur := c.cl.HostOf(vm)
	var relief float64
	for _, ed := range c.tm.NeighborEdges(vm) {
		hz := c.cl.HostOf(ed.Peer)
		if hz == cluster.NoHost {
			continue
		}
		if c.pathUses(vm, ed.Peer, cur, hz, hot) {
			relief += ed.Rate
		}
		if c.pathUses(vm, ed.Peer, target, hz, hot) {
			relief -= ed.Rate
		}
	}
	return relief
}

func (c *Controller) pathUses(u, v cluster.VMID, hu, hv cluster.HostID, link topology.LinkID) bool {
	if hu == hv || hu == cluster.NoHost || hv == cluster.NoHost {
		return false
	}
	c.path = c.topo.PathLinks(c.path[:0], hu, hv, topology.PairHash(u, v))
	for _, l := range c.path {
		if l == link {
			return true
		}
	}
	return false
}

// moveVM applies the migration and incrementally updates link loads.
func (c *Controller) moveVM(vm cluster.VMID, target cluster.HostID) error {
	from := c.cl.HostOf(vm)
	if err := c.cl.Move(vm, target); err != nil {
		return err
	}
	for _, ed := range c.tm.NeighborEdges(vm) {
		hz := c.cl.HostOf(ed.Peer)
		c.net.ShiftPair(vm, ed.Peer, from, hz, -ed.Rate)
		c.net.ShiftPair(vm, ed.Peer, target, hz, ed.Rate)
	}
	return nil
}
