// Token ring over real TCP: one dom0 agent per simulated server listens
// on a loopback TCP port (the paper's "token listening server runs on a
// known port in dom0"), VM peer rates are injected as measured flow
// statistics, and the encoded token circulates over actual sockets. Each
// agent locates peers in the shared placement registry, answers capacity
// probes and executes migrations by shipping the VM record to the target
// dom0 — the full Section V-B protocol, end to end.
package main

import (
	"fmt"
	"log"
	"sync/atomic"
	"time"

	"github.com/score-dc/score/internal/cluster"
	"github.com/score-dc/score/internal/core"
	"github.com/score-dc/score/internal/hypervisor"
	"github.com/score-dc/score/internal/token"
	"github.com/score-dc/score/internal/topology"
)

const (
	hostsCount = 12
	vmsPerHost = 2
	passes     = 4 // full token cycles before stopping
)

func main() {
	log.SetFlags(0)
	topo, err := topology.NewCanonicalTree(topology.CanonicalConfig{
		Racks: 4, HostsPerRack: 3, RacksPerPod: 2, CoreSwitches: 1,
		HostLinkMbps: 1000, TorUplinkMbps: 1500, AggUplinkMbps: 1500,
	})
	if err != nil {
		log.Fatalf("topology: %v", err)
	}
	costModel, err := core.NewCostModel(core.PaperWeights()...)
	if err != nil {
		log.Fatalf("cost model: %v", err)
	}

	reg := hypervisor.NewRegistry()
	agents := make([]*hypervisor.Agent, hostsCount)
	var totalHops, totalMigs atomic.Int64
	done := make(chan struct{})

	numVMs := hostsCount * vmsPerHost
	maxHops := int64(passes * numVMs)

	for h := 0; h < hostsCount; h++ {
		agent, err := hypervisor.NewAgent(hypervisor.AgentConfig{
			HostID: cluster.HostID(h),
			Slots:  6, RAMMB: 8192,
			Topo: topo, Cost: costModel,
			MigrationCost: 0,
			Policy:        token.HighestLevelFirst{},
		}, reg)
		if err != nil {
			log.Fatalf("agent %d: %v", h, err)
		}
		agent.OnToken = func(ev hypervisor.TokenEvent) bool {
			n := totalHops.Add(1)
			if ev.Migrated {
				totalMigs.Add(1)
				fmt.Printf("  hop %3d: VM %d migrated to host %d (delta %.1f)\n",
					n, ev.Holder, ev.Target, ev.Delta)
			}
			if n >= maxHops {
				select {
				case <-done:
				default:
					close(done)
				}
				return false
			}
			return true
		}
		// Every agent gets a real TCP listener on a kernel-assigned
		// loopback port.
		if err := agent.Start(func(h hypervisor.Handler) (hypervisor.Transport, error) {
			return hypervisor.NewTCPTransport("127.0.0.1:0", h)
		}); err != nil {
			log.Fatalf("start agent %d: %v", h, err)
		}
		agents[h] = agent
	}
	defer func() {
		for _, a := range agents {
			_ = a.Close()
		}
	}()

	// Create VM pairs with heavy mutual traffic placed on *different*
	// pods, so migrations are guaranteed to pay off.
	ids := make([]cluster.VMID, 0, numVMs)
	for i := 0; i < numVMs; i++ {
		ids = append(ids, cluster.VMID(0x0a000001+i))
	}
	for i := 0; i < numVMs; i += 2 {
		u, v := ids[i], ids[i+1]
		rate := 50.0 + float64(i)
		hostU := i % hostsCount
		hostV := (i + hostsCount/2) % hostsCount
		if err := agents[hostU].AddVM(u, 1024, map[cluster.VMID]float64{v: rate}); err != nil {
			log.Fatalf("add VM %d: %v", u, err)
		}
		if err := agents[hostV].AddVM(v, 1024, map[cluster.VMID]float64{u: rate}); err != nil {
			log.Fatalf("add VM %d: %v", v, err)
		}
	}

	fmt.Printf("%d dom0 agents on loopback TCP, %d VMs, token for %d passes\n",
		hostsCount, numVMs, passes)

	tok := token.NewAtLevel(ids, uint8(topo.Depth()))
	if err := agents[0].InjectToken(tok, ids[0]); err != nil {
		log.Fatalf("inject token: %v", err)
	}

	select {
	case <-done:
	case <-time.After(60 * time.Second):
		log.Fatal("token ring did not complete in time")
	}

	fmt.Printf("completed %d hops with %d migrations over real TCP\n",
		totalHops.Load(), totalMigs.Load())
	// Count co-located pairs after convergence.
	located := 0
	for i := 0; i < numVMs; i += 2 {
		hu, okU := lookupHost(agents, ids[i])
		hv, okV := lookupHost(agents, ids[i+1])
		if okU && okV && topo.Level(hu, hv) <= 1 {
			located++
		}
	}
	fmt.Printf("pairs now co-located within a rack: %d/%d\n", located, numVMs/2)
}

func lookupHost(agents []*hypervisor.Agent, vm cluster.VMID) (cluster.HostID, bool) {
	for _, a := range agents {
		for _, id := range a.VMs() {
			if id == vm {
				return a.HostID(), true
			}
		}
	}
	return cluster.NoHost, false
}
