package hypervisor

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"github.com/score-dc/score/internal/cluster"
	"github.com/score-dc/score/internal/core"
	"github.com/score-dc/score/internal/token"
	"github.com/score-dc/score/internal/topology"
	"github.com/score-dc/score/internal/traffic"
)

// Registry is the centralized VM instance placement manager's directory
// (Section V-A): it resolves a VM ID to the address of the dom0 agent
// currently hosting it, the role the paper's NAT redirect plays when
// messages for a VM's IP are steered to its hypervisor. It also carries
// the static host directory — which dom0 serves which server — that the
// sharded mode's reconciler and cross-host capacity probes resolve
// arbitrary target hosts through.
type Registry struct {
	mu       sync.RWMutex
	byVM     map[cluster.VMID]string
	hostAddr map[cluster.HostID]string
	addrHost map[string]cluster.HostID
}

// NewRegistry returns an empty directory.
func NewRegistry() *Registry {
	return &Registry{
		byVM:     make(map[cluster.VMID]string),
		hostAddr: make(map[cluster.HostID]string),
		addrHost: make(map[string]cluster.HostID),
	}
}

// Assign records that vm is hosted by the dom0 at addr.
func (r *Registry) Assign(vm cluster.VMID, addr string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.byVM[vm] = addr
}

// Lookup resolves a VM to its dom0 address.
func (r *Registry) Lookup(vm cluster.VMID) (string, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	a, ok := r.byVM[vm]
	return a, ok
}

// AssignHost records the dom0 agent serving host h (agents register
// themselves on Start). An address serves one host: rebinding it is refused.
func (r *Registry) AssignHost(h cluster.HostID, addr string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.addrHost[addr]; ok && old != h {
		return fmt.Errorf("hypervisor: address %s already serves host %d, not %d", addr, old, h)
	}
	r.hostAddr[h] = addr
	r.addrHost[addr] = h
	return nil
}

// HostAddr resolves a host to its dom0 address.
func (r *Registry) HostAddr(h cluster.HostID) (string, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	a, ok := r.hostAddr[h]
	return a, ok
}

// HostOfVM resolves a VM to its current host through the directory: the
// registry names the hosting dom0, and the host directory names that
// dom0's server. This is the placement manager's authoritative view —
// updated synchronously by every executed migration — and the plane's one
// answer to "where is this VM": agents read their peers' and holders'
// servers from it, and the reconciler lists rings and re-validates
// against it.
func (r *Registry) HostOfVM(vm cluster.VMID) (cluster.HostID, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	addr, ok := r.byVM[vm]
	if !ok {
		return cluster.NoHost, false
	}
	h, ok := r.addrHost[addr]
	return h, ok
}

// VMList returns every registered VM in ascending ID order.
func (r *Registry) VMList() []cluster.VMID {
	r.mu.RLock()
	out := make([]cluster.VMID, 0, len(r.byVM))
	for vm := range r.byVM {
		out = append(out, vm)
	}
	r.mu.RUnlock()
	slices.Sort(out)
	return out
}

// HostList returns every registered host in ascending ID order.
func (r *Registry) HostList() []cluster.HostID {
	r.mu.RLock()
	out := make([]cluster.HostID, 0, len(r.hostAddr))
	for h := range r.hostAddr {
		out = append(out, h)
	}
	r.mu.RUnlock()
	slices.Sort(out)
	return out
}

// AgentConfig parameterizes one dom0 agent.
type AgentConfig struct {
	// HostID is this server's identity in the topology.
	HostID cluster.HostID
	// Slots, RAMMB, CPUMilli and NICMbps are the server's capacity, which
	// its capacity responses report room against (zero CPU or NIC
	// capacity is unconstrained, as in cluster.Host).
	Slots, RAMMB, CPUMilli int
	NICMbps                float64
	// Topo is the static location-cost map every dom0 holds
	// ("a precomputed location cost mapping", Section V-B4).
	Topo topology.Topology
	// Cost holds the link weights c_i.
	Cost core.CostModel
	// MigrationCost is c_m from Theorem 1.
	MigrationCost float64
	// Policy selects the next holder of the global ring's token
	// (MsgToken). Shard tokens are forwarded in ring order whatever it
	// says (see the package documentation).
	Policy token.Policy
}

// TokenEvent reports one processed token visit to the observer. From is
// the holder's server at decision time. In sharded rounds Migrated means
// the move was *staged* for the merge (not yet executed); a cross-shard
// proposal reports Migrated false with Target set.
type TokenEvent struct {
	Holder   cluster.VMID
	Migrated bool
	From     cluster.HostID
	Target   cluster.HostID
	Delta    float64
}

// Agent is one dom0: it tracks hosted VMs and their measured peer rates,
// answers capacity probes, and executes the S-CORE decision process when
// the token arrives for a hosted VM — immediately in the global ring,
// staged into the ring state in sharded rounds.
type Agent struct {
	cfg AgentConfig
	tr  Transport
	reg *Registry
	rq  requester
	// probeTimeout is bound into rq on Start.
	probeTimeout time.Duration
	// kern is the decision rule's level tables and c_m; every visit
	// decides through a clone of it.
	kern *core.Kernel

	mu     sync.Mutex
	vms    map[cluster.VMID]vmRecord
	assign *ShardAssignment // current round's shard table, nil outside sharded rounds
	dedup  map[commitKey]*Message
	closed bool

	// OnToken, when set, observes each token visit; returning false
	// stops the ring (the harness's termination hook). It must be set
	// before Start.
	OnToken func(ev TokenEvent) bool
	// onShardToken, set by in-package tests before Start, observes each
	// sharded-ring visit; rings end by hop count, so it cannot stop them.
	onShardToken func(shard int, ev TokenEvent)

	// nbrs is refilled for every global-token visit and lent to the
	// policy as the holder view's Neighbors; viewMu holds it from the
	// refill until Next returns.
	viewMu sync.Mutex
	nbrs   []token.Entry
}

// vmRecord is a hosted VM's demand and peer-rate table. The table mirrors
// the traffic matrix's CSR idiom: a slice sorted by peer ID, so token
// processing walks peers in a deterministic order and probe sequences are
// reproducible. Records are replaced, never mutated, so a copy read
// under mu stays valid after it is released.
type vmRecord struct {
	ramMB, cpuMilli int
	rates           []traffic.Edge // λ(u, v) toward each peer, Mb/s; sorted by Peer
}

// need is what the VM asks of host h: its demand, its rate, and its rate
// to the peers on h, where hostOf(i) is the host of rates[i]'s peer.
func (rec vmRecord) need(h cluster.HostID, hostOf func(i int) cluster.HostID) core.Need {
	n := core.Need{RAMMB: rec.ramMB, CPUMilli: rec.cpuMilli}
	for i, ed := range rec.rates {
		n.Rate += ed.Rate
		if hostOf(i) == h {
			n.Internal += ed.Rate
		}
	}
	return n
}

// transfer is the MsgMigrate that ships the record of vm.
func (rec vmRecord) transfer(vm cluster.VMID) Message {
	return Message{Type: MsgMigrate, VM: vm, RAMMB: int32(rec.ramMB), CPUMilli: int32(rec.cpuMilli), Payload: EncodeRateEdges(rec.rates)}
}

// NewAgent constructs an agent; call Start with a transport factory to
// go live.
func NewAgent(cfg AgentConfig, reg *Registry) (*Agent, error) {
	if cfg.Topo == nil || reg == nil || cfg.Policy == nil {
		return nil, fmt.Errorf("hypervisor: nil dependency")
	}
	if cfg.Slots <= 0 || cfg.RAMMB <= 0 {
		return nil, fmt.Errorf("hypervisor: agent capacity must be positive")
	}
	kern, err := core.NewKernel(cfg.Topo, cfg.Cost, cfg.MigrationCost)
	if err != nil {
		return nil, err
	}
	if !kern.Covers(cfg.HostID) {
		return nil, fmt.Errorf("hypervisor: host %d outside topology %s", cfg.HostID, cfg.Topo.Name())
	}
	return &Agent{
		cfg:          cfg,
		reg:          reg,
		kern:         kern,
		probeTimeout: probeTimeout,
		vms:          make(map[cluster.VMID]vmRecord),
		dedup:        make(map[commitKey]*Message),
	}, nil
}

// commitKey identifies one state-changing request exactly: requesters
// stamp monotonically increasing ReqIDs, so (reply address, ReqID) never
// legitimately repeats — a second sighting is a duplicated frame.
type commitKey struct {
	addr string
	id   uint32
}

// maxDedup bounds the duplicate-suppression cache; duplicates arrive
// close to their originals, so clearing a full cache is safe.
const maxDedup = 4096

// dedupClaim registers the first sighting of a state-changing request.
// A duplicate returns dup=true with the recorded response (nil while the
// original is still executing — the duplicate is simply dropped, since
// the original's response answers the same ReqID).
func (a *Agent) dedupClaim(key commitKey) (resp *Message, dup bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if r, ok := a.dedup[key]; ok {
		return r, true
	}
	if len(a.dedup) >= maxDedup {
		// Drop completed records only: a nil value is an in-flight
		// claim, and wiping one would let a duplicate of a
		// still-executing commit run the migration a second time.
		for k, v := range a.dedup {
			if v != nil {
				delete(a.dedup, k)
			}
		}
	}
	a.dedup[key] = nil
	return nil, false
}

// dedupStore records the response sent for key, for replay on duplicates.
func (a *Agent) dedupStore(key commitKey, resp Message) {
	a.mu.Lock()
	a.dedup[key] = &resp
	a.mu.Unlock()
}

// Start binds the agent to a transport created by mk (which receives the
// agent's message handler) and registers the agent in the host
// directory, which refuses an address already serving another host.
func (a *Agent) Start(mk func(Handler) (Transport, error)) error {
	tr, err := mk(a.handle)
	if err != nil {
		return err
	}
	a.tr = tr
	a.rq.bind(tr, a.probeTimeout)
	return a.reg.AssignHost(a.cfg.HostID, tr.Addr())
}

// Addr returns the agent's transport address.
func (a *Agent) Addr() string { return a.tr.Addr() }

// HostID returns the server identity.
func (a *Agent) HostID() cluster.HostID { return a.cfg.HostID }

// Close shuts down the transport.
func (a *Agent) Close() error {
	a.mu.Lock()
	a.closed = true
	a.mu.Unlock()
	if a.tr == nil {
		return nil
	}
	return a.tr.Close()
}

// AddVM is Adopt for a VM that declares no CPU demand.
func (a *Agent) AddVM(vm cluster.VMID, ramMB int, rates map[cluster.VMID]float64) error {
	return a.Adopt(cluster.VM{ID: vm, RAMMB: ramMB}, rates)
}

// Adopt registers a hosted VM and its measured peer rates (in a live
// deployment these come from the flow table; tests and examples inject
// them) and updates the registry, if core.Admit finds room for its demand.
func (a *Agent) Adopt(vm cluster.VM, rates map[cluster.VMID]float64) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !core.Admit(a.room(), core.Need{RAMMB: vm.RAMMB, CPUMilli: vm.CPUMilli}) {
		return fmt.Errorf("hypervisor: host %d cannot take VM %d: %w", a.cfg.HostID, vm.ID, cluster.ErrNoCapacity)
	}
	a.vms[vm.ID] = vmRecord{ramMB: vm.RAMMB, cpuMilli: vm.CPUMilli, rates: ratesToEdges(rates)}
	a.reg.Assign(vm.ID, a.tr.Addr())
	return nil
}

// room is the host as its capacity response reports it; its NIC load is
// its VMs' rates to peers it does not host, a sum of rates on traffic's
// grid, hence exact and the engine's. a.mu must be held.
func (a *Agent) room() core.Room {
	r := core.Room{Slots: a.cfg.Slots - len(a.vms), RAMMB: a.cfg.RAMMB, CPUMilli: a.cfg.CPUMilli, CPUCap: a.cfg.CPUMilli, NICMbps: a.cfg.NICMbps}
	for _, rec := range a.vms {
		r.RAMMB -= rec.ramMB
		r.CPUMilli -= rec.cpuMilli
		for _, ed := range rec.rates {
			if _, here := a.vms[ed.Peer]; !here {
				r.NICLoad += ed.Rate
			}
		}
	}
	return r
}

// VMs lists hosted VM IDs.
func (a *Agent) VMs() []cluster.VMID {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]cluster.VMID, 0, len(a.vms))
	for id := range a.vms {
		out = append(out, id)
	}
	return out
}

// InjectToken starts (or restarts) the ring at a VM hosted by this agent.
func (a *Agent) InjectToken(t *token.Token, holder cluster.VMID) error {
	return a.tr.Send(a.tr.Addr(), Message{Type: MsgToken, VM: holder, Payload: t.Encode()})
}

// handle dispatches inbound messages. Token processing blocks on peer
// probes, so it runs on its own goroutine.
func (a *Agent) handle(from string, m Message) {
	switch m.Type {
	case MsgCapacityReq:
		a.mu.Lock()
		r := a.room()
		a.mu.Unlock()
		_ = a.tr.Send(m.ReplyTo, Message{
			Type: MsgCapacityResp, ReqID: m.ReqID, Host: a.cfg.HostID,
			FreeSlots: int32(r.Slots), FreeRAMMB: int32(r.RAMMB), FreeCPUMilli: int32(r.CPUMilli),
			CPUMilli: int32(r.CPUCap), NICMbps: r.NICMbps, NICLoad: r.NICLoad,
		})
	case MsgMigrate:
		rates, err := DecodeRateEdges(m.Payload)
		if err != nil {
			return
		}
		// A duplicated transfer frame must not re-adopt the VM — it may
		// have moved on since; replay the recorded ack instead.
		key := commitKey{addr: m.ReplyTo, id: m.ReqID}
		if resp, dup := a.dedupClaim(key); dup {
			if resp != nil {
				_ = a.tr.Send(m.ReplyTo, *resp)
			}
			return
		}
		a.mu.Lock()
		a.vms[m.VM] = vmRecord{ramMB: int(m.RAMMB), cpuMilli: int(m.CPUMilli), rates: rates}
		a.mu.Unlock()
		a.reg.Assign(m.VM, a.tr.Addr())
		ack := Message{Type: MsgMigrateAck, ReqID: m.ReqID, VM: m.VM, Host: a.cfg.HostID}
		a.dedupStore(key, ack)
		_ = a.tr.Send(m.ReplyTo, ack)
	case MsgCapacityResp, MsgMigrateAck, MsgShardAssignAck, MsgReconcileResp:
		a.rq.dispatch(m)
	case MsgToken:
		go a.processToken(m)
	case MsgShardAssign:
		asg, err := DecodeShardAssignment(m.Payload)
		if err != nil {
			return
		}
		a.mu.Lock()
		a.assign = asg
		a.mu.Unlock()
		_ = a.tr.Send(m.ReplyTo, Message{Type: MsgShardAssignAck, ReqID: m.ReqID, Host: a.cfg.HostID})
	case MsgShardToken:
		go a.processShardToken(m)
	case MsgReconcileCommit:
		// The commit blocks on a MsgMigrate round trip; run it off the
		// dispatch goroutine so the ack can be delivered.
		go a.processReconcileCommit(m)
	}
}

// processToken runs the full Section V-B decision pipeline for one token
// visit: aggregate load, locate peers in the registry, rank candidates,
// probe capacity, decide via Theorem 1, migrate, and pass the token on.
func (a *Agent) processToken(m Message) {
	tok, err := token.Decode(m.Payload)
	if err != nil {
		return
	}
	holder := m.VM

	a.mu.Lock()
	rec, hosted := a.vms[holder]
	closed := a.closed
	a.mu.Unlock()
	if closed {
		return
	}

	ev := TokenEvent{Holder: holder, Target: cluster.NoHost}
	if hosted {
		ev = a.decide(holder, rec)
	}

	// Build the holder view — the level of every peer that can be
	// placed and, as the holder's own level, the highest of them, seen
	// from where the visit left the holder — and pass the token.
	at, ok := a.reg.HostOfVM(holder)
	if !ok {
		at = a.cfg.HostID
	}
	a.viewMu.Lock()
	a.nbrs = a.nbrs[:0]
	view := token.HolderView{Holder: holder}
	for _, ed := range rec.rates {
		h, ok := a.reg.HostOfVM(ed.Peer)
		if !ok {
			continue
		}
		lvl := uint8(a.cfg.Topo.Level(at, h))
		a.nbrs = append(a.nbrs, token.Entry{ID: ed.Peer, Level: lvl})
		if lvl > view.OwnLevel {
			view.OwnLevel = lvl
		}
	}
	view.Neighbors = a.nbrs

	if a.OnToken != nil && !a.OnToken(ev) {
		a.viewMu.Unlock()
		return
	}
	next, ok := a.cfg.Policy.Next(tok, view)
	a.viewMu.Unlock()
	if !ok {
		return
	}
	if addr, ok := a.reg.Lookup(next); ok {
		_ = a.tr.Send(addr, Message{Type: MsgToken, VM: next, Payload: tok.Encode()})
	}
}

// visit is one token visit as the decision rule sees it: the holder's
// record, where each of its peers sits (at[i] for rates[i], NoHost when
// unlocated) and the ring's staged overlay. Its Admissible is Section
// V-B5's capacity probe: the target's response, adjusted by the overlay,
// admitted by core.Admit as on the in-process planes.
type visit struct {
	a   *Agent
	o   *ringOverlay
	rec vmRecord
	at  []cluster.HostID
}

// need is what the holder asks of host h, its peers where the visit
// placed them.
func (v *visit) need(h cluster.HostID) core.Need {
	return v.rec.need(h, func(i int) cluster.HostID { return v.at[i] })
}

func (v *visit) Admissible(u cluster.VMID, h cluster.HostID) bool {
	addr, ok := v.a.reg.HostAddr(h)
	if !ok {
		return false
	}
	resp, err := v.a.rq.request(addr, Message{Type: MsgCapacityReq, VM: u, RAMMB: int32(v.rec.ramMB)})
	if err != nil {
		return false
	}
	return core.Admit(plus(resp.room(), v.o.room[h]), v.need(h))
}

// room reads a capacity response as core.Admit's Room.
func (m *Message) room() core.Room {
	return core.Room{
		Slots: int(m.FreeSlots), RAMMB: int(m.FreeRAMMB), CPUMilli: int(m.FreeCPUMilli),
		CPUCap: int(m.CPUMilli), NICMbps: m.NICMbps, NICLoad: m.NICLoad,
	}
}

// bestMove runs the decision rule (core.Kernel) for a holder on
// holderHost, its peers located through the ring overlay o (empty for the
// global ring), and returns the visit too. Each visit decides on a kernel
// of its own: a duplicated shard-token frame can run two visits on one
// agent at once.
func (a *Agent) bestMove(holder cluster.VMID, holderHost cluster.HostID, rec vmRecord, o *ringOverlay) (core.Decision, *visit, bool) {
	v := &visit{a: a, o: o, rec: rec, at: make([]cluster.HostID, len(rec.rates))}
	k := a.kern.Clone()
	k.Begin(holderHost)
	for i, ed := range rec.rates {
		// A staged move wins over the registry's round-start location,
		// which is frozen until the merge.
		h, ok := o.loc[ed.Peer]
		if !ok {
			h, ok = a.reg.HostOfVM(ed.Peer)
		}
		v.at[i] = cluster.NoHost
		if ok && k.Covers(h) {
			k.Peer(h, ed.Rate)
			v.at[i] = h
		}
	}
	dec, ok := k.Best(holder, v)
	return dec, v, ok
}

// decide evaluates the S-CORE policy for a hosted token holder in the
// global ring and executes the winning migration immediately. The
// record's rates are the holder's adjacency row (sorted by peer), so
// peers are read in a deterministic order.
func (a *Agent) decide(holder cluster.VMID, rec vmRecord) TokenEvent {
	ev := TokenEvent{Holder: holder, From: a.cfg.HostID, Target: cluster.NoHost}
	dec, _, ok := a.bestMove(holder, a.cfg.HostID, rec, &ringOverlay{})
	if !ok {
		return ev
	}
	addr, _ := a.reg.HostAddr(dec.Target) // it answered the capacity probe
	if !a.migrate(holder, rec, addr) {
		return ev
	}
	ev.Migrated = true
	ev.Target = dec.Target
	ev.Delta = dec.Delta
	return ev
}

// migrate ships the record of vm to the dom0 at addr and drops it here
// once it landed: on either ring, this is how a move executes. Re-sends
// carry the same ReqID, so the target adopts the VM once and replays its
// ack; if every ack is lost anyway, the registry, which the target
// updates before it acks, tells whether the VM moved, so its record never
// sits on two dom0s.
func (a *Agent) migrate(vm cluster.VMID, rec vmRecord, addr string) bool {
	resp, err := a.rq.requestRetry(addr, rec.transfer(vm), commitAttempts)
	if err != nil || resp.Type != MsgMigrateAck {
		if at, there := a.reg.Lookup(vm); !there || at != addr {
			return false
		}
	}
	a.mu.Lock()
	delete(a.vms, vm)
	a.mu.Unlock()
	return true
}
