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
// themselves on Start).
func (r *Registry) AssignHost(h cluster.HostID, addr string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hostAddr[h] = addr
	r.addrHost[addr] = h
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
// updated synchronously by every executed migration — which the
// reconciler partitions and re-validates against.
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
	// ProbeTimeout bounds location/capacity round trips.
	ProbeTimeout time.Duration
}

// locationCacheTTL bounds how long a probed peer location is reused
// before the agent re-probes. Within one token visit the decision loop
// and the holder-view construction both resolve every peer, so even a
// short TTL halves location round trips; across visits the cache drops
// the per-peer round trip entirely. Entries are additionally invalidated
// whenever the agent observes a migration — it executes one, receives
// the VM, or the registry points the peer at a different dom0.
const locationCacheTTL = time.Second

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
// answers location and capacity probes, and executes the S-CORE decision
// process when the token arrives for a hosted VM — immediately in the
// global ring, staged into the ring state in sharded rounds.
type Agent struct {
	cfg AgentConfig
	tr  Transport
	reg *Registry
	rq  requester
	// kern is the decision rule's level tables and c_m; every visit
	// decides through a clone of it.
	kern *core.Kernel

	mu       sync.Mutex
	vms      map[cluster.VMID]vmRecord
	locCache map[cluster.VMID]locEntry
	assign   *ShardAssignment // current round's shard table, nil outside sharded rounds
	dedup    map[commitKey]*Message
	closed   bool

	// OnToken, when set, observes each token visit; returning false
	// stops the ring (the harness's termination hook). It must be set
	// before Start.
	OnToken func(ev TokenEvent) bool
	// OnShardToken, when set, observes each sharded-ring visit. Sharded
	// rings terminate by hop count, so the observer cannot stop them.
	OnShardToken func(shard int, ev TokenEvent)
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

// locEntry caches one peer's probed location. addr records which dom0
// answered: if the registry later points the VM elsewhere, the entry is
// stale regardless of TTL (an observed migration invalidates it).
type locEntry struct {
	host    cluster.HostID
	addr    string
	expires time.Time
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
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 2 * time.Second
	}
	return &Agent{
		cfg:      cfg,
		reg:      reg,
		kern:     kern,
		vms:      make(map[cluster.VMID]vmRecord),
		locCache: make(map[cluster.VMID]locEntry),
		dedup:    make(map[commitKey]*Message),
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
// directory.
func (a *Agent) Start(mk func(Handler) (Transport, error)) error {
	tr, err := mk(a.handle)
	if err != nil {
		return err
	}
	a.tr = tr
	a.rq.bind(tr, a.cfg.ProbeTimeout)
	a.reg.AssignHost(a.cfg.HostID, tr.Addr())
	return nil
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
	case MsgLocationReq:
		resp := Message{Type: MsgLocationResp, ReqID: m.ReqID, VM: m.VM, Host: a.cfg.HostID}
		_ = a.tr.Send(m.ReplyTo, resp)
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
		delete(a.locCache, m.VM) // observed migration: the VM is here now
		a.mu.Unlock()
		a.reg.Assign(m.VM, a.tr.Addr())
		ack := Message{Type: MsgMigrateAck, ReqID: m.ReqID, VM: m.VM, Host: a.cfg.HostID}
		a.dedupStore(key, ack)
		_ = a.tr.Send(m.ReplyTo, ack)
	case MsgLocationResp, MsgCapacityResp, MsgMigrateAck, MsgShardAssignAck, MsgReconcileResp:
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
	case MsgReconcileAbort:
		// A staged move or proposal for this VM was rejected: any
		// location the deciding path cached for it is suspect.
		a.mu.Lock()
		delete(a.locCache, m.VM)
		a.mu.Unlock()
	}
}

// request performs one correlated round trip.
func (a *Agent) request(to string, m Message) (Message, error) {
	return a.rq.request(to, m)
}

// processToken runs the full Section V-B decision pipeline for one token
// visit: aggregate load, locate peers, rank candidates, probe capacity,
// decide via Theorem 1, migrate, and pass the token on.
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
	// placed and, as the holder's own level, the highest of them — and
	// pass the token.
	view := token.HolderView{Holder: holder, NeighborLevels: make(map[cluster.VMID]uint8, len(rec.rates))}
	for _, ed := range rec.rates {
		h, ok := a.locate(ed.Peer)
		if !ok {
			continue
		}
		lvl := uint8(a.cfg.Topo.Level(a.currentHostOf(holder), h))
		view.NeighborLevels[ed.Peer] = lvl
		if lvl > view.OwnLevel {
			view.OwnLevel = lvl
		}
	}

	if a.OnToken != nil && !a.OnToken(ev) {
		return
	}
	next, ok := a.cfg.Policy.Next(tok, view)
	if !ok {
		return
	}
	if addr, ok := a.reg.Lookup(next); ok {
		_ = a.tr.Send(addr, Message{Type: MsgToken, VM: next, Payload: tok.Encode()})
	}
}

// currentHostOf returns where the holder is after any migration this
// visit performed: itself unless the VM moved away, in which case the
// location resolves through the same cached probe path as any peer.
func (a *Agent) currentHostOf(vm cluster.VMID) cluster.HostID {
	a.mu.Lock()
	_, still := a.vms[vm]
	a.mu.Unlock()
	if still {
		return a.cfg.HostID
	}
	if h, ok := a.locate(vm); ok {
		return h
	}
	return a.cfg.HostID
}

// cacheLocation records a freshly observed peer location.
func (a *Agent) cacheLocation(vm cluster.VMID, host cluster.HostID, addr string) {
	a.mu.Lock()
	a.locCache[vm] = locEntry{host: host, addr: addr, expires: time.Now().Add(locationCacheTTL)}
	a.mu.Unlock()
}

// cachedLocation serves vm's location from the cache when the entry is
// inside its TTL and the registry still points at the dom0 that
// answered the probe — a registry address change is an observed
// migration and invalidates the entry immediately.
func (a *Agent) cachedLocation(vm cluster.VMID, addr string) (cluster.HostID, bool) {
	a.mu.Lock()
	ent, ok := a.locCache[vm]
	if ok && (ent.addr != addr || time.Now().After(ent.expires)) {
		delete(a.locCache, vm)
		ok = false
	}
	a.mu.Unlock()
	if !ok {
		return cluster.NoHost, false
	}
	return ent.host, true
}

// locate resolves the server hosting vm: from the TTL cache when fresh,
// otherwise by probing the dom0 the registry names (Section V-B4's
// location request) and caching the answer.
func (a *Agent) locate(vm cluster.VMID) (cluster.HostID, bool) {
	addr, ok := a.reg.Lookup(vm)
	if !ok {
		return cluster.NoHost, false
	}
	if addr == a.tr.Addr() {
		return a.cfg.HostID, true
	}
	if h, ok := a.cachedLocation(vm, addr); ok {
		return h, true
	}
	resp, err := a.request(addr, Message{Type: MsgLocationReq, VM: vm})
	if err != nil {
		return cluster.NoHost, false
	}
	a.cacheLocation(vm, resp.Host, addr)
	return resp.Host, true
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
	resp, err := v.a.request(addr, Message{Type: MsgCapacityReq, VM: u, RAMMB: int32(v.rec.ramMB)})
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
		// A staged move wins over the round-start location, which is
		// frozen until the merge.
		h, ok := o.loc[ed.Peer]
		if !ok {
			h, ok = a.locate(ed.Peer)
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
// peers are probed in a deterministic order.
func (a *Agent) decide(holder cluster.VMID, rec vmRecord) TokenEvent {
	ev := TokenEvent{Holder: holder, From: a.cfg.HostID, Target: cluster.NoHost}
	dec, _, ok := a.bestMove(holder, a.cfg.HostID, rec, &ringOverlay{})
	if !ok {
		return ev
	}
	// Execute the migration: ship the VM record to the target dom0.
	addr, _ := a.reg.HostAddr(dec.Target) // it answered the capacity probe
	resp, err := a.request(addr, rec.transfer(holder))
	if err != nil || resp.Type != MsgMigrateAck {
		return ev
	}
	a.mu.Lock()
	delete(a.vms, holder)
	a.mu.Unlock()
	// The source dom0 observed this migration first-hand: record the
	// holder's new location so the post-decision view build (and any
	// later visit inside the TTL) needs no extra round trip.
	a.cacheLocation(holder, dec.Target, addr)
	ev.Migrated = true
	ev.Target = dec.Target
	ev.Delta = dec.Delta
	return ev
}
