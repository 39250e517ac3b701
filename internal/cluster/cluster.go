// Package cluster models the server-side substrate of a data center:
// virtual machines, physical hosts, and the allocation of VMs to hosts.
//
// The paper (Section II) defines V as the set of VMs, S as the set of
// servers, and an allocation A mapping every VM u to a hosting server
// σ̂A(u). Each server can accommodate a bounded number of VMs (16 in the
// paper's evaluation) and has finite RAM and NIC capacity, which the
// migration target-selection protocol (Section V-B5) probes before a
// migration is admitted.
//
// The Cluster owns the placement table — one HostID per VM ID — and is
// its only writer. Readers that cannot afford a call per lookup borrow
// it through DenseAlloc: a read-only alias, valid until the next AddVM.
// Readers that keep a structure derived from it follow its writes
// through MovesSince, a bounded log of them; the cluster calls no one.
//
// Per-VM state has one layout: flat tables over a window of the ID space
// (Section V-A: IDs come from one totally ordered space and the token
// walks them in order). AddVM is where IDs are admitted and holds the
// system's one density rule: an ID that would stretch the span of the
// registered IDs past 4 × the plant's VM slots + 2²⁰ is refused with
// ErrIDOutsideWindow and nothing changes. Every other per-VM table in the
// program — the traffic matrix's rows, the decision views, the visit memo
// — is sized from IDs this rule has let in, and keeps no rule of its own.
package cluster

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// VMID uniquely identifies a VM. The paper uses the VM's IPv4 address as a
// 32-bit identifier carried in the token (Section V-B2), "capable of
// representing over 4 billion IDs before recycling".
type VMID uint32

// HostID identifies a physical server within the data center.
type HostID int32

// NoHost is the HostID returned for unplaced VMs.
const NoHost HostID = -1

// VM describes a virtual machine and its server-side resource demand.
type VM struct {
	ID VMID
	// RAMMB is the provisioned guest memory in MiB. The paper's testbed
	// VMs are allocated 196 MB each; heterogeneous sizes are supported
	// because the capacity-response protocol reports available RAM.
	RAMMB int
	// CPUMilli is the provisioned CPU share in millicores. Zero means
	// the VM declares no CPU demand. The paper notes S-CORE "can be
	// easily extended to add more constraints such as an individual
	// host's CPU, RAM, and bandwidth availability" (Section V-B); this
	// field is that extension.
	CPUMilli int
}

// Host describes a physical server.
type Host struct {
	ID HostID
	// Slots is the maximum number of VMs the server accommodates
	// (16 in the paper's simulations, "to model a typical DC server").
	Slots int
	// RAMMB is the total guest-usable memory.
	RAMMB int
	// NICMbps is the server's network interface speed (1 Gb/s in the
	// paper's testbed), for Section V-C's bandwidth-threshold admission
	// check. Zero means unconstrained, as for CPUMilli.
	NICMbps float64
	// CPUMilli is the server's CPU capacity in millicores. Zero
	// disables CPU admission (all-slots-equal, the paper's base model).
	CPUMilli int
}

// AllocChange records one write to the placement table: VM went from
// host From to host To, either of them NoHost (a placement, an
// unplacement). A re-spec, which changes the VM's demand and its host's
// room but no placement, is logged with From == To, the VM's host.
type AllocChange struct {
	VM       VMID
	From, To HostID
}

// Errors returned by allocation mutations.
var (
	ErrUnknownVM    = errors.New("cluster: unknown VM")
	ErrUnknownHost  = errors.New("cluster: unknown host")
	ErrNoCapacity   = errors.New("cluster: host lacks capacity")
	ErrAlreadyHosts = errors.New("cluster: VM already placed")
	ErrNotPlaced    = errors.New("cluster: VM not placed")
	// ErrIDOutsideWindow refuses a VM ID too far from the registered ones
	// for the per-VM tables to stay proportional to the plant (see AddVM).
	ErrIDOutsideWindow = errors.New("cluster: VM ID outside the ID window")
)

// vmRec is one registered VM's resource demand, 12 bytes; its placement
// lives beside it in Cluster.alloc, 4 more. The cluster keeps the two
// flat tables indexed by ID offset, so the per-VM state of a 100k-VM
// instance is 1.6 MB of arrays, and HostOf/Demand reads are a bounds
// check plus one cache line. The zero record is unregistered.
type vmRec struct {
	ramMB    int32
	cpuMilli int32
	reg      bool
}

// Cluster binds a set of hosts and VMs together with the current
// allocation. The zero value is not usable; construct with New.
//
// Cluster is not safe for concurrent mutation; the simulation engine
// serializes all allocation changes through its event loop, mirroring the
// fact that in the real system only the token holder's hypervisor mutates
// placement at any instant. It holds no callbacks: a reader learns of a
// write from the placement changelog (MovesSince) when it next reads.
type Cluster struct {
	hosts []Host // dense, indexed by HostID

	// VM tables over one ID window: recs[id-recBase] holds the demand of
	// the VM registered as id and alloc[id-recBase] its host — the
	// placement table, owned and written by the cluster alone, NoHost for
	// an unplaced or unregistered ID, always len(recs) long. Only IDs
	// inside the window can be registered; ensureRec grows it, to at most
	// maxSpan IDs (the density rule), when AddVM admits one outside.
	recBase VMID
	recs    []vmRec
	alloc   []HostID
	numVMs  int
	maxSpan int64

	// The placement changelog (MovesSince): moveLog[i] took the table
	// from generation moveBase+i to moveBase+i+1, and moveGen is the
	// current generation. Entries name VM IDs, so a window regrow keeps
	// it; Restore empties it. moveReach is how far behind a reader may
	// be: the plant's VM slots (set by New), so one round's writes — a
	// VM moves at most once a round — always fit.
	moveLog   []AllocChange
	moveBase  uint64
	moveGen   uint64
	moveReach uint64

	hostVMs [][]VMID // dense, indexed by HostID; unordered sets
	ramUsed []int    // MiB in use per host
	cpuUsed []int    // millicores in use per host
}

// New creates a cluster over the given hosts with no VMs placed.
// Host IDs must be dense, i.e. hosts[i].ID == i.
func New(hosts []Host) (*Cluster, error) {
	c := &Cluster{
		hosts:   make([]Host, len(hosts)),
		ramUsed: make([]int, len(hosts)),
		cpuUsed: make([]int, len(hosts)),
	}
	for i, h := range hosts {
		if h.ID != HostID(i) {
			return nil, fmt.Errorf("cluster: host at index %d has ID %d, want dense IDs", i, h.ID)
		}
		if h.Slots <= 0 {
			return nil, fmt.Errorf("cluster: host %d has non-positive slot count %d", i, h.Slots)
		}
		c.hosts[i] = h
		c.maxSpan += int64(h.Slots)
	}
	c.hostVMs = hostSets(c.hosts, c.maxSpan)
	c.moveReach = uint64(c.maxSpan)
	c.maxSpan = c.maxSpan*denseFactor + denseSlack
	return c, nil
}

// hostSets gives every host an empty VM set with room for its slots,
// carved from one array of slots entries: a host never holds more
// (roomFor, Restore), so no placement write regrows a set.
func hostSets(hosts []Host, slots int64) [][]VMID {
	sets, all := make([][]VMID, len(hosts)), make([]VMID, slots)
	for i, h := range hosts {
		sets[i], all = all[:0:h.Slots], all[h.Slots:]
	}
	return sets
}

// UniformHosts is a convenience constructor for n identical hosts.
func UniformHosts(n, slots, ramMB int, nicMbps float64) []Host {
	hosts := make([]Host, n)
	for i := range hosts {
		hosts[i] = Host{ID: HostID(i), Slots: slots, RAMMB: ramMB, NICMbps: nicMbps}
	}
	return hosts
}

// The density rule: the registered IDs may span at most denseFactor × the
// plant's VM slots + denseSlack IDs (16 bytes of table each). The flat
// term admits per-tenant ID strides and a far-off first few IDs — 2²⁰ IDs
// are 16 MB of table — while a scatter over the 32-bit space (2³⁰: 16 GB)
// is refused. The bound is fixed per cluster (maxSpan, set by New), not
// relative to the current population, so it cannot be outlived: every
// subset of an admitted ID set is admissible in any order, Remove never
// leaves a state AddVM would not rebuild, and a snapshot of a live cluster
// always replays.
const (
	denseFactor = 4
	denseSlack  = 1 << 20
)

// GrowWindow plans the growth of a table over the ID window starting at
// base so that it comes to cover id, which lies outside it. first..last
// are the table's occupied slots (first > last when there are none);
// growth measures from them, not from the old window, so slots vacated at
// either end are let go and under a service that issues ever higher IDs
// while old VMs leave, the window follows the population instead of
// spanning every ID ever issued. It returns the new window — the occupied
// extent plus id, padded geometrically on the side being extended so that
// ascending or descending ID sequences stay amortized O(1), never beyond
// limit IDs — or ok == false when the extent plus id alone exceeds limit.
// The caller allocates size slots and copies the old slots first..last to
// offset base+first-newBase.
func GrowWindow(base VMID, first, last int, id VMID, limit int64) (newBase VMID, size int, ok bool) {
	lo, hi := int64(id), int64(id)
	if first <= last {
		lo = min(lo, int64(base)+int64(first))
		hi = max(hi, int64(base)+int64(last))
	}
	required := hi - lo + 1
	if required > limit {
		return 0, 0, false
	}
	padded := min(max(required, 2*int64(last-first+1)), limit)
	if lo == int64(id) {
		lo = max(0, lo-(padded-required)) // spare capacity below when growing down
	}
	return VMID(lo), int(padded), true
}

// ensureRec returns vm's index in the record table, growing the table
// when vm lies outside it, or -1, having changed nothing, when that would
// break the density rule. The table never exceeds the rule's span, so an
// ID inside it needs no check.
func (c *Cluster) ensureRec(vm VMID) int {
	if i := int64(vm) - int64(c.recBase); uint64(i) < uint64(len(c.recs)) {
		return int(i)
	}
	first, last := 0, -1 // extent of the registered records
	if c.numVMs > 0 {
		for !c.recs[first].reg {
			first++
		}
		for last = len(c.recs) - 1; !c.recs[last].reg; last-- {
		}
	}
	newBase, size, ok := GrowWindow(c.recBase, first, last, vm, c.maxSpan)
	if !ok {
		return -1
	}
	nr, na := make([]vmRec, size), make([]HostID, size)
	for i := range na {
		na[i] = NoHost
	}
	if first <= last {
		at := c.recBase + VMID(first) - newBase
		copy(nr[at:], c.recs[first:last+1])
		copy(na[at:], c.alloc[first:last+1])
	}
	c.recBase, c.recs, c.alloc = newBase, nr, na
	return int(vm - newBase)
}

// registered reports whether id names a known VM.
func (c *Cluster) registered(id VMID) bool {
	i := int64(id) - int64(c.recBase)
	return uint64(i) < uint64(len(c.recs)) && c.recs[i].reg
}

// Demand returns vm's resource demand, ok == false when unregistered.
// Unlike VM it builds no error, so capacity probes of unknown IDs stay
// allocation-free.
func (c *Cluster) Demand(vm VMID) (ramMB, cpuMilli int, ok bool) {
	if !c.registered(vm) {
		return 0, 0, false
	}
	r := &c.recs[vm-c.recBase]
	return int(r.ramMB), int(r.cpuMilli), true
}

// setHostOf records vm's placement. The VM must be registered.
func (c *Cluster) setHostOf(vm VMID, h HostID) { c.alloc[vm-c.recBase] = h }

// logMove appends one write to the changelog.
func (c *Cluster) logMove(vm VMID, from, to HostID) {
	if len(c.moveLog) == cap(c.moveLog) {
		c.makeMoveRoom()
	}
	c.moveLog = append(c.moveLog, AllocChange{VM: vm, From: from, To: to})
	c.moveGen++
}

// makeMoveRoom makes room for one more changelog entry: it doubles the
// log up to moveReach + moveReach/8 entries, and a log that long slides
// its newest moveReach entries to the front. The log is sized here, not
// by append, so it never holds more than that.
func (c *Cluster) makeMoveRoom() {
	full := c.moveReach + c.moveReach/8 + 1
	if n := uint64(len(c.moveLog)); n >= full {
		kept := copy(c.moveLog, c.moveLog[n-c.moveReach:])
		c.moveLog = c.moveLog[:kept]
		c.moveBase = c.moveGen - uint64(kept)
		return
	}
	grown := make([]AllocChange, len(c.moveLog), min(max(2*uint64(len(c.moveLog)), 64), full))
	copy(grown, c.moveLog)
	c.moveLog = grown
}

// MoveGeneration returns the placement table's generation: it advances
// on every Place, Move and Remove that writes the table, every
// successful Respec, and Restore.
func (c *Cluster) MoveGeneration() uint64 { return c.moveGen }

// MovesSince returns the writes that took the placement table from
// generation gen to the current one, in order. ok is false when gen is
// more than the plant's VM slots of writes behind, or behind a Restore:
// the caller rebuilds from the table instead. The window may have
// regrown since gen; entries name VM IDs. The slice is owned by the
// cluster: read-only, valid until the next write.
func (c *Cluster) MovesSince(gen uint64) ([]AllocChange, bool) {
	if gen > c.moveGen || gen < c.moveBase || c.moveGen-gen > c.moveReach {
		return nil, false
	}
	return c.moveLog[gen-c.moveBase:], true
}

// NumHosts returns the number of physical servers.
func (c *Cluster) NumHosts() int { return len(c.hosts) }

// NumVMs returns the number of registered VMs.
func (c *Cluster) NumVMs() int { return c.numVMs }

// Host returns the host description for id.
func (c *Cluster) Host(id HostID) (Host, error) {
	if !c.validHost(id) {
		return Host{}, fmt.Errorf("%w: %d", ErrUnknownHost, id)
	}
	return c.hosts[id], nil
}

// VM returns the VM description for id.
func (c *Cluster) VM(id VMID) (VM, error) {
	ramMB, cpuMilli, ok := c.Demand(id)
	if !ok {
		return VM{}, fmt.Errorf("%w: %d", ErrUnknownVM, id)
	}
	return VM{ID: id, RAMMB: ramMB, CPUMilli: cpuMilli}, nil
}

// VMs returns all VM IDs in ascending order. The ascending total order is
// what the Round-Robin token policy walks (Section V-A1): a linear scan
// of the record table — no sort.
func (c *Cluster) VMs() []VMID {
	ids := make([]VMID, 0, c.numVMs)
	for i := range c.recs {
		if c.recs[i].reg {
			ids = append(ids, c.recBase+VMID(i))
		}
	}
	return ids
}

// AddVM registers an unplaced VM. An ID that would stretch the span of
// the registered IDs beyond the density rule (see denseFactor) is refused
// with ErrIDOutsideWindow; like every refusal here it leaves the cluster
// exactly as it was.
func (c *Cluster) AddVM(vm VM) error {
	if c.registered(vm.ID) {
		return fmt.Errorf("%w: %d", ErrAlreadyHosts, vm.ID)
	}
	if vm.RAMMB < 0 || vm.CPUMilli < 0 {
		return fmt.Errorf("cluster: VM %d has negative resource demand", vm.ID)
	}
	if vm.RAMMB > math.MaxInt32 || vm.CPUMilli > math.MaxInt32 {
		return fmt.Errorf("cluster: VM %d resource demand overflows 32 bits", vm.ID)
	}
	i := c.ensureRec(vm.ID)
	if i < 0 {
		return fmt.Errorf("%w: %d (window %d..%d, at most %d IDs wide)", ErrIDOutsideWindow, vm.ID,
			c.recBase, int64(c.recBase)+int64(len(c.recs))-1, c.maxSpan)
	}
	c.recs[i] = vmRec{ramMB: int32(vm.RAMMB), cpuMilli: int32(vm.CPUMilli), reg: true}
	c.numVMs++
	return nil
}

// HostOf returns the server hosting vm, i.e. σ̂A(u) in the paper's
// notation, or NoHost if the VM is unplaced: a bounds check and a slice
// load.
func (c *Cluster) HostOf(vm VMID) HostID {
	if i := int64(vm) - int64(c.recBase); uint64(i) < uint64(len(c.alloc)) {
		return c.alloc[i]
	}
	return NoHost
}

// DenseAlloc returns the cluster's own placement table: base is the ID
// of alloc[0], and alloc[id-base] is the host of id (NoHost when
// unplaced or unregistered). Every registered ID lies in base …
// base+len(alloc)-1 — the ID window; consumers keeping their own per-VM
// tables size them from it. alloc is empty until the first
// AddVM. The slice aliases live state: it is read-only for the caller,
// follows every Place/Move/Remove/Restore, and is valid only until the
// next AddVM, which may reallocate the table — re-fetch it rather than
// holding it across one. A consumer that keeps state derived from it
// brings that up to date from MovesSince and rebuilds it only when that
// refuses.
func (c *Cluster) DenseAlloc() (base VMID, alloc []HostID) {
	return c.recBase, c.alloc
}

// VMsOn returns the VMs currently placed on host. The returned slice is
// owned by the caller.
func (c *Cluster) VMsOn(host HostID) []VMID {
	if !c.validHost(host) {
		return nil
	}
	out := make([]VMID, len(c.hostVMs[host]))
	copy(out, c.hostVMs[host])
	return out
}

// Residents returns the VMs placed on host, unordered, without copying:
// the slice is owned by the cluster, read-only, valid until the next
// placement write. VMsOn returns a copy.
func (c *Cluster) Residents(host HostID) []VMID {
	if !c.validHost(host) {
		return nil
	}
	return c.hostVMs[host]
}

// UsedSlots returns the number of VMs on host.
func (c *Cluster) UsedSlots(host HostID) int {
	if !c.validHost(host) {
		return 0
	}
	return len(c.hostVMs[host])
}

// FreeSlots returns the remaining VM slots on host. This is the figure a
// capacity-response packet reports ("how many more VMs it is able to
// host", Section V-B5).
func (c *Cluster) FreeSlots(host HostID) int {
	if !c.validHost(host) {
		return 0
	}
	return c.hosts[host].Slots - len(c.hostVMs[host])
}

// FreeRAMMB returns the unreserved RAM on host, the second field of the
// paper's capacity response ("the amount of RAM it has available").
func (c *Cluster) FreeRAMMB(host HostID) int {
	if !c.validHost(host) {
		return 0
	}
	return c.hosts[host].RAMMB - c.ramUsed[host]
}

// FreeCPUMilli returns the unreserved CPU millicores on host, not a limit
// on a host with zero CPU capacity, which is unconstrained.
func (c *Cluster) FreeCPUMilli(host HostID) int {
	if !c.validHost(host) {
		return 0
	}
	return c.hosts[host].CPUMilli - c.cpuUsed[host]
}

// Fits reports whether vm can be admitted to host under slot, RAM and
// CPU capacity constraints. A VM always "fits" on the host it already
// occupies.
func (c *Cluster) Fits(vm VMID, host HostID) bool {
	ram, cpu, ok := c.Demand(vm)
	if !ok || !c.validHost(host) {
		return false
	}
	return c.HostOf(vm) == host || c.roomFor(host, ram, cpu)
}

// BestFitHost returns the host with the most free slots that Fits vm,
// lowest ID on ties — the load-balanced placement of Section VI — or
// NoHost when none does.
func (c *Cluster) BestFitHost(vm VMID) HostID {
	best, bestFree := NoHost, -1
	for h := range c.hosts {
		id := HostID(h)
		if !c.Fits(vm, id) {
			continue
		}
		if free := c.FreeSlots(id); free > bestFree {
			best, bestFree = id, free
		}
	}
	return best
}

// roomFor reports whether a valid host has room for a VM's demand.
func (c *Cluster) roomFor(host HostID, ram, cpu int) bool {
	return c.FreeSlots(host) >= 1 && c.FreeRAMMB(host) >= ram &&
		(c.hosts[host].CPUMilli == 0 || c.FreeCPUMilli(host) >= cpu)
}

// Place puts an unplaced VM on host, enforcing capacity.
func (c *Cluster) Place(vm VMID, host HostID) error {
	ram, cpu, ok := c.Demand(vm)
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownVM, vm)
	}
	if !c.validHost(host) {
		return fmt.Errorf("%w: %d", ErrUnknownHost, host)
	}
	if cur := c.HostOf(vm); cur != NoHost {
		return fmt.Errorf("%w: VM %d on host %d", ErrAlreadyHosts, vm, cur)
	}
	if !c.roomFor(host, ram, cpu) {
		return fmt.Errorf("%w: host %d for VM %d", ErrNoCapacity, host, vm)
	}
	c.setHostOf(vm, host)
	c.logMove(vm, NoHost, host)
	c.hostVMs[host] = append(c.hostVMs[host], vm)
	c.ramUsed[host] += ram
	c.cpuUsed[host] += cpu
	return nil
}

// Move migrates vm to host, enforcing capacity on the target. Moving a VM
// to its current host is a no-op. This is the allocation change A → Au→x̂
// of Section IV.
func (c *Cluster) Move(vm VMID, host HostID) error {
	ram, cpu, ok := c.Demand(vm)
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownVM, vm)
	}
	if !c.validHost(host) {
		return fmt.Errorf("%w: %d", ErrUnknownHost, host)
	}
	cur := c.HostOf(vm)
	if cur == NoHost {
		return fmt.Errorf("%w: %d", ErrNotPlaced, vm)
	}
	if cur == host {
		return nil
	}
	if !c.roomFor(host, ram, cpu) {
		return fmt.Errorf("%w: host %d for VM %d", ErrNoCapacity, host, vm)
	}
	c.removeFromHost(vm, cur)
	c.ramUsed[cur] -= ram
	c.cpuUsed[cur] -= cpu
	c.setHostOf(vm, host)
	c.logMove(vm, cur, host)
	c.hostVMs[host] = append(c.hostVMs[host], vm)
	c.ramUsed[host] += ram
	c.cpuUsed[host] += cpu
	return nil
}

// Remove unplaces (if needed) and unregisters vm — the lifecycle
// counterpart of AddVM, used by a resident placement service when a
// tenant destroys an instance. The unplacement is logged (from = current
// host, to = NoHost), so readers of the changelog fold the departure
// like any other placement write.
func (c *Cluster) Remove(vm VMID) error {
	ram, cpu, ok := c.Demand(vm)
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownVM, vm)
	}
	if cur := c.HostOf(vm); cur != NoHost {
		c.removeFromHost(vm, cur)
		c.ramUsed[cur] -= ram
		c.cpuUsed[cur] -= cpu
		c.setHostOf(vm, NoHost)
		c.logMove(vm, cur, NoHost)
	}
	c.recs[vm-c.recBase] = vmRec{}
	c.numVMs--
	return nil
}

// Respec changes vm's declared resource demand in place — the "re-spec"
// lifecycle operation (resize without re-placement). The new demand must
// fit the VM's current host (its own old demand excluded); an unplaced
// VM re-specs unconditionally. Placement is untouched; the changelog
// gets one entry with From == To, the VM's host (NoHost when unplaced),
// for readers that cache capacity verdicts.
func (c *Cluster) Respec(vm VMID, ramMB, cpuMilli int) error {
	oldRAM, oldCPU, ok := c.Demand(vm)
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownVM, vm)
	}
	if ramMB < 0 || cpuMilli < 0 {
		return fmt.Errorf("cluster: VM %d has negative resource demand", vm)
	}
	if ramMB > math.MaxInt32 || cpuMilli > math.MaxInt32 {
		return fmt.Errorf("cluster: VM %d resource demand overflows 32 bits", vm)
	}
	if h := c.HostOf(vm); h != NoHost {
		if c.FreeRAMMB(h)+oldRAM < ramMB {
			return fmt.Errorf("%w: host %d for VM %d", ErrNoCapacity, h, vm)
		}
		if c.hosts[h].CPUMilli > 0 && c.FreeCPUMilli(h)+oldCPU < cpuMilli {
			return fmt.Errorf("%w: host %d for VM %d", ErrNoCapacity, h, vm)
		}
		c.ramUsed[h] += ramMB - oldRAM
		c.cpuUsed[h] += cpuMilli - oldCPU
	}
	r := &c.recs[vm-c.recBase]
	r.ramMB, r.cpuMilli = int32(ramMB), int32(cpuMilli)
	h := c.HostOf(vm)
	c.logMove(vm, h, h)
	return nil
}

func (c *Cluster) removeFromHost(vm VMID, host HostID) {
	set := c.hostVMs[host]
	for i, id := range set {
		if id == vm {
			set[i] = set[len(set)-1]
			c.hostVMs[host] = set[:len(set)-1]
			return
		}
	}
}

// Snapshot captures the current allocation as a plain map, suitable for
// offline cost evaluation (e.g. by the GA baseline) without aliasing the
// live cluster state.
func (c *Cluster) Snapshot() map[VMID]HostID {
	m := make(map[VMID]HostID, c.numVMs)
	for i := range c.recs {
		if c.recs[i].reg {
			m[c.recBase+VMID(i)] = c.alloc[i]
		}
	}
	return m
}

// Restore rewrites the allocation from a snapshot previously produced by
// Snapshot (or computed by an optimizer). Capacity is enforced; on error
// the cluster is left unchanged.
func (c *Cluster) Restore(alloc map[VMID]HostID) error {
	// Validate first against fresh capacity counters.
	slots := make([]int, len(c.hosts))
	ram := make([]int, len(c.hosts))
	cpu := make([]int, len(c.hosts))
	for i := range c.recs {
		r := &c.recs[i]
		if !r.reg {
			continue
		}
		h, ok := alloc[c.recBase+VMID(i)]
		if !ok {
			return fmt.Errorf("cluster: snapshot missing VM %d", c.recBase+VMID(i))
		}
		if h == NoHost {
			continue
		}
		if !c.validHost(h) {
			return fmt.Errorf("%w: %d", ErrUnknownHost, h)
		}
		slots[h]++
		ram[h] += int(r.ramMB)
		cpu[h] += int(r.cpuMilli)
	}
	for i, h := range c.hosts {
		if slots[i] > h.Slots || ram[i] > h.RAMMB || (h.CPUMilli > 0 && cpu[i] > h.CPUMilli) {
			return fmt.Errorf("%w: host %d (slots %d/%d, ram %d/%d, cpu %d/%d)",
				ErrNoCapacity, i, slots[i], h.Slots, ram[i], h.RAMMB, cpu[i], h.CPUMilli)
		}
	}
	// Apply.
	for i := range c.hostVMs {
		c.hostVMs[i] = c.hostVMs[i][:0]
		c.ramUsed[i] = 0
		c.cpuUsed[i] = 0
	}
	for vm, h := range alloc {
		ramMB, cpuMilli, ok := c.Demand(vm)
		if !ok {
			continue // ignore foreign entries
		}
		c.setHostOf(vm, h)
		if h != NoHost {
			c.hostVMs[h] = append(c.hostVMs[h], vm)
			c.ramUsed[h] += ramMB
			c.cpuUsed[h] += cpuMilli
		}
	}
	// The log does not describe a bulk rewrite: every earlier generation
	// now reads as too far behind.
	c.moveGen++
	c.moveLog, c.moveBase = c.moveLog[:0], c.moveGen
	return nil
}

// Clone returns a deep copy of the cluster, used by optimizers that
// explore hypothetical allocations. The changelog is not copied: the
// clone starts its own at generation 0. The record table clones with one
// array copy.
func (c *Cluster) Clone() *Cluster {
	n := &Cluster{
		hosts:     append([]Host(nil), c.hosts...),
		recBase:   c.recBase,
		recs:      append([]vmRec(nil), c.recs...),
		alloc:     append([]HostID(nil), c.alloc...),
		numVMs:    c.numVMs,
		maxSpan:   c.maxSpan,
		moveReach: c.moveReach,
		hostVMs:   hostSets(c.hosts, int64(c.moveReach)),
		ramUsed:   append([]int(nil), c.ramUsed...),
		cpuUsed:   append([]int(nil), c.cpuUsed...),
	}
	for i, set := range c.hostVMs {
		n.hostVMs[i] = append(n.hostVMs[i], set...)
	}
	return n
}

func (c *Cluster) validHost(id HostID) bool {
	return id >= 0 && int(id) < len(c.hosts)
}

// PlacementManager is the centralized VM instance placement manager of
// Section V-A: it hands out unique, totally ordered VM IDs and performs
// the initial allocation. The paper notes DC VMs "are initially allocated
// either at random or in a load-balanced manner" (Section III).
type PlacementManager struct {
	c      *Cluster
	nextID VMID
}

// NewPlacementManager creates a manager issuing IDs starting at firstID.
// Using a non-zero base mimics IPv4-derived IDs.
func NewPlacementManager(c *Cluster, firstID VMID) *PlacementManager {
	return &PlacementManager{c: c, nextID: firstID}
}

// CreateVM registers a new VM with the next available ID.
func (pm *PlacementManager) CreateVM(ramMB int) (VMID, error) {
	id := pm.nextID
	if err := pm.c.AddVM(VM{ID: id, RAMMB: ramMB}); err != nil {
		return 0, err
	}
	pm.nextID++
	return id, nil
}

// PlaceRandom places every unplaced VM on a uniformly random host with
// capacity. It retries across hosts and fails only if the cluster is full.
func (pm *PlacementManager) PlaceRandom(rng *rand.Rand) error {
	perm := rng.Perm(pm.c.NumHosts())
	cursor := 0
	for _, vm := range pm.c.VMs() {
		if pm.c.HostOf(vm) != NoHost {
			continue
		}
		placed := false
		for tries := 0; tries < pm.c.NumHosts(); tries++ {
			h := HostID(perm[cursor%len(perm)])
			cursor = rng.Intn(len(perm)) // jump to keep placement random
			if pm.c.Fits(vm, h) {
				if err := pm.c.Place(vm, h); err == nil {
					placed = true
					break
				}
			}
		}
		if !placed {
			// Fall back to a linear scan so we only fail when truly full.
			for h := 0; h < pm.c.NumHosts(); h++ {
				if pm.c.Fits(vm, HostID(h)) {
					if err := pm.c.Place(vm, HostID(h)); err == nil {
						placed = true
						break
					}
				}
			}
		}
		if !placed {
			return fmt.Errorf("cluster: no host can fit VM %d: %w", vm, ErrNoCapacity)
		}
	}
	return nil
}

// PlaceLoadBalanced places every unplaced VM on the host with the most
// free slots (ties broken by lowest ID), producing the load-balanced
// initial allocation the paper mentions.
func (pm *PlacementManager) PlaceLoadBalanced() error {
	for _, vm := range pm.c.VMs() {
		if pm.c.HostOf(vm) != NoHost {
			continue
		}
		best := pm.c.BestFitHost(vm)
		if best == NoHost {
			return fmt.Errorf("cluster: no host can fit VM %d: %w", vm, ErrNoCapacity)
		}
		if err := pm.c.Place(vm, best); err != nil {
			return err
		}
	}
	return nil
}
