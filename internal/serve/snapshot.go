package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"

	"github.com/score-dc/score/internal/cluster"
	"github.com/score-dc/score/internal/control"
	"github.com/score-dc/score/internal/traffic"
)

// snapshotVersion tags the on-disk format; Restore rejects anything it
// does not recognize rather than guessing.
const snapshotVersion = 1

// snapshotFile is the daemon's durable state. Rates are stored as raw
// IEEE-754 bit patterns so a snapshot → restore round trip reproduces
// the matrix bit-identically — JSON float formatting would otherwise be
// the one lossy step in an exact pipeline. Everything else the daemon
// holds (hotspot summary, engine accounting) is derived state, rebuilt
// from these fields on restore.
type snapshotFile struct {
	Version       int                    `json:"version"`
	Topology      TopologySpec           `json:"topology"`
	Hosts         []cluster.Host         `json:"hosts"`
	MigrationCost float64                `json:"migration_cost"`
	NextID        uint32                 `json:"next_id"`
	Rounds        uint64                 `json:"rounds"`
	Controller    control.PersistedState `json:"controller"`
	VMs           []snapVM               `json:"vms"`
	Pairs         []snapPair             `json:"pairs"`
}

type snapVM struct {
	ID       uint32 `json:"id"`
	RAMMB    int    `json:"ram_mb"`
	CPUMilli int    `json:"cpu_milli"`
	// Host is -1 (cluster.NoHost) for a registered-but-unplaced VM.
	Host int32 `json:"host"`
}

type snapPair struct {
	A        uint32 `json:"a"`
	B        uint32 `json:"b"`
	RateBits uint64 `json:"rate_bits"`
}

// writeSnapshotLocked serializes the plant under the state lock and
// installs the file atomically (temp file + rename), so a crash mid-
// write never leaves a truncated snapshot at path.
func (d *Daemon) writeSnapshotLocked(path string) error {
	snap := snapshotFile{
		Version:       snapshotVersion,
		Topology:      d.cfg.Topology,
		Hosts:         append([]cluster.Host(nil), d.cfg.Hosts...),
		MigrationCost: d.cfg.MigrationCost,
		NextID:        uint32(d.nextID),
		Rounds:        d.coord.Rounds(),
		Controller:    d.ctrl.PersistedState(),
	}
	ids := d.cl.VMs()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	snap.VMs = make([]snapVM, 0, len(ids))
	for _, id := range ids {
		vm, err := d.cl.VM(id)
		if err != nil {
			return err
		}
		snap.VMs = append(snap.VMs, snapVM{
			ID:       uint32(id),
			RAMMB:    vm.RAMMB,
			CPUMilli: vm.CPUMilli,
			Host:     int32(d.cl.HostOf(id)),
		})
	}
	pairs, rates := d.tm.Pairs()
	snap.Pairs = make([]snapPair, len(pairs))
	for i, p := range pairs {
		snap.Pairs[i] = snapPair{A: uint32(p.A), B: uint32(p.B), RateBits: math.Float64bits(rates[i])}
	}
	sort.Slice(snap.Pairs, func(i, j int) bool {
		if snap.Pairs[i].A != snap.Pairs[j].A {
			return snap.Pairs[i].A < snap.Pairs[j].A
		}
		return snap.Pairs[i].B < snap.Pairs[j].B
	})
	buf, err := json.MarshalIndent(&snap, "", "\t")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".scored-snapshot-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(append(buf, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// Restore rebuilds a daemon from a snapshot file. The plant definition
// (topology, hosts, migration cost) comes from the file; cfg supplies
// only runtime knobs (round interval, queue sizing, registry, paths).
// The restored daemon resumes where the snapshot was taken: same
// placement, same traffic matrix (bit-identical rates), same controller
// hysteresis, and a round counter continuing the recorded sequence.
func Restore(path string, cfg Config) (*Daemon, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var snap snapshotFile
	if err := json.Unmarshal(buf, &snap); err != nil {
		return nil, fmt.Errorf("serve: decoding snapshot %s: %w", path, err)
	}
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("serve: snapshot %s has version %d, want %d", path, snap.Version, snapshotVersion)
	}
	if snap.NextID == 0 {
		return nil, fmt.Errorf("serve: snapshot %s has next_id 0, a reserved VM ID", path)
	}
	cfg.Topology = snap.Topology
	cfg.Hosts = snap.Hosts
	cfg.MigrationCost = snap.MigrationCost
	topo, err := cfg.Topology.Build()
	if err != nil {
		return nil, err
	}
	if len(cfg.Hosts) != topo.Hosts() {
		return nil, fmt.Errorf("serve: snapshot has %d hosts for a %d-host topology", len(cfg.Hosts), topo.Hosts())
	}
	cl, err := cluster.New(cfg.Hosts)
	if err != nil {
		return nil, err
	}
	for _, vm := range snap.VMs {
		if vm.ID == 0 {
			return nil, fmt.Errorf("serve: snapshot %s holds VM ID 0, which is reserved", path)
		}
		if err := cl.AddVM(cluster.VM{ID: cluster.VMID(vm.ID), RAMMB: vm.RAMMB, CPUMilli: vm.CPUMilli}); err != nil {
			return nil, fmt.Errorf("serve: restoring VM %d: %w", vm.ID, err)
		}
		if h := cluster.HostID(vm.Host); h != cluster.NoHost {
			if err := cl.Place(cluster.VMID(vm.ID), h); err != nil {
				return nil, fmt.Errorf("serve: restoring VM %d: %w", vm.ID, err)
			}
		}
	}
	// A pair is outside input like an observe sample and passes the same
	// test, all of them before the matrix sizes a row table from any.
	for i, p := range snap.Pairs {
		if why := sampleFault(cl, cluster.VMID(p.A), cluster.VMID(p.B), math.Float64frombits(p.RateBits)); why != "" {
			return nil, fmt.Errorf("serve: snapshot %s: pair %d (a=%d, b=%d, rate_bits=%#x): %s", path, i, p.A, p.B, p.RateBits, why)
		}
	}
	tm := traffic.NewMatrix()
	for _, p := range snap.Pairs {
		tm.Set(cluster.VMID(p.A), cluster.VMID(p.B), math.Float64frombits(p.RateBits))
	}
	return newDaemon(cfg, topo, cl, tm, &snap)
}
