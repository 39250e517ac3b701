package cluster

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustCluster(t *testing.T, n, slots, ram int) *Cluster {
	t.Helper()
	c, err := New(UniformHosts(n, slots, ram, 1000))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

func TestNewRejectsBadHosts(t *testing.T) {
	tests := []struct {
		name  string
		hosts []Host
	}{
		{"sparse IDs", []Host{{ID: 1, Slots: 4, RAMMB: 1024}}},
		{"zero slots", []Host{{ID: 0, Slots: 0, RAMMB: 1024}}},
		{"negative slots", []Host{{ID: 0, Slots: -1, RAMMB: 1024}}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New(tc.hosts); err == nil {
				t.Fatalf("New(%v) succeeded, want error", tc.hosts)
			}
		})
	}
}

func TestAddPlaceMove(t *testing.T) {
	c := mustCluster(t, 3, 2, 2048)
	if err := c.AddVM(VM{ID: 1, RAMMB: 1024}); err != nil {
		t.Fatalf("AddVM: %v", err)
	}
	if err := c.AddVM(VM{ID: 1, RAMMB: 1024}); !errors.Is(err, ErrAlreadyHosts) {
		t.Fatalf("duplicate AddVM error = %v, want ErrAlreadyHosts", err)
	}
	if got := c.HostOf(1); got != NoHost {
		t.Fatalf("HostOf before placement = %d, want NoHost", got)
	}
	if err := c.Place(1, 0); err != nil {
		t.Fatalf("Place: %v", err)
	}
	if got := c.HostOf(1); got != 0 {
		t.Fatalf("HostOf = %d, want 0", got)
	}
	if got := c.UsedSlots(0); got != 1 {
		t.Fatalf("UsedSlots = %d, want 1", got)
	}
	if got := c.FreeRAMMB(0); got != 1024 {
		t.Fatalf("FreeRAMMB = %d, want 1024", got)
	}
	if err := c.Move(1, 2); err != nil {
		t.Fatalf("Move: %v", err)
	}
	if got := c.HostOf(1); got != 2 {
		t.Fatalf("HostOf after move = %d, want 2", got)
	}
	if got := c.UsedSlots(0); got != 0 {
		t.Fatalf("source UsedSlots = %d, want 0", got)
	}
	// Move to current host is a no-op.
	if err := c.Move(1, 2); err != nil {
		t.Fatalf("no-op Move: %v", err)
	}
}

func TestCapacityEnforcement(t *testing.T) {
	c := mustCluster(t, 2, 1, 1024)
	for id := VMID(1); id <= 3; id++ {
		if err := c.AddVM(VM{ID: id, RAMMB: 512}); err != nil {
			t.Fatalf("AddVM(%d): %v", id, err)
		}
	}
	if err := c.Place(1, 0); err != nil {
		t.Fatalf("Place(1,0): %v", err)
	}
	if err := c.Place(2, 0); !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("slot-overflow Place error = %v, want ErrNoCapacity", err)
	}
	if err := c.Place(2, 1); err != nil {
		t.Fatalf("Place(2,1): %v", err)
	}
	if err := c.Move(1, 1); !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("slot-overflow Move error = %v, want ErrNoCapacity", err)
	}
	// RAM bound: host 0 is free again after failed moves? No — VM 1 is
	// still on host 0. Verify RAM-bound placement on a fresh cluster.
	c2 := mustCluster(t, 1, 4, 1000)
	if err := c2.AddVM(VM{ID: 9, RAMMB: 600}); err != nil {
		t.Fatal(err)
	}
	if err := c2.AddVM(VM{ID: 10, RAMMB: 600}); err != nil {
		t.Fatal(err)
	}
	if err := c2.Place(9, 0); err != nil {
		t.Fatalf("Place(9,0): %v", err)
	}
	if err := c2.Place(10, 0); !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("RAM-overflow Place error = %v, want ErrNoCapacity", err)
	}
}

func TestFits(t *testing.T) {
	c := mustCluster(t, 2, 1, 1024)
	if err := c.AddVM(VM{ID: 1, RAMMB: 512}); err != nil {
		t.Fatal(err)
	}
	if err := c.Place(1, 0); err != nil {
		t.Fatal(err)
	}
	if !c.Fits(1, 0) {
		t.Fatal("VM must fit on its own host")
	}
	if !c.Fits(1, 1) {
		t.Fatal("VM must fit on the empty host")
	}
	if c.Fits(99, 1) {
		t.Fatal("unknown VM must not fit")
	}
	if c.Fits(1, 7) {
		t.Fatal("unknown host must not fit")
	}
}

func TestSnapshotRestore(t *testing.T) {
	c := mustCluster(t, 4, 4, 8192)
	for id := VMID(1); id <= 8; id++ {
		if err := c.AddVM(VM{ID: id, RAMMB: 512}); err != nil {
			t.Fatal(err)
		}
		if err := c.Place(id, HostID(int(id)%4)); err != nil {
			t.Fatal(err)
		}
	}
	snap := c.Snapshot()
	if err := c.Move(1, 3); err != nil {
		t.Fatal(err)
	}
	if err := c.Restore(snap); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	for vm, want := range snap {
		if got := c.HostOf(vm); got != want {
			t.Fatalf("HostOf(%d) after restore = %d, want %d", vm, got, want)
		}
	}
	// Restore enforces capacity.
	bad := c.Snapshot()
	for vm := range bad {
		bad[vm] = 0 // 8 VMs onto a 4-slot host
	}
	if err := c.Restore(bad); !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("over-capacity Restore error = %v, want ErrNoCapacity", err)
	}
}

func TestCloneIsIndependent(t *testing.T) {
	c := mustCluster(t, 2, 4, 8192)
	if err := c.AddVM(VM{ID: 1, RAMMB: 512}); err != nil {
		t.Fatal(err)
	}
	if err := c.Place(1, 0); err != nil {
		t.Fatal(err)
	}
	cp := c.Clone()
	if err := cp.Move(1, 1); err != nil {
		t.Fatal(err)
	}
	if got := c.HostOf(1); got != 0 {
		t.Fatalf("clone mutation leaked: original HostOf = %d, want 0", got)
	}
	if got := cp.HostOf(1); got != 1 {
		t.Fatalf("clone HostOf = %d, want 1", got)
	}
}

func TestPlacementManagerRandom(t *testing.T) {
	c := mustCluster(t, 8, 4, 8192)
	pm := NewPlacementManager(c, 100)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 32; i++ {
		if _, err := pm.CreateVM(256); err != nil {
			t.Fatalf("CreateVM: %v", err)
		}
	}
	if err := pm.PlaceRandom(rng); err != nil {
		t.Fatalf("PlaceRandom: %v", err)
	}
	for _, vm := range c.VMs() {
		if c.HostOf(vm) == NoHost {
			t.Fatalf("VM %d left unplaced", vm)
		}
	}
	// Exactly full cluster: 32 VMs in 32 slots.
	total := 0
	for h := 0; h < c.NumHosts(); h++ {
		total += c.UsedSlots(HostID(h))
	}
	if total != 32 {
		t.Fatalf("placed %d VMs, want 32", total)
	}
}

func TestPlacementFullClusterFails(t *testing.T) {
	c := mustCluster(t, 1, 2, 8192)
	pm := NewPlacementManager(c, 1)
	for i := 0; i < 3; i++ {
		if _, err := pm.CreateVM(16); err != nil {
			t.Fatal(err)
		}
	}
	if err := pm.PlaceRandom(rand.New(rand.NewSource(1))); !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("overfull placement error = %v, want ErrNoCapacity", err)
	}
}

// TestSlotInvariantQuick drives random placements and moves, checking
// slot and RAM accounting never go inconsistent or negative.
func TestSlotInvariantQuick(t *testing.T) {
	f := func(seed int64, ops uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		c := mustCluster(t, 5, 3, 4096)
		for id := VMID(0); id < 12; id++ {
			if err := c.AddVM(VM{ID: id, RAMMB: 256 + int(id)*64}); err != nil {
				return false
			}
		}
		pm := NewPlacementManager(c, 0)
		_ = pm // IDs pre-created above; placement below
		for _, vm := range c.VMs() {
			for h := 0; h < c.NumHosts(); h++ {
				if c.Fits(vm, HostID(h)) {
					if err := c.Place(vm, HostID(h)); err == nil {
						break
					}
				}
			}
		}
		for i := 0; i < int(ops); i++ {
			vm := VMID(rng.Intn(12))
			h := HostID(rng.Intn(5))
			_ = c.Move(vm, h) // may legitimately fail on capacity
		}
		// Invariants: per-host counts match reverse index; totals conserved.
		placed := 0
		for h := 0; h < c.NumHosts(); h++ {
			id := HostID(h)
			vms := c.VMsOn(id)
			if len(vms) != c.UsedSlots(id) {
				return false
			}
			if c.UsedSlots(id) > 3 {
				return false
			}
			if c.FreeRAMMB(id) < 0 {
				return false
			}
			ram := 0
			for _, vm := range vms {
				v, err := c.VM(vm)
				if err != nil || c.HostOf(vm) != id {
					return false
				}
				ram += v.RAMMB
			}
			if ram != 4096-c.FreeRAMMB(id) {
				return false
			}
			placed += len(vms)
		}
		return placed == 12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
