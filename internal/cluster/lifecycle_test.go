package cluster

import (
	"errors"
	"testing"
)

// lifecycleCluster builds 2 hosts × 4 slots with two placed VMs.
func lifecycleCluster(t *testing.T) *Cluster {
	t.Helper()
	c, err := New(UniformHosts(2, 4, 4096, 1000))
	if err != nil {
		t.Fatal(err)
	}
	for id := VMID(1); id <= 2; id++ {
		if err := c.AddVM(VM{ID: id, RAMMB: 1024}); err != nil {
			t.Fatal(err)
		}
		if err := c.Place(id, HostID(int(id)-1)); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func TestRemoveUnplacesAndUnregisters(t *testing.T) {
	c := lifecycleCluster(t)
	var gotVM VMID
	var gotFrom, gotTo HostID
	events := 0
	c.Observe(func(vm VMID, from, to HostID) {
		gotVM, gotFrom, gotTo = vm, from, to
		events++
	}, nil)

	if err := c.Remove(1); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if events != 1 || gotVM != 1 || gotFrom != 0 || gotTo != NoHost {
		t.Fatalf("observer saw (%d, %d→%d) ×%d, want (1, 0→NoHost) ×1", gotVM, gotFrom, gotTo, events)
	}
	if c.NumVMs() != 1 {
		t.Fatalf("NumVMs = %d, want 1", c.NumVMs())
	}
	if h := c.HostOf(1); h != NoHost {
		t.Fatalf("HostOf(removed) = %d, want NoHost", h)
	}
	if _, err := c.VM(1); !errors.Is(err, ErrUnknownVM) {
		t.Fatalf("VM(removed) err = %v, want ErrUnknownVM", err)
	}
	if got := c.UsedSlots(0); got != 0 {
		t.Fatalf("UsedSlots(0) = %d, want 0", got)
	}
	if got := c.FreeRAMMB(0); got != 4096 {
		t.Fatalf("FreeRAMMB(0) = %d, want 4096", got)
	}
	// The freed ID is reusable — a destroyed instance's slot recycles.
	if err := c.AddVM(VM{ID: 1, RAMMB: 512}); err != nil {
		t.Fatalf("re-AddVM after Remove: %v", err)
	}
	if err := c.Remove(1); err != nil { // unplaced removal: no change event
		t.Fatalf("Remove unplaced: %v", err)
	}
	if events != 1 {
		t.Fatalf("unplaced removal fired a change event (%d total)", events)
	}
	if err := c.Remove(99); !errors.Is(err, ErrUnknownVM) {
		t.Fatalf("Remove unknown err = %v, want ErrUnknownVM", err)
	}
}

func TestRespecCapacity(t *testing.T) {
	c := lifecycleCluster(t)
	// Grow within capacity: 1024 → 4096 fits exactly (host has 4096).
	if err := c.Respec(1, 4096, 0); err != nil {
		t.Fatalf("Respec grow: %v", err)
	}
	if got := c.FreeRAMMB(0); got != 0 {
		t.Fatalf("FreeRAMMB after grow = %d, want 0", got)
	}
	// A second VM no longer fits host 0.
	if err := c.AddVM(VM{ID: 3, RAMMB: 1}); err != nil {
		t.Fatal(err)
	}
	if c.Fits(3, 0) {
		t.Fatal("Fits(3, 0) after respec-grow, want false")
	}
	// Grow beyond capacity: rejected, state unchanged.
	if err := c.Respec(2, 8192, 0); !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("Respec beyond capacity err = %v, want ErrNoCapacity", err)
	}
	if vm, _ := c.VM(2); vm.RAMMB != 1024 {
		t.Fatalf("failed respec mutated demand: %+v", vm)
	}
	// Shrink releases capacity.
	if err := c.Respec(1, 256, 0); err != nil {
		t.Fatalf("Respec shrink: %v", err)
	}
	if got := c.FreeRAMMB(0); got != 4096-256 {
		t.Fatalf("FreeRAMMB after shrink = %d, want %d", got, 4096-256)
	}
	if err := c.Respec(9, 10, 0); !errors.Is(err, ErrUnknownVM) {
		t.Fatalf("Respec unknown err = %v, want ErrUnknownVM", err)
	}
	if err := c.Respec(1, -1, 0); err == nil {
		t.Fatal("Respec negative demand accepted")
	}
}

func TestRespecCPUCapacity(t *testing.T) {
	hosts := []Host{{ID: 0, Slots: 4, RAMMB: 4096, NICMbps: 1000, CPUMilli: 2000}}
	c, err := New(hosts)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddVM(VM{ID: 1, RAMMB: 256, CPUMilli: 1500}); err != nil {
		t.Fatal(err)
	}
	if err := c.Place(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Respec(1, 256, 2000); err != nil {
		t.Fatalf("Respec to full CPU: %v", err)
	}
	if err := c.Respec(1, 256, 2001); !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("Respec over CPU err = %v, want ErrNoCapacity", err)
	}
	if got := c.FreeCPUMilli(0); got != 0 {
		t.Fatalf("FreeCPUMilli = %d, want 0", got)
	}
}

// TestRespecNotifiesCapacityObserversOnly: a successful re-spec reaches
// ObserveRespec with the VM and its host; a failed one reaches nobody;
// placement observers never hear of either.
func TestRespecNotifiesCapacityObserversOnly(t *testing.T) {
	c := lifecycleCluster(t)
	placement := 0
	c.Observe(func(VMID, HostID, HostID) { placement++ }, func() { placement++ })
	type ev struct {
		vm   VMID
		host HostID
	}
	var got []ev
	unobserve := c.ObserveRespec(func(vm VMID, host HostID) { got = append(got, ev{vm, host}) })

	if err := c.Respec(2, 512, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Respec(2, 1<<20, 0); !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("oversized Respec err = %v, want ErrNoCapacity", err)
	}
	if err := c.AddVM(VM{ID: 3, RAMMB: 64}); err != nil {
		t.Fatal(err)
	}
	if err := c.Respec(3, 128, 0); err != nil {
		t.Fatal(err)
	}
	want := []ev{{2, 1}, {3, NoHost}}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("respec observer saw %v, want %v", got, want)
	}
	if placement != 0 {
		t.Fatalf("placement observers fired %d times on re-specs", placement)
	}
	unobserve()
	if err := c.Respec(2, 256, 0); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatal("unregistered respec observer still fires")
	}
}

// TestDenseSpan: DenseAlloc's (base, length) is the ID window — the only
// IDs that can be registered — which consumers size their own per-VM
// tables from.
func TestDenseSpan(t *testing.T) {
	c, err := New(UniformHosts(1, 4, 4096, 1000))
	if err != nil {
		t.Fatal(err)
	}
	if _, alloc := c.DenseAlloc(); len(alloc) != 0 {
		t.Fatal("empty cluster reports an ID window")
	}
	for id := VMID(10); id < 14; id++ {
		if err := c.AddVM(VM{ID: id}); err != nil {
			t.Fatal(err)
		}
	}
	base, alloc := c.DenseAlloc()
	if base > 10 || int64(base)+int64(len(alloc)) < 14 {
		t.Fatalf("DenseAlloc = (%d, %d entries), want a window covering 10..13", base, len(alloc))
	}
}
