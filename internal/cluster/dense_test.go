package cluster

import (
	"errors"
	"math/rand"
	"testing"
)

// TestHostOfDenseMirror drives the dense fast path with the
// IPv4-style sequential IDs the PlacementManager issues and checks it
// against the map semantics at every step.
func TestHostOfDenseMirror(t *testing.T) {
	c, err := New(UniformHosts(8, 4, 8192, 1000))
	if err != nil {
		t.Fatal(err)
	}
	pm := NewPlacementManager(c, 0x0a000001) // 10.0.0.1-style base
	rng := rand.New(rand.NewSource(1))
	var ids []VMID
	for i := 0; i < 24; i++ {
		id, err := pm.CreateVM(256)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := pm.PlaceRandom(rng); err != nil {
		t.Fatal(err)
	}
	check := func(context string) {
		t.Helper()
		// Cross-check HostOf against the independent per-host VM sets.
		for _, id := range ids {
			h := c.HostOf(id)
			if h == NoHost {
				t.Fatalf("%s: VM %d unplaced", context, id)
			}
			found := false
			for _, on := range c.VMsOn(h) {
				if on == id {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("%s: HostOf(%d) = %d but host set disagrees", context, id, h)
			}
		}
		total := 0
		for h := 0; h < c.NumHosts(); h++ {
			total += c.UsedSlots(HostID(h))
		}
		if total != len(ids) {
			t.Fatalf("%s: host sets carry %d VMs, want %d", context, total, len(ids))
		}
		// Unknown IDs — below, inside, and above the issued range.
		for _, id := range []VMID{0, 1, 0x0a000001 - 1, 0x0a000001 + 100, 0xffffffff} {
			if c.registered(id) {
				continue
			}
			if got := c.HostOf(id); got != NoHost {
				t.Fatalf("%s: HostOf(unknown %d) = %d, want NoHost", context, id, got)
			}
		}
	}
	check("after placement")
	for i := 0; i < 200; i++ {
		u := ids[rng.Intn(len(ids))]
		h := HostID(rng.Intn(c.NumHosts()))
		if c.HostOf(u) != h && c.Fits(u, h) {
			if err := c.Move(u, h); err != nil {
				t.Fatal(err)
			}
		}
	}
	check("after moves")

	snap := c.Snapshot()
	for i := 0; i < 50; i++ {
		u := ids[rng.Intn(len(ids))]
		h := HostID(rng.Intn(c.NumHosts()))
		if c.HostOf(u) != h && c.Fits(u, h) {
			_ = c.Move(u, h)
		}
	}
	if err := c.Restore(snap); err != nil {
		t.Fatal(err)
	}
	check("after restore")
	for _, id := range ids {
		if got, want := c.HostOf(id), snap[id]; got != want {
			t.Fatalf("restore: HostOf(%d) = %d, want %d", id, got, want)
		}
	}

	cp := c.Clone()
	for _, id := range ids {
		if cp.HostOf(id) != c.HostOf(id) {
			t.Fatalf("clone: HostOf(%d) differs", id)
		}
	}
}

// TestAddVMRefusesIDOutsideWindow is the density rule, the only one in
// the system: IDs that keep the registered span within 4 × VM slots + 2²⁰
// are admitted — per-tenant strides, one far-off ID, growth downward — and
// an ID past that is refused with ErrIDOutsideWindow, leaving population,
// window and every placement exactly as they were.
func TestAddVMRefusesIDOutsideWindow(t *testing.T) {
	c, err := New(UniformHosts(4, 4, 8192, 1000))
	if err != nil {
		t.Fatal(err)
	}
	ids := []VMID{10_000, 80_000, 20_000, 999_999, 1}
	for i, id := range ids {
		if err := c.AddVM(VM{ID: id, RAMMB: 128}); err != nil {
			t.Fatalf("AddVM(%d): %v", id, err)
		}
		if err := c.Place(id, HostID(i%c.NumHosts())); err != nil {
			t.Fatal(err)
		}
	}
	base, alloc := c.DenseAlloc()
	before := append([]HostID(nil), alloc...)
	for _, id := range []VMID{1 << 30, 4_000_000_000, 0xffffffff} {
		if err := c.AddVM(VM{ID: id, RAMMB: 128}); !errors.Is(err, ErrIDOutsideWindow) {
			t.Fatalf("AddVM(%d) = %v, want ErrIDOutsideWindow", id, err)
		}
		if _, err := c.VM(id); !errors.Is(err, ErrUnknownVM) {
			t.Fatalf("refused VM %d is registered (%v)", id, err)
		}
		nb, na := c.DenseAlloc()
		if c.NumVMs() != len(ids) || nb != base || len(na) != len(before) || &na[0] != &alloc[0] {
			t.Fatalf("refusing %d changed the cluster: %d VMs, window (%d, %d), was (%d, %d)",
				id, c.NumVMs(), nb, len(na), base, len(before))
		}
		for k, h := range na {
			if h != before[k] {
				t.Fatalf("refusing %d rewrote the placement of ID %d: %d, was %d", id, base+VMID(k), h, before[k])
			}
		}
	}
	for i, id := range ids {
		if got := c.HostOf(id); got != HostID(i%c.NumHosts()) {
			t.Fatalf("HostOf(%d) = %d, want %d", id, got, i%c.NumHosts())
		}
	}

	// The boundary, from a one-VM window where no padding blurs it.
	c, _ = New(UniformHosts(1, 4, 8192, 1000))
	if err := c.AddVM(VM{ID: 100}); err != nil {
		t.Fatal(err)
	}
	edge := VMID(100 + denseFactor*4 + denseSlack) // first ID past the rule
	if err := c.AddVM(VM{ID: edge}); !errors.Is(err, ErrIDOutsideWindow) {
		t.Fatalf("AddVM(%d) = %v, want ErrIDOutsideWindow", edge, err)
	}
	if err := c.AddVM(VM{ID: edge - 1}); err != nil {
		t.Fatalf("AddVM(%d), the last ID inside the rule: %v", edge-1, err)
	}
	if got := c.VMs(); len(got) != 2 || got[1] != edge-1 {
		t.Fatalf("VMs() = %v after admitting %d", got, edge-1)
	}
}

// TestWindowFollowsPopulation: a long-lived service issues ever higher
// IDs while old VMs leave. The window follows the registered IDs instead
// of spanning every ID ever issued — which would run into the density
// rule after 2²⁰ admissions and refuse every admission from then on.
func TestWindowFollowsPopulation(t *testing.T) {
	c, err := New(UniformHosts(1, 128, 1<<20, 1000))
	if err != nil {
		t.Fatal(err)
	}
	const live = 100
	for id := VMID(1); id < 2*denseSlack; id++ {
		if err := c.AddVM(VM{ID: id, RAMMB: 1}); err != nil {
			t.Fatalf("AddVM(%d) with %d VMs live: %v", id, c.NumVMs(), err)
		}
		if err := c.Place(id, 0); err != nil {
			t.Fatal(err)
		}
		if id > live {
			if err := c.Remove(id - live); err != nil {
				t.Fatal(err)
			}
		}
	}
	base, alloc := c.DenseAlloc()
	if len(alloc) > 4*live {
		t.Fatalf("window (%d, %d entries) for %d live VMs", base, len(alloc), c.NumVMs())
	}
	for _, id := range c.VMs() {
		if c.HostOf(id) != 0 {
			t.Fatalf("VM %d lost its placement as the window moved", id)
		}
	}
	if c.NumVMs() != live || c.UsedSlots(0) != live {
		t.Fatalf("%d VMs, %d slots used, want %d", c.NumVMs(), c.UsedSlots(0), live)
	}
}

// TestLiveStateReadmits: the rule does not depend on the population, so
// no sequence of admissions and removals reaches a state AddVM would not
// rebuild — in any order, which is what lets a snapshot of a live cluster
// replay. The geometric padding never takes the table past the rule
// either: an ID inside the table is always one the rule admits.
func TestLiveStateReadmits(t *testing.T) {
	hosts := UniformHosts(4, 4, 8192, 1000)
	c, _ := New(hosts)
	top := VMID(c.maxSpan) // with ID 1, exactly the widest legal span
	var ids []VMID
	for id := VMID(1); id < top; id += top / 50 {
		ids = append(ids, id)
	}
	ids = append(ids, top)
	for _, id := range ids {
		if err := c.AddVM(VM{ID: id}); err != nil {
			t.Fatalf("AddVM(%d): %v", id, err)
		}
	}
	if err := c.AddVM(VM{ID: top + 1}); !errors.Is(err, ErrIDOutsideWindow) {
		t.Fatalf("AddVM(%d) = %v, want ErrIDOutsideWindow", top+1, err)
	}
	if _, alloc := c.DenseAlloc(); int64(len(alloc)) > c.maxSpan {
		t.Fatalf("table of %d entries, the rule allows a span of %d", len(alloc), c.maxSpan)
	}
	for _, id := range ids[1 : len(ids)-1] { // retire the middle of the range
		if err := c.Remove(id); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		live := c.VMs()
		rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
		fresh, _ := New(hosts)
		for _, id := range live {
			if err := fresh.AddVM(VM{ID: id}); err != nil {
				t.Fatalf("replaying %v: AddVM(%d): %v", live, id, err)
			}
		}
		// Churn the live cluster on: admit and retire inside the span.
		id := 1 + VMID(rng.Int63n(int64(top)))
		if c.AddVM(VM{ID: id}) == nil && rng.Intn(2) == 0 {
			c.Remove(id)
		}
	}
}

// TestGrowWindow: the window arithmetic shared by the cluster's record
// table and the traffic matrix's row table.
func TestGrowWindow(t *testing.T) {
	const none = 1 << 40
	for _, tc := range []struct {
		name        string
		base        VMID
		first, last int
		id          VMID
		limit       int64
		wantBase    VMID
		wantSize    int
		wantOK      bool
	}{
		{"empty", 0, 0, -1, 700, none, 700, 1, true},
		{"up, padded above", 100, 0, 9, 110, none, 100, 20, true},
		{"up, far", 100, 0, 9, 1000, none, 100, 901, true},
		{"down, padded below", 100, 0, 9, 99, none, 90, 20, true},
		{"down, clamped at zero", 5, 0, 9, 2, none, 0, 20, true},
		{"vacated ends let go", 100, 40, 49, 200, none, 140, 61, true},
		{"padding stops at the limit", 100, 0, 9, 110, 15, 100, 15, true},
		{"exactly the limit", 100, 0, 9, 119, 20, 100, 20, true},
		{"past the limit", 100, 0, 9, 120, 20, 0, 0, false},
		{"past the limit, below", 100, 0, 9, 89, 20, 0, 0, false},
	} {
		nb, size, ok := GrowWindow(tc.base, tc.first, tc.last, tc.id, tc.limit)
		if nb != tc.wantBase || size != tc.wantSize || ok != tc.wantOK {
			t.Errorf("%s: GrowWindow(%d, %d, %d, %d, %d) = (%d, %d, %v), want (%d, %d, %v)", tc.name,
				tc.base, tc.first, tc.last, tc.id, tc.limit, nb, size, ok, tc.wantBase, tc.wantSize, tc.wantOK)
		}
	}
}

// TestHostOfGrowsDownward: registering an ID below the window's base
// re-anchors the tables.
func TestHostOfGrowsDownward(t *testing.T) {
	c, err := New(UniformHosts(2, 8, 8192, 1000))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []VMID{500, 510, 490, 505, 495} {
		if err := c.AddVM(VM{ID: id, RAMMB: 64}); err != nil {
			t.Fatal(err)
		}
	}
	if c.recBase > 490 || int(c.recBase)+len(c.recs) <= 510 {
		t.Fatalf("window (%d, %d) does not cover 490..510", c.recBase, len(c.recs))
	}
	for _, id := range []VMID{500, 510, 490, 505, 495} {
		if err := c.Place(id, 1); err != nil {
			t.Fatal(err)
		}
		if got := c.HostOf(id); got != 1 {
			t.Fatalf("HostOf(%d) = %d, want 1", id, got)
		}
	}
}

// TestHostOfAllocFree: the engine's hottest lookup must not allocate.
func TestHostOfAllocFree(t *testing.T) {
	c, err := New(UniformHosts(4, 8, 8192, 1000))
	if err != nil {
		t.Fatal(err)
	}
	pm := NewPlacementManager(c, 1)
	for i := 0; i < 16; i++ {
		if _, err := pm.CreateVM(128); err != nil {
			t.Fatal(err)
		}
	}
	if err := pm.PlaceLoadBalanced(); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(200, func() {
		c.HostOf(5)
		c.HostOf(9999) // unknown
	}); avg != 0 {
		t.Fatalf("HostOf allocates %v times per run, want 0", avg)
	}
}

// TestObservers: Place and Move notify change observers with the right
// transition; Restore notifies reset.
func TestObservers(t *testing.T) {
	c, err := New(UniformHosts(3, 4, 8192, 1000))
	if err != nil {
		t.Fatal(err)
	}
	type ev struct {
		vm       VMID
		from, to HostID
	}
	var changes []ev
	resets := 0
	c.Observe(func(vm VMID, from, to HostID) {
		changes = append(changes, ev{vm, from, to})
	}, func() { resets++ })

	if err := c.AddVM(VM{ID: 1, RAMMB: 64}); err != nil {
		t.Fatal(err)
	}
	if err := c.Place(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Move(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := c.Move(1, 2); err != nil { // no-op move: no event
		t.Fatal(err)
	}
	want := []ev{{1, NoHost, 0}, {1, 0, 2}}
	if len(changes) != len(want) {
		t.Fatalf("changes = %v, want %v", changes, want)
	}
	for i := range want {
		if changes[i] != want[i] {
			t.Fatalf("change %d = %v, want %v", i, changes[i], want[i])
		}
	}
	snap := c.Snapshot()
	if err := c.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if resets != 1 {
		t.Fatalf("resets = %d, want 1", resets)
	}
	if len(changes) != len(want) {
		t.Fatal("Restore fired per-VM change events")
	}

	// An unregistered observer must stop firing; unregistration is
	// idempotent and leaves other observers intact.
	extra := 0
	unobserve := c.Observe(func(VMID, HostID, HostID) { extra++ }, nil)
	if err := c.Move(1, 0); err != nil {
		t.Fatal(err)
	}
	if extra != 1 {
		t.Fatalf("extra observer fired %d times, want 1", extra)
	}
	unobserve()
	unobserve()
	if err := c.Move(1, 2); err != nil {
		t.Fatal(err)
	}
	if extra != 1 {
		t.Fatal("unregistered observer still firing")
	}
	if len(changes) != len(want)+2 {
		t.Fatalf("surviving observer missed events: %d", len(changes))
	}
}
