package cluster

import (
	"math/rand"
	"slices"
	"testing"
)

// TestMovesSinceReplaysTable drives a cluster with a generated stream of
// registrations inside and outside the ID window, placements, moves,
// self-moves, removals, re-specs, Restores and bursts of moves that
// outrun the changelog. From every generation a reader saw, MovesSince
// must either replay onto the table as it was then to give DenseAlloc —
// each change's From the host the replay holds, across window regrows —
// or refuse: exactly when the reader is more than the plant's VM slots of
// writes behind, or behind a Restore. A successful re-spec writes one
// entry with From == To, the VM's host.
func TestMovesSinceReplaysTable(t *testing.T) {
	const hosts, slots = 8, 16
	c, err := New(UniformHosts(hosts, slots, 1<<20, 0))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(37))
	randHost := func() HostID { return HostID(rng.Intn(hosts)) }
	for id := VMID(1000); id < 1100; id++ {
		if err := c.AddVM(VM{ID: id, RAMMB: 1}); err != nil {
			t.Fatal(err)
		}
		if id%5 != 0 {
			_ = c.Place(id, randHost())
		}
	}
	// randVM picks an ID of the window, registered or not; pick the first
	// ID from a random one on that satisfies want, ok == false if none.
	randVM := func() VMID {
		base, alloc := c.DenseAlloc()
		return base + VMID(rng.Intn(len(alloc)))
	}
	pick := func(want func(VMID) bool) (VMID, bool) {
		base, alloc := c.DenseAlloc()
		from := rng.Intn(len(alloc))
		for i := range alloc {
			if vm := base + VMID((from+i)%len(alloc)); want(vm) {
				return vm, true
			}
		}
		return 0, false
	}
	isPlaced := func(vm VMID) bool { return c.HostOf(vm) != NoHost }
	isUnplaced := func(vm VMID) bool { return c.registered(vm) && c.HostOf(vm) == NoHost }
	isFree := func(vm VMID) bool { return !c.registered(vm) }

	// A mark is a reader: the generation it saw and its copy of the table.
	type mark struct {
		gen   uint64
		base  VMID
		table []HostID
		reset bool // a Restore happened since
	}
	var marks []*mark
	var replays, refusedBehind, refusedReset, bursts, regrows, restores, acrossRegrow int
	check := func(step int, op string) {
		t.Helper()
		base, alloc := c.DenseAlloc()
		kept := marks[:0]
		for _, m := range marks {
			behind := c.MoveGeneration() - m.gen
			moves, ok := c.MovesSince(m.gen)
			switch {
			case m.reset && ok:
				t.Fatalf("step %d (%s): a reader behind a Restore was served %d changes", step, op, len(moves))
			case !m.reset && behind <= c.moveReach && !ok:
				t.Fatalf("step %d (%s): a reader %d writes behind was refused", step, op, behind)
			case !m.reset && behind > c.moveReach && ok:
				t.Fatalf("step %d (%s): a reader %d writes behind was served", step, op, behind)
			}
			if !ok {
				if m.reset {
					refusedReset++
				} else {
					refusedBehind++
				}
				continue // a refused reader stays refused: drop it
			}
			if uint64(len(moves)) != behind {
				t.Fatalf("step %d (%s): %d changes for %d writes", step, op, len(moves), behind)
			}
			// The replay spans the window then, the window now and every ID
			// logged: the window may have regrown since.
			lo, hi := min(m.base, base), max(m.base+VMID(len(m.table)), base+VMID(len(alloc)))
			for _, ch := range moves {
				lo, hi = min(lo, ch.VM), max(hi, ch.VM+1)
			}
			replay, want := make([]HostID, hi-lo), make([]HostID, hi-lo)
			for i := range replay {
				replay[i], want[i] = NoHost, NoHost
			}
			copy(replay[m.base-lo:], m.table)
			copy(want[base-lo:], alloc)
			for _, ch := range moves {
				i := ch.VM - lo
				if replay[i] != ch.From {
					t.Fatalf("step %d (%s): change %+v, but the replay has VM %d on %d", step, op, ch, ch.VM, replay[i])
				}
				replay[i] = ch.To
			}
			if !slices.Equal(replay, want) {
				t.Fatalf("step %d (%s): replaying %d changes does not give the table", step, op, len(moves))
			}
			if m.base != base || len(m.table) != len(alloc) {
				acrossRegrow++
			}
			replays++
			kept = append(kept, m)
		}
		marks = kept
		if len(marks) < 12 && rng.Intn(8) == 0 {
			marks = append(marks, &mark{gen: c.MoveGeneration(), base: base, table: slices.Clone(alloc)})
		}
	}
	resetAll := func() {
		for _, m := range marks {
			m.reset = true
		}
	}
	// unchanged asserts an op that writes no placement logs nothing.
	unchanged := func(step int, op string, gen uint64) {
		t.Helper()
		if c.MoveGeneration() != gen {
			t.Fatalf("step %d (%s): no placement written, generation %d → %d", step, op, gen, c.MoveGeneration())
		}
	}

	for step := 0; step < 5000; step++ {
		gen := c.MoveGeneration()
		var op string
		switch k := rng.Intn(40); {
		case k < 3:
			op = "AddVM inside the window"
			if vm, ok := pick(isFree); ok {
				if err := c.AddVM(VM{ID: vm, RAMMB: 1}); err != nil {
					t.Fatal(err)
				}
			}
			unchanged(step, op, gen)
		case k == 3 && rng.Intn(4) == 0 && len(c.alloc) < 1<<12: // each regrow doubles it
			op = "AddVM outside the window"
			base, alloc := c.DenseAlloc()
			vm := base + VMID(len(alloc)) + VMID(rng.Intn(8))
			if rng.Intn(2) == 0 && base > 8 {
				vm = base - 1 - VMID(rng.Intn(8))
			}
			if err := c.AddVM(VM{ID: vm, RAMMB: 1}); err != nil {
				t.Fatal(err)
			}
			if nb, na := c.DenseAlloc(); nb == base && len(na) == len(alloc) {
				t.Fatalf("step %d: VM %d did not regrow the window", step, vm)
			}
			regrows++
		case k < 10:
			op = "Place"
			vm := randVM()
			if rng.Intn(2) == 0 {
				vm, _ = pick(isUnplaced)
			}
			if c.Place(vm, randHost()) != nil {
				unchanged(step, op, gen)
			}
		case k < 20:
			op = "Move"
			vm, _ := pick(isPlaced)
			if c.Move(vm, randHost()) != nil {
				unchanged(step, op, gen)
			}
		case k < 22:
			op = "self-Move"
			if vm, ok := pick(isPlaced); ok {
				if err := c.Move(vm, c.HostOf(vm)); err != nil {
					t.Fatal(err)
				}
			}
			unchanged(step, op, gen)
		case k < 25:
			op = "Remove"
			_ = c.Remove(randVM())
		case k < 27:
			op = "Respec"
			vm := randVM()
			if c.Respec(vm, 1+rng.Intn(2), 0) != nil {
				unchanged(step, op, gen)
			} else if moves, _ := c.MovesSince(gen); len(moves) != 1 || moves[0] != (AllocChange{VM: vm, From: c.HostOf(vm), To: c.HostOf(vm)}) {
				t.Fatalf("step %d (%s): re-spec of VM %d logged %v", step, op, vm, moves)
			}
		case k == 29 && rng.Intn(4) == 0:
			op = "Restore"
			snap := c.Snapshot()
			for vm := range snap {
				if rng.Intn(4) == 0 {
					snap[vm] = NoHost
				}
			}
			if err := c.Restore(snap); err != nil {
				t.Fatal(err)
			}
			restores++
			resetAll()
		case k == 30 && rng.Intn(4) == 0:
			op = "a burst past the log"
			bursts++
			n := int(c.moveReach) + rng.Intn(4*int(c.moveReach))
			for i := 0; i < n; i++ {
				vm, _ := pick(isPlaced)
				_ = c.Move(vm, randHost())
			}
		default:
			op = "Move"
			vm, _ := pick(isPlaced)
			if c.Move(vm, randHost()) != nil {
				unchanged(step, op, gen)
			}
		}
		check(step, op)
	}
	if replays < 10000 || refusedBehind < 20 || refusedReset < 20 || bursts < 20 || regrows < 5 || restores < 5 || acrossRegrow < 20 {
		t.Fatalf("stream too tame: %d replays (%d across a regrow), %d refused behind, %d refused after a reset; %d bursts, %d regrows, %d Restores",
			replays, acrossRegrow, refusedBehind, refusedReset, bursts, regrows, restores)
	}
	t.Logf("%d replays (%d across a regrow), %d refused behind, %d refused after a reset; %d bursts, %d regrows, %d Restores",
		replays, acrossRegrow, refusedBehind, refusedReset, bursts, regrows, restores)
}
