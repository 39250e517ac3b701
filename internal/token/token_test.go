package token

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/score-dc/score/internal/cluster"
)

func ids(xs ...uint32) []cluster.VMID {
	out := make([]cluster.VMID, len(xs))
	for i, x := range xs {
		out[i] = cluster.VMID(x)
	}
	return out
}

func TestNewSortsAndDedups(t *testing.T) {
	tok := New(ids(5, 1, 9, 1, 3))
	if got := tok.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	es := tok.Entries()
	for i := 1; i < len(es); i++ {
		if es[i-1].ID >= es[i].ID {
			t.Fatalf("entries not strictly ascending: %v", es)
		}
	}
	for _, e := range es {
		if e.Level != 0 {
			t.Fatalf("initial level = %d, want 0 (paper init)", e.Level)
		}
	}
}

func TestRingsAndInject(t *testing.T) {
	lists := [][]cluster.VMID{
		{9, 3, 7},
		nil,
		{12},
	}
	rings := Rings(lists, 3)
	if len(rings) != 3 {
		t.Fatalf("Rings built %d tokens, want 3", len(rings))
	}
	if first, ok := rings[0].Inject(); !ok || first != 3 {
		t.Fatalf("ring 0 injection = %d,%v, want lowest ID 3", first, ok)
	}
	if rings[0].Level(9) != 3 || rings[0].Level(3) != 3 {
		t.Fatal("ring levels not preset")
	}
	if _, ok := rings[1].Inject(); ok {
		t.Fatal("empty ring reported an injection point")
	}
	if first, ok := rings[2].Inject(); !ok || first != 12 {
		t.Fatalf("singleton ring injection = %d,%v", first, ok)
	}
	// Rings are independent: mutating one leaves the others untouched.
	rings[0].SetLevel(3, 0)
	if rings[2].Level(12) != 3 {
		t.Fatal("mutating ring 0 leaked into ring 2")
	}
}

func TestLevelUpdates(t *testing.T) {
	tok := New(ids(1, 2, 3))
	tok.SetLevel(2, 3)
	if got := tok.Level(2); got != 3 {
		t.Fatalf("Level = %d, want 3", got)
	}
	tok.RaiseLevel(2, 1) // lower: ignored
	if got := tok.Level(2); got != 3 {
		t.Fatalf("RaiseLevel lowered the estimate to %d", got)
	}
	tok.RaiseLevel(2, 5)
	if got := tok.Level(2); got != 5 {
		t.Fatalf("RaiseLevel = %d, want 5", got)
	}
	tok.SetLevel(2, 1) // SetLevel may lower (holder knows its own level)
	if got := tok.Level(2); got != 1 {
		t.Fatalf("SetLevel = %d, want 1", got)
	}
	tok.SetLevel(99, 7) // unknown: ignored
	if tok.Has(99) {
		t.Fatal("unknown ID appeared")
	}
}

func TestSuccessorWraps(t *testing.T) {
	tok := New(ids(10, 20, 30))
	cases := []struct {
		at   cluster.VMID
		want cluster.VMID
	}{
		{10, 20}, {20, 30}, {30, 10},
		{15, 20}, // between entries
		{35, 10}, // past the end
		{5, 10},
	}
	for _, tc := range cases {
		got, ok := tok.Successor(tc.at)
		if !ok || got != tc.want {
			t.Fatalf("Successor(%d) = %d,%v, want %d", tc.at, got, ok, tc.want)
		}
	}
}

func TestRemove(t *testing.T) {
	tok := New(ids(1, 2, 3))
	tok.Remove(1)
	tok.Remove(4) // absent: no-op
	if tok.Has(1) || tok.Len() != 2 {
		t.Fatalf("Remove failed: %v", tok.Entries())
	}
	if es := tok.Entries(); es[0].ID != 2 || es[1].ID != 3 {
		t.Fatalf("order broken by Remove: %v", es)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tok := New(ids(1, 2, 300, 70000))
	tok.SetLevel(2, 3)
	tok.SetLevel(70000, 2)
	dec, err := Decode(tok.Encode())
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if dec.Len() != tok.Len() {
		t.Fatalf("Len = %d, want %d", dec.Len(), tok.Len())
	}
	for _, e := range tok.Entries() {
		if got := dec.Level(e.ID); got != e.Level {
			t.Fatalf("Level(%d) = %d, want %d", e.ID, got, e.Level)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(nil); err == nil {
		t.Fatal("nil buffer accepted")
	}
	tok := New(ids(1, 2))
	buf := tok.Encode()
	buf[0] ^= 0xff
	if _, err := Decode(buf); err == nil {
		t.Fatal("bad magic accepted")
	}
	buf = tok.Encode()
	buf[4] = 99
	if _, err := Decode(buf); err == nil {
		t.Fatal("bad version accepted")
	}
	buf = tok.Encode()
	if _, err := Decode(buf[:len(buf)-1]); err == nil {
		t.Fatal("truncated buffer accepted")
	}
	// Out-of-order entries rejected: swap the IDs of a two-entry token.
	two := New(ids(1, 2)).Encode()
	// Swap the two entry IDs to violate ascending order.
	copy(two[9:13], []byte{0, 0, 0, 2})
	copy(two[14:18], []byte{0, 0, 0, 1})
	if _, err := Decode(two); err == nil {
		t.Fatal("descending entries accepted")
	}
}

func TestEncodeRoundTripQuick(t *testing.T) {
	f := func(raw []uint32, levels []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		tok := New(ids(raw...))
		for i, e := range tok.Entries() {
			if i < len(levels) {
				tok.SetLevel(e.ID, levels[i])
			}
		}
		dec, err := Decode(tok.Encode())
		if err != nil {
			return false
		}
		if dec.Len() != tok.Len() {
			return false
		}
		for _, e := range tok.Entries() {
			if dec.Level(e.ID) != e.Level {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func view(holder cluster.VMID, own uint8, neigh map[cluster.VMID]uint8) HolderView {
	return HolderView{Holder: holder, OwnLevel: own, NeighborLevels: neigh}
}

func TestRoundRobinVisitsAllOncePerCycle(t *testing.T) {
	tok := New(ids(4, 8, 15, 16, 23, 42))
	pol := RoundRobin{}
	cur := cluster.VMID(4)
	seen := map[cluster.VMID]int{}
	for i := 0; i < tok.Len(); i++ {
		next, ok := pol.Next(tok, view(cur, 0, nil))
		if !ok {
			t.Fatal("ring broke")
		}
		seen[next]++
		cur = next
	}
	if len(seen) != tok.Len() {
		t.Fatalf("cycle visited %d distinct VMs, want %d", len(seen), tok.Len())
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("VM %d visited %d times in one cycle", id, n)
		}
	}
	if cur != 4 {
		t.Fatalf("cycle did not return to start: at %d", cur)
	}
}

func TestRoundRobinSingleVM(t *testing.T) {
	tok := New(ids(1))
	if _, ok := (RoundRobin{}).Next(tok, view(1, 0, nil)); ok {
		t.Fatal("single-VM ring returned a next holder")
	}
}

func TestHLFUpdatesLevels(t *testing.T) {
	tok := New(ids(1, 2, 3, 4))
	tok.SetLevel(1, 3) // the sweep reached holder 1 at level 3
	tok.SetLevel(3, 3)
	pol := HighestLevelFirst{}
	// Holder 1 is truly at level 2 now; neighbor 3 reports level 3,
	// neighbor 2 level 1.
	next, ok := pol.Next(tok, view(1, 2, map[cluster.VMID]uint8{3: 3, 2: 1}))
	if !ok {
		t.Fatal("no next")
	}
	if got := tok.Level(1); got != 2 {
		t.Fatalf("holder level not recorded: %d", got)
	}
	if got := tok.Level(3); got != 3 {
		t.Fatalf("neighbor level lost: %d", got)
	}
	if got := tok.Level(2); got != 1 {
		t.Fatalf("neighbor level not raised: %d", got)
	}
	// The sweep continues at the holder's *arrival* level (3): VM 3.
	if next != 3 {
		t.Fatalf("next = %d, want 3 (highest level first)", next)
	}
}

func TestHLFDescendsLevels(t *testing.T) {
	tok := New(ids(1, 2, 3))
	tok.SetLevel(1, 2) // sweep level as the token arrived
	tok.SetLevel(2, 1)
	tok.SetLevel(3, 0)
	pol := HighestLevelFirst{}
	// Nothing else recorded at 2 → descend to 1 → VM 2.
	next, ok := pol.Next(tok, view(1, 2, nil))
	if !ok || next != 2 {
		t.Fatalf("next = %d,%v, want 2", next, ok)
	}
}

// TestHLFFirstPassVisitsEveryone: with the paper's zero-initialized
// levels, the first pass must degenerate to a full ring walk (every VM
// visited once) while true levels get recorded.
func TestHLFFirstPassVisitsEveryone(t *testing.T) {
	members := ids(10, 20, 30, 40, 50)
	tok := New(members)
	pol := HighestLevelFirst{}
	cur := cluster.VMID(10)
	seen := map[cluster.VMID]bool{cur: true}
	for i := 0; i < len(members)-1; i++ {
		next, ok := pol.Next(tok, view(cur, 3, nil)) // every VM truly hot
		if !ok {
			t.Fatal("ring broke")
		}
		if seen[next] {
			t.Fatalf("VM %d revisited before the first pass completed", next)
		}
		seen[next] = true
		cur = next
	}
	if len(seen) != len(members) {
		t.Fatalf("first pass covered %d of %d VMs", len(seen), len(members))
	}
}

// TestHLFNoPingPongAfterMigration is the livelock regression test: a
// holder that just migrated (true level 0) next to its co-located peer
// must hand the token onward to the remaining hot VMs, not bounce
// between the localized pair forever.
func TestHLFNoPingPongAfterMigration(t *testing.T) {
	tok := New(ids(1, 2, 3, 4))
	for _, e := range tok.Entries() {
		tok.SetLevel(e.ID, 3) // sweep in progress: everyone known hot
	}
	pol := HighestLevelFirst{}
	// VM 1 migrated next to VM 2: both now truly level 0. Walk the ring
	// a few hops; VMs 3 and 4 (still hot) must both be reached — with
	// the buggy "scan from own updated level" reading the token bounced
	// 1↔2 forever and never got there.
	cur := cluster.VMID(1)
	own := map[cluster.VMID]uint8{1: 0, 2: 0, 3: 3, 4: 3}
	visited := map[cluster.VMID]bool{}
	for hop := 0; hop < 6; hop++ {
		next, ok := pol.Next(tok, view(cur, own[cur], nil))
		if !ok {
			t.Fatal("ring broke")
		}
		visited[next] = true
		cur = next
	}
	if !visited[3] || !visited[4] {
		t.Fatalf("sweep never escaped the localized pair: visited %v", visited)
	}
}

func TestHLFRestartsAtMaxLevelLowestID(t *testing.T) {
	tok := New(ids(5, 6, 7, 8))
	tok.SetLevel(6, 2)
	tok.SetLevel(7, 2)
	tok.SetLevel(8, 1)
	pol := HighestLevelFirst{}
	// Holder's own level is 0 and no other VM is recorded at level 0, so
	// the scan fails and the policy restarts at the lowest-ID VM among
	// the max-level ones: VM 6.
	next, ok := pol.Next(tok, view(5, 0, nil))
	if !ok || next != 6 {
		t.Fatalf("restart pick = %d,%v, want 6", next, ok)
	}
}

func TestHLFAlwaysTerminatesQuick(t *testing.T) {
	pol := HighestLevelFirst{}
	f := func(seed int64, n uint8, own uint8) bool {
		if n < 2 {
			return true
		}
		rng := rand.New(rand.NewSource(seed))
		members := make([]cluster.VMID, n)
		for i := range members {
			members[i] = cluster.VMID(i * 3)
		}
		tok := New(members)
		for _, e := range tok.Entries() {
			tok.SetLevel(e.ID, uint8(rng.Intn(4)))
		}
		holder := members[rng.Intn(len(members))]
		next, ok := pol.Next(tok, view(holder, own%4, nil))
		return ok && next != holder && tok.Has(next)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomPolicy(t *testing.T) {
	tok := New(ids(1, 2, 3, 4, 5))
	pol := &Random{Rng: rand.New(rand.NewSource(9))}
	seen := map[cluster.VMID]bool{}
	for i := 0; i < 200; i++ {
		next, ok := pol.Next(tok, view(1, 0, nil))
		if !ok {
			t.Fatal("random policy failed")
		}
		if next == 1 {
			t.Fatal("random policy returned the holder")
		}
		seen[next] = true
	}
	if len(seen) != 4 {
		t.Fatalf("random policy covered %d VMs, want 4", len(seen))
	}
}

func TestLowestLevelFirst(t *testing.T) {
	tok := New(ids(1, 2, 3))
	tok.SetLevel(2, 3)
	tok.SetLevel(3, 0)
	next, ok := (LowestLevelFirst{}).Next(tok, view(1, 2, nil))
	if !ok || next != 3 {
		t.Fatalf("LLF next = %d,%v, want 3 (lowest level)", next, ok)
	}
}

func TestByName(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, name := range []string{"rr", "round-robin", "hlf", "highest-level-first", "llf", "random"} {
		p, err := ByName(name, rng)
		if err != nil || p == nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("nope", rng); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if _, err := ByName("random", nil); err == nil {
		t.Fatal("random without rng accepted")
	}
}
