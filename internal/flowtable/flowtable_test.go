package flowtable

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func key(src, dst uint32, sp, dp uint16) Key {
	return Key{Src: IPv4(src), Dst: IPv4(dst), SrcPort: sp, DstPort: dp, Proto: 6}
}

func TestAddLookupDelete(t *testing.T) {
	tbl := New(4)
	now := time.Now()
	k := key(0x0a000001, 0x0a000002, 1000, 80)
	if !tbl.Add(k, now) {
		t.Fatal("Add returned false for a new flow")
	}
	if tbl.Add(k, now) {
		t.Fatal("Add returned true for a duplicate")
	}
	for _, ip := range []IPv4{k.Src, k.Dst} {
		if got := tbl.LookupByIP(ip); len(got) != 1 || got[0].Key != k || !got[0].Start.Equal(now) {
			t.Fatalf("LookupByIP(%v) = %+v, want the one flow", ip, got)
		}
	}
	if !tbl.Delete(k) {
		t.Fatal("Delete returned false")
	}
	if tbl.Delete(k) {
		t.Fatal("double Delete returned true")
	}
	for _, ip := range []IPv4{k.Src, k.Dst} {
		if got := tbl.LookupByIP(ip); len(got) != 0 {
			t.Fatalf("LookupByIP(%v) after delete = %+v", ip, got)
		}
	}
}

func TestLookupByIPBothDirections(t *testing.T) {
	tbl := New(8)
	now := time.Now()
	local := IPv4(0x0a000001)
	tbl.Add(Key{Src: local, Dst: 2, SrcPort: 1, DstPort: 2, Proto: 6}, now)
	tbl.Add(Key{Src: 3, Dst: local, SrcPort: 3, DstPort: 4, Proto: 6}, now)
	tbl.Add(Key{Src: 4, Dst: 5, SrcPort: 5, DstPort: 6, Proto: 6}, now)
	got := tbl.LookupByIP(local)
	if len(got) != 2 {
		t.Fatalf("LookupByIP found %d flows, want 2", len(got))
	}
	// Self-flow (local on both sides) must not be double counted.
	tbl.Add(Key{Src: local, Dst: local, SrcPort: 9, DstPort: 9, Proto: 6}, now)
	if got := tbl.LookupByIP(local); len(got) != 3 {
		t.Fatalf("LookupByIP with self-flow found %d, want 3", len(got))
	}
}

func TestGenerateKeysUnique(t *testing.T) {
	for _, set := range []TypeSet{Type1, Type2} {
		keys := GenerateKeys(set, 5000)
		seen := make(map[Key]bool, len(keys))
		for _, k := range keys {
			if seen[k] {
				t.Fatalf("type %d: duplicate key %+v", set, k)
			}
			seen[k] = true
		}
	}
	// Type-2 groups of 1000 share a source IP.
	keys := GenerateKeys(Type2, 3000)
	srcs := map[IPv4]int{}
	for _, k := range keys {
		srcs[k.Src]++
	}
	if len(srcs) != 3 {
		t.Fatalf("type-2 source IPs = %d, want 3", len(srcs))
	}
	// Type-1: all unique sources.
	keys = GenerateKeys(Type1, 3000)
	srcs = map[IPv4]int{}
	for _, k := range keys {
		srcs[k.Src]++
	}
	if len(srcs) != 3000 {
		t.Fatalf("type-1 source IPs = %d, want 3000", len(srcs))
	}
}

func TestConcurrentAccess(t *testing.T) {
	tbl := New(0) // zero-capacity hint: lazily initialized
	now := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := key(uint32(w), uint32(i), uint16(i), 80)
				tbl.Add(k, now)
				_ = tbl.LookupByIP(IPv4(w))
				if i%3 == 0 {
					tbl.Delete(k)
				}
			}
		}(w)
	}
	wg.Wait()
	// Consistency after concurrent churn: each worker's source index
	// holds exactly the flows it did not delete, and a deleted flow is
	// gone from both indexes.
	for w := 0; w < 8; w++ {
		own := 0
		for _, f := range tbl.LookupByIP(IPv4(w)) {
			if f.Key.Src == IPv4(w) {
				own++
			}
		}
		if own != 500-167 {
			t.Fatalf("worker %d: %d flows left, want %d", w, own, 500-167)
		}
		for i := 0; i < 500; i += 3 {
			for _, f := range tbl.LookupByIP(IPv4(i)) {
				if f.Key == key(uint32(w), uint32(i), uint16(i), 80) {
					t.Fatalf("deleted flow %+v still indexed by destination", f.Key)
				}
			}
		}
	}
}

func TestIPv4String(t *testing.T) {
	if got := IPv4(0x0a000001).String(); got != "10.0.0.1" {
		t.Fatalf("String = %q, want 10.0.0.1", got)
	}
}

// TestIndexConsistencyQuick: after arbitrary add/delete sequences, the
// per-IP indexes exactly cover the flow set.
func TestIndexConsistencyQuick(t *testing.T) {
	now := time.Now()
	f := func(ops []struct {
		Src, Dst uint8
		Del      bool
	}) bool {
		tbl := New(16)
		live := map[Key]bool{}
		for _, op := range ops {
			k := key(uint32(op.Src), uint32(op.Dst), 1, 1)
			if op.Del {
				tbl.Delete(k)
				delete(live, k)
			} else {
				tbl.Add(k, now)
				live[k] = true
			}
		}
		indexed := map[Key]bool{}
		for ip := 0; ip < 256; ip++ {
			for _, f := range tbl.LookupByIP(IPv4(ip)) {
				indexed[f.Key] = true
			}
		}
		if len(indexed) != len(live) {
			return false
		}
		for k := range live {
			found := false
			for _, f := range tbl.LookupByIP(k.Src) {
				if f.Key == k {
					found = true
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
