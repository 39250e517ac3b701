package obs

import (
	"slices"
	"testing"
)

// TestRingLastIsSnapshotTail: for every fill level of a small ring —
// empty, partial, full, and several laps of wraparound — Last(n) is the
// last n records of Snapshot, and an n past Len (or a negative one)
// returns everything (or nothing).
func TestRingLastIsSnapshotTail(t *testing.T) {
	const capacity = 7
	g := NewRing[int](capacity)
	for put := 0; put <= 4*capacity+3; put++ {
		if put > 0 {
			g.Put(put)
		}
		snap := g.Snapshot()
		if len(snap) != g.Len() {
			t.Fatalf("after %d puts: Snapshot has %d records, Len %d", put, len(snap), g.Len())
		}
		for n := 0; n <= capacity+2; n++ {
			want := snap[len(snap)-min(n, len(snap)):]
			if got := g.Last(n); !slices.Equal(got, want) || got == nil {
				t.Fatalf("after %d puts: Last(%d) = %v, want %v", put, n, got, want)
			}
		}
		if got := g.Last(-1); len(got) != 0 {
			t.Fatalf("after %d puts: Last(-1) = %v", put, got)
		}
		if got := g.Last(g.Len() + 100); !slices.Equal(got, snap) {
			t.Fatalf("after %d puts: Last(Len+100) = %v, want %v", put, got, snap)
		}
	}
}
