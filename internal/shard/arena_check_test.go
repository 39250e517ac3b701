//go:build scorecheck

package shard

import (
	"strings"
	"testing"

	"github.com/score-dc/score/internal/cluster"
)

// mustPanic runs f and fails unless it panics with a message holding
// want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("no panic; want one naming %q", want)
		}
		if msg, _ := r.(string); !strings.Contains(msg, want) {
			t.Fatalf("panic %v; want one naming %q", r, want)
		}
	}()
	f()
}

// TestArenaGuardFires: under scorecheck, a ring pass handed a segment one
// entry short of its population panics even when its decisions never
// reach the missing entry, and a decision that repeats or reorders the
// walk, or commits that run into the proposals, panic where they happen.
func TestArenaGuardFires(t *testing.T) {
	eng := buildEngine(t, 4, 23, 10)
	coord, err := NewCoordinator(eng, Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.RunRound(); err != nil {
		t.Fatal(err)
	}
	seg := coord.plane.segment(0)
	if len(seg) == 0 {
		t.Fatal("ring 0 holds no VMs")
	}
	short := seg[: len(seg)-1 : len(seg)-1]
	view := eng.ResetView(coord.plane.views[0])
	mustPanic(t, "in a segment of", func() { coord.plane.ringPass(0, coord.part, view, short, &Ring{}) })

	mustPanic(t, "decided VM 7 after VM 7", func() { checkDecision(0, 7, 7, true, 0, 4) })
	mustPanic(t, "decided VM 6 after VM 7", func() { checkDecision(0, 6, 7, true, 0, 4) })
	mustPanic(t, "overran its proposals", func() { checkDecision(0, 8, 7, true, 4, 3) })
	checkDecision(0, cluster.VMID(0), 0, false, 3, 3) // the pass's first decision, filling its segment
}
