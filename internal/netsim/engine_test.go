package netsim

import (
	"math/rand"
	"slices"
	"testing"
)

// TestEngineOrderEqualsSortedSchedule: whatever the calls — Schedule and
// After with tied times, times in the past (clamped to now), callbacks
// that schedule more, RunUntil, Step, Stop and Resume — the engine runs
// its events in the order of a stable sort by (clamped time, schedule
// order), each at its clamped time. (at, seq) is a total order, so that
// holds for any correct heap.
func TestEngineOrderEqualsSortedSchedule(t *testing.T) {
	type scheduled struct {
		at float64
		id int
	}
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var want, got []scheduled
		var add func(depth int)
		add = func(depth int) {
			id := len(want)
			fn := func() {
				got = append(got, scheduled{e.Now(), id})
				if depth < 3 && rng.Intn(3) == 0 {
					add(depth + 1)
				}
				if rng.Intn(16) == 0 {
					e.Stop()
				}
			}
			// Small integer times: many ties, some in the past.
			if rng.Intn(2) == 0 {
				d := float64(rng.Intn(5) - 1)
				want = append(want, scheduled{e.Now() + max(d, 0), id})
				e.After(d, fn)
			} else {
				at := float64(rng.Intn(12))
				want = append(want, scheduled{max(at, e.Now()), id})
				e.Schedule(at, fn)
			}
		}
		for step := 0; step < 300; step++ {
			switch rng.Intn(5) {
			case 0, 1:
				add(0)
			case 2:
				e.Step()
			case 3:
				e.Resume()
				e.RunUntil(e.Now() + float64(rng.Intn(3)))
			case 4:
				e.Stop()
			}
		}
		for e.Pending() > 0 {
			e.Resume()
			e.Run()
		}
		slices.SortStableFunc(want, func(a, b scheduled) int {
			switch {
			case a.at < b.at:
				return -1
			case a.at > b.at:
				return 1
			}
			return 0
		})
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: ran %v,\nsorted schedule %v", seed, got, want)
		}
	}
}

// TestScheduleStepZeroAllocs: with the callback built once and the queue
// grown, scheduling and running an event allocates nothing — events are
// stored by value, not boxed.
func TestScheduleStepZeroAllocs(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 64; i++ {
		e.Schedule(float64(i%7), fn)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		e.After(0.5, fn)
		e.Schedule(e.Now()+1, fn)
		e.Step()
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("Schedule + Step: %v allocs, want 0", allocs)
	}
}
