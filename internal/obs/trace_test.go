package obs

import (
	"sync"
	"testing"
)

func TestTracerRingWraps(t *testing.T) {
	tr := NewTracer(4)
	for i := 1; i <= 6; i++ {
		tr.Record(Event{Kind: EvTokenVisit, T: int64(i), Arg: int64(i)})
	}
	if tr.Len() != 4 {
		t.Fatalf("len = %d, want 4", tr.Len())
	}
	if tr.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", tr.Dropped())
	}
	snap := tr.Snapshot()
	for i, e := range snap {
		if want := int64(i + 3); e.Arg != want {
			t.Fatalf("snapshot[%d].Arg = %d, want %d (oldest-first order)", i, e.Arg, want)
		}
	}
}

func TestTracerPartialBuffer(t *testing.T) {
	tr := NewTracer(8)
	tr.Record(Event{Kind: EvRegen, T: 1})
	tr.Record(Event{Kind: EvEvict, T: 2})
	snap := tr.Snapshot()
	if len(snap) != 2 || snap[0].Kind != EvRegen || snap[1].Kind != EvEvict {
		t.Fatalf("partial snapshot wrong: %+v", snap)
	}
}

func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(1 << 10)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				tr.Record(Event{Kind: EvTokenVisit, T: 1, Shard: int16(w), Arg: int64(i)})
				if i%64 == 0 {
					tr.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := tr.Len(); got != 1<<10 {
		t.Fatalf("len = %d, want full buffer", got)
	}
	if want := uint64(8*5000) - 1<<10; tr.Dropped() != want {
		t.Fatalf("dropped = %d, want %d", tr.Dropped(), want)
	}
}

func TestSpansAggregation(t *testing.T) {
	events := []Event{
		{Kind: EvRoundStart, Round: 1, T: 100},
		{Kind: EvTokenVisit, Round: 1, Shard: 0, Arg: 1, Attempt: 1},
		{Kind: EvTokenVisit, Round: 1, Shard: 0, Arg: 2, Attempt: 1},
		{Kind: EvRegen, Round: 1, Shard: 0, Attempt: 2},
		{Kind: EvSpurious, Round: 1, Shard: 0, Attempt: 1},
		{Kind: EvTokenVisit, Round: 1, Shard: 0, Arg: 3, Attempt: 2},
		{Kind: EvEvict, Round: 1, Shard: 1, Arg: 42},
		{Kind: EvRingDone, Round: 1, Shard: 0, Arg: 5, Value: 0.25, Attempt: 2},
		{Kind: EvVerdict, Round: 1, Code: VerdictMerged, Arg: 7},
		{Kind: EvVerdict, Round: 1, Code: VerdictStale, Arg: 8},
		{Kind: EvVerdict, Round: 1, Code: VerdictCrossApplied, Arg: 9, Value: -3.5},
		{Kind: EvCompaction, Round: 1},
		{Kind: EvRoundEnd, Round: 1, T: 900, Value: 0.8},
		{Kind: EvRoundStart, Round: 2, T: 1000},
		{Kind: EvRegen, Round: 2, Shard: 1, Attempt: 2},
	}
	spans := Spans(events)
	if len(spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(spans))
	}
	r1 := spans[0]
	if r1.Round != 1 || r1.StartNS != 100 || r1.EndNS != 900 || r1.Latency != 0.8 {
		t.Fatalf("round 1 frame wrong: %+v", r1)
	}
	s0 := r1.Shard(0)
	if s0 == nil || s0.Acks != 3 || s0.Hops != 5 || s0.Regens != 1 || s0.Spurious != 1 {
		t.Fatalf("shard 0 span wrong: %+v", s0)
	}
	if s0.LastAttempt != 2 || !s0.Done || s0.Latency != 0.25 {
		t.Fatalf("shard 0 completion wrong: %+v", s0)
	}
	s1 := r1.Shard(1)
	if s1 == nil || len(s1.Evicted) != 1 || s1.Evicted[0] != 42 {
		t.Fatalf("shard 1 eviction wrong: %+v", s1)
	}
	if len(r1.Evicted) != 1 || r1.Evicted[0] != 42 {
		t.Fatalf("round evictions wrong: %+v", r1.Evicted)
	}
	if r1.Merged != 1 || r1.Stale != 1 || r1.CrossApplied != 1 || r1.CrossRejected != 0 {
		t.Fatalf("verdict counts wrong: %+v", r1)
	}
	if r1.Compactions != 1 {
		t.Fatalf("compactions = %d", r1.Compactions)
	}
	if r1.Regens() != 1 {
		t.Fatalf("round regens = %d", r1.Regens())
	}
	r2 := spans[1]
	if r2.Round != 2 || r2.Shard(1) == nil || r2.Shard(1).Regens != 1 {
		t.Fatalf("round 2 span wrong: %+v", r2)
	}
}
