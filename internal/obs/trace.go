package obs

import (
	"sort"
	"time"
)

// EventKind identifies a trace event type.
type EventKind uint8

const (
	// EvRoundStart marks the beginning of a scheduling round.
	EvRoundStart EventKind = iota + 1
	// EvRoundEnd closes a round; Value carries the round latency in seconds.
	EvRoundEnd
	// EvTokenVisit is an accepted per-visit ring ack; Arg is the hop count so
	// far, Attempt the token attempt the ack belongs to.
	EvTokenVisit
	// EvRingDone marks a ring finishing its pass; Arg is total hops, Value
	// the ring latency in seconds.
	EvRingDone
	// EvRegen records a token regeneration; Attempt is the NEW attempt number.
	EvRegen
	// EvSpurious records a stale ack witnessed after a regeneration (the old
	// token survived); Attempt is the stale attempt number.
	EvSpurious
	// EvEvict records a host eviction; Arg is the host id.
	EvEvict
	// EvVerdict records one merge-phase decision, written where the verdict
	// is reached (shard.Merge) and so in decision order. Code is a Verdict*
	// constant, Arg the VM id under every code, Shard the staging ring (-1
	// for cross-shard proposals), Value the realized ΔC for applied moves.
	EvVerdict
	// EvCompaction records a traffic-matrix arena compaction.
	EvCompaction
	// EvIngest records one applied ingest batch in the resident service;
	// Arg is the number of rate samples the batch carried, Code an
	// ingestOp* discriminator from internal/serve.
	EvIngest
)

// Verdict codes carried in Event.Code for EvVerdict events.
const (
	VerdictMerged        uint8 = iota // staged move merged
	VerdictStale                      // staged move dropped: re-validated to a loss, refused at apply, or withdrawn
	VerdictCrossApplied               // cross-shard proposal applied
	VerdictCrossRejected              // cross-shard proposal rejected
)

func (k EventKind) String() string {
	switch k {
	case EvRoundStart:
		return "round_start"
	case EvRoundEnd:
		return "round_end"
	case EvTokenVisit:
		return "token_visit"
	case EvRingDone:
		return "ring_done"
	case EvRegen:
		return "regen"
	case EvSpurious:
		return "spurious"
	case EvEvict:
		return "evict"
	case EvVerdict:
		return "verdict"
	case EvCompaction:
		return "compaction"
	case EvIngest:
		return "ingest"
	}
	return "unknown"
}

// Event is one fixed-size trace record. Fields are overloaded per kind (see
// the EventKind docs); unused fields are zero.
type Event struct {
	T       int64   // wall-clock nanoseconds (time.Time.UnixNano)
	Arg     int64   // kind-specific integer payload (hops, host, VM)
	Value   float64 // kind-specific float payload (latency seconds, ΔC)
	Round   uint32
	Attempt uint32
	Shard   int16 // -1 when not shard-scoped
	Kind    EventKind
	Code    uint8
}

// Tracer is a fixed-capacity ring buffer of Events (see ring): Record
// overwrites the oldest entry once full and never allocates. Len,
// Dropped and Snapshot (oldest first) are the ring's.
type Tracer struct{ ring[Event] }

// NewTracer returns a tracer holding the most recent capacity events.
func NewTracer(capacity int) *Tracer { return &Tracer{newRing[Event](capacity)} }

// Record appends one event, stamping T if it is zero.
func (t *Tracer) Record(e Event) {
	if e.T == 0 {
		e.T = time.Now().UnixNano()
	}
	t.mu.Lock()
	t.put(e)
	t.mu.Unlock()
}

// ShardSpan aggregates one shard's activity within a round.
type ShardSpan struct {
	Shard       int
	Acks        int     // accepted token-visit acks
	Hops        int     // final hop count (from EvRingDone, else last ack)
	Regens      int     // token regenerations
	Spurious    int     // stale acks witnessed after regeneration
	LastAttempt uint32  // highest attempt number seen
	Evicted     []int64 // hosts evicted while this shard held the failure
	Done        bool    // ring completed (EvRingDone seen)
	Latency     float64 // ring latency seconds (from EvRingDone)
}

// RoundSpan aggregates one round's events.
type RoundSpan struct {
	Round         uint32
	StartNS       int64
	EndNS         int64
	Latency       float64 // round latency seconds (from EvRoundEnd)
	Shards        []ShardSpan
	Merged        int
	Stale         int
	CrossApplied  int
	CrossRejected int
	Compactions   int
	Evicted       []int64 // all hosts evicted this round, in event order
}

// Shard returns the span for shard s, or nil.
func (r *RoundSpan) Shard(s int) *ShardSpan {
	for i := range r.Shards {
		if r.Shards[i].Shard == s {
			return &r.Shards[i]
		}
	}
	return nil
}

// Regens sums token regenerations across shards.
func (r *RoundSpan) Regens() int {
	n := 0
	for i := range r.Shards {
		n += r.Shards[i].Regens
	}
	return n
}

// Spans folds a Snapshot into per-round spans, in round order. Events before
// the oldest retained EvRoundStart still contribute to a span for their
// round, so a partially overwritten first round appears with partial data.
func Spans(events []Event) []RoundSpan {
	byRound := make(map[uint32]*RoundSpan)
	var order []uint32
	get := func(round uint32) *RoundSpan {
		rs, ok := byRound[round]
		if !ok {
			rs = &RoundSpan{Round: round}
			byRound[round] = rs
			order = append(order, round)
		}
		return rs
	}
	shardOf := func(rs *RoundSpan, s int16) *ShardSpan {
		for i := range rs.Shards {
			if rs.Shards[i].Shard == int(s) {
				return &rs.Shards[i]
			}
		}
		rs.Shards = append(rs.Shards, ShardSpan{Shard: int(s)})
		return &rs.Shards[len(rs.Shards)-1]
	}
	for _, e := range events {
		rs := get(e.Round)
		switch e.Kind {
		case EvRoundStart:
			rs.StartNS = e.T
		case EvRoundEnd:
			rs.EndNS = e.T
			rs.Latency = e.Value
		case EvTokenVisit:
			sp := shardOf(rs, e.Shard)
			sp.Acks++
			sp.Hops = int(e.Arg)
			if e.Attempt > sp.LastAttempt {
				sp.LastAttempt = e.Attempt
			}
		case EvRingDone:
			sp := shardOf(rs, e.Shard)
			sp.Done = true
			sp.Hops = int(e.Arg)
			sp.Latency = e.Value
			if e.Attempt > sp.LastAttempt {
				sp.LastAttempt = e.Attempt
			}
		case EvRegen:
			sp := shardOf(rs, e.Shard)
			sp.Regens++
			if e.Attempt > sp.LastAttempt {
				sp.LastAttempt = e.Attempt
			}
		case EvSpurious:
			shardOf(rs, e.Shard).Spurious++
		case EvEvict:
			sp := shardOf(rs, e.Shard)
			sp.Evicted = append(sp.Evicted, e.Arg)
			rs.Evicted = append(rs.Evicted, e.Arg)
		case EvVerdict:
			switch e.Code {
			case VerdictMerged:
				rs.Merged++
			case VerdictStale:
				rs.Stale++
			case VerdictCrossApplied:
				rs.CrossApplied++
			case VerdictCrossRejected:
				rs.CrossRejected++
			}
		case EvCompaction:
			rs.Compactions++
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	out := make([]RoundSpan, 0, len(order))
	for _, round := range order {
		out = append(out, *byRound[round])
	}
	return out
}
