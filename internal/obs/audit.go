package obs

import (
	"math"
	"sort"
	"time"
)

// AuditRecord is one fixed-size decision-provenance record: the full
// story of a single staged migration's journey through a reconciliation
// pass. StagedBits and FinalBits carry the IEEE-754 bit patterns of the
// staged ΔC (computed against the ring's frozen view) and the final ΔC
// (re-validated — and for applied moves realized — against the merged
// state), so a post-hoc reader can match the reconciler's committed
// moves bit for bit instead of through a lossy decimal rendering.
type AuditRecord struct {
	// T is the wall-clock append time (UnixNano); Seq the ring's
	// monotonic append sequence, so overwritten history is detectable
	// and retained records totally ordered.
	T   int64
	Seq uint64
	// StagedBits is math.Float64bits of the staged ΔC; FinalBits the
	// same for the re-validated (applied: realized) ΔC.
	StagedBits uint64
	FinalBits  uint64
	VM         uint32
	Round      uint32
	// Attempt is the token attempt the move was staged under (always 0
	// on the in-process plane; the regeneration sequence number on the
	// distributed one).
	Attempt uint32
	// Hop is the 0-based token-visit index at which the move was staged,
	// -1 when the plane does not track it.
	Hop      int32
	From, To int32
	// Shard is the ring that staged the move; for cross-shard proposals
	// it remains the *origin* shard when known, -1 otherwise.
	Shard int16
	// Verdict is a Verdict* code: merged / stale for intra-shard staged
	// moves, cross_applied / cross_rejected for cross-shard proposals.
	Verdict uint8
}

// StagedDelta returns the staged ΔC as a float.
func (r *AuditRecord) StagedDelta() float64 { return math.Float64frombits(r.StagedBits) }

// FinalDelta returns the re-validated/realized ΔC as a float.
func (r *AuditRecord) FinalDelta() float64 { return math.Float64frombits(r.FinalBits) }

// Applied reports whether the record's verdict landed the move.
func (r *AuditRecord) Applied() bool {
	return r.Verdict == VerdictMerged || r.Verdict == VerdictCrossApplied
}

// VerdictString renders a Verdict* code for JSON and logs.
func VerdictString(code uint8) string {
	switch code {
	case VerdictMerged:
		return "merged"
	case VerdictStale:
		return "stale"
	case VerdictCrossApplied:
		return "cross_applied"
	case VerdictCrossRejected:
		return "cross_rejected"
	}
	return "unknown"
}

// AuditRing is a fixed-capacity ring buffer of AuditRecords (see ring) —
// the decision-provenance analogue of the Tracer. Append overwrites the
// oldest record once full and never allocates. Len, Dropped and Snapshot
// (oldest first, i.e. ascending Seq) are the ring's. Per-migration detail
// belongs here, never in labeled metrics (see the cardinality rules in
// doc.go).
type AuditRing struct {
	ring[AuditRecord]
	// lastRound is the newest record's Round. disordered is set by the
	// first Append whose Round is below it, and is never cleared: until
	// then the retained window is in round order, and Select answers a
	// round query by binary search instead of a scan. Both are under mu.
	lastRound  uint32
	disordered bool
}

// NewAuditRing returns a ring retaining the most recent capacity records.
func NewAuditRing(capacity int) *AuditRing {
	return &AuditRing{ring: newRing[AuditRecord](capacity)}
}

// Append stores one record, stamping T if zero and assigning Seq.
func (a *AuditRing) Append(r AuditRecord) {
	if r.T == 0 {
		r.T = time.Now().UnixNano()
	}
	a.mu.Lock()
	if r.Round < a.lastRound {
		a.disordered = true
	}
	a.lastRound = r.Round
	r.Seq = a.next
	a.put(r)
	a.mu.Unlock()
}

// Select returns the retained records matching vm and round, oldest
// first; a negative filter value matches anything. A query by round
// alone on a ring in round order copies only that round's run.
func (a *AuditRing) Select(vm, round int64) []AuditRecord {
	if vm < 0 && round >= 0 {
		if out, ok := a.roundRun(round); ok {
			return out
		}
	}
	return a.filter(func(r *AuditRecord) bool {
		return (vm < 0 || int64(r.VM) == vm) && (round < 0 || int64(r.Round) == round)
	})
}

// roundRun copies round's records, found by binary search over the
// retained window (nil when there are none). It reports false, copying
// nothing, once the ring has left round order.
func (a *AuditRing) roundRun(round int64) ([]AuditRecord, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.disordered {
		return nil, false
	}
	k := a.retained()
	lo := sort.Search(k, func(i int) bool { return int64(a.buf[a.slot(i)].Round) >= round })
	hi := lo + sort.Search(k-lo, func(i int) bool { return int64(a.buf[a.slot(lo+i)].Round) > round })
	if lo == hi {
		return nil, true
	}
	return a.run(lo, hi), true
}

// AuditJSONRecord is the JSON wire form of an AuditRecord: the raw ΔC
// bit patterns ride alongside their float renderings, so the JSON is
// both operator-readable and bit-exact to decode.
type AuditJSONRecord struct {
	Seq         uint64  `json:"seq"`
	T           int64   `json:"t_ns"`
	Round       uint32  `json:"round"`
	Shard       int16   `json:"shard"`
	Attempt     uint32  `json:"attempt"`
	Hop         int32   `json:"hop"`
	VM          uint32  `json:"vm"`
	From        int32   `json:"from"`
	To          int32   `json:"to"`
	Verdict     string  `json:"verdict"`
	StagedBits  uint64  `json:"staged_bits"`
	FinalBits   uint64  `json:"final_bits"`
	StagedDelta float64 `json:"staged_delta"`
	FinalDelta  float64 `json:"final_delta"`
}

// JSONView renders a record for encoding.
func (r AuditRecord) JSONView() AuditJSONRecord {
	return AuditJSONRecord{
		Seq: r.Seq, T: r.T, Round: r.Round, Shard: r.Shard,
		Attempt: r.Attempt, Hop: r.Hop, VM: r.VM, From: r.From, To: r.To,
		Verdict: VerdictString(r.Verdict), StagedBits: r.StagedBits, FinalBits: r.FinalBits,
		StagedDelta: r.StagedDelta(), FinalDelta: r.FinalDelta(),
	}
}
