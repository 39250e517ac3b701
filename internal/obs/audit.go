package obs

import (
	"math"
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

// ParseVerdict is VerdictString's inverse; unknown strings return false.
func ParseVerdict(s string) (uint8, bool) {
	switch s {
	case "merged":
		return VerdictMerged, true
	case "stale":
		return VerdictStale, true
	case "cross_applied":
		return VerdictCrossApplied, true
	case "cross_rejected":
		return VerdictCrossRejected, true
	}
	return 0, false
}

// AuditRing is a fixed-capacity ring buffer of AuditRecords (see ring) —
// the decision-provenance analogue of the Tracer. Append overwrites the
// oldest record once full and never allocates. Len, Dropped and Snapshot
// (oldest first, i.e. ascending Seq) are the ring's. Per-migration detail
// belongs here, never in labeled metrics (see the cardinality rules in
// doc.go).
type AuditRing struct{ ring[AuditRecord] }

// NewAuditRing returns a ring retaining the most recent capacity records.
func NewAuditRing(capacity int) *AuditRing { return &AuditRing{newRing[AuditRecord](capacity)} }

// Append stores one record, stamping T if zero and assigning Seq.
func (a *AuditRing) Append(r AuditRecord) {
	if r.T == 0 {
		r.T = time.Now().UnixNano()
	}
	a.mu.Lock()
	r.Seq = a.next
	a.put(r)
	a.mu.Unlock()
}

// Select returns the retained records matching vm and round, oldest
// first; a negative filter value matches anything.
func (a *AuditRing) Select(vm, round int64) []AuditRecord {
	var out []AuditRecord
	for _, r := range a.Snapshot() {
		if vm >= 0 && int64(r.VM) != vm {
			continue
		}
		if round >= 0 && int64(r.Round) != round {
			continue
		}
		out = append(out, r)
	}
	return out
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

// Record reconstructs the fixed-size record from its JSON view; the ΔC
// values come from the bit patterns, never the decimal floats.
func (j AuditJSONRecord) Record() AuditRecord {
	v, _ := ParseVerdict(j.Verdict)
	return AuditRecord{
		Seq: j.Seq, T: j.T, Round: j.Round, Shard: j.Shard,
		Attempt: j.Attempt, Hop: j.Hop, VM: j.VM, From: j.From, To: j.To,
		Verdict: v, StagedBits: j.StagedBits, FinalBits: j.FinalBits,
	}
}

// JSONViews renders a record slice for encoding (never nil, so the
// empty ring encodes as [] rather than null).
func JSONViews(recs []AuditRecord) []AuditJSONRecord {
	out := make([]AuditJSONRecord, len(recs))
	for i, r := range recs {
		out[i] = r.JSONView()
	}
	return out
}
