package obs

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

// JSONViews renders a record slice as encoding/json's input for the wire
// form (never nil, so no records encode as [] rather than null). The
// conformance tests hold WriteAuditJSON's bytes equal to its encoding.
func JSONViews(recs []AuditRecord) []AuditJSONRecord {
	out := make([]AuditJSONRecord, len(recs))
	for i, r := range recs {
		out[i] = r.JSONView()
	}
	return out
}
