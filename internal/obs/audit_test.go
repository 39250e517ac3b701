package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"sync"
	"testing"
)

func auditRec(vm uint32, round uint32, verdict uint8, staged, final float64) AuditRecord {
	return AuditRecord{
		T:          1,
		StagedBits: math.Float64bits(staged),
		FinalBits:  math.Float64bits(final),
		VM:         vm, Round: round, Attempt: 2, Hop: 7,
		From: 3, To: 9, Shard: 1, Verdict: verdict,
	}
}

func TestAuditRingWrapsAndOrders(t *testing.T) {
	ar := NewAuditRing(4)
	for i := 0; i < 6; i++ {
		ar.Append(auditRec(uint32(i), 1, VerdictMerged, 1, 1))
	}
	if got := ar.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	if got := ar.Dropped(); got != 2 {
		t.Fatalf("Dropped = %d, want 2", got)
	}
	snap := ar.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot len = %d, want 4", len(snap))
	}
	for i, r := range snap {
		if want := uint64(i + 2); r.Seq != want {
			t.Fatalf("snapshot[%d].Seq = %d, want %d (oldest-first)", i, r.Seq, want)
		}
		if r.VM != uint32(i+2) {
			t.Fatalf("snapshot[%d].VM = %d, want %d", i, r.VM, i+2)
		}
	}
}

func TestAuditRingSelect(t *testing.T) {
	ar := NewAuditRing(16)
	ar.Append(auditRec(10, 1, VerdictMerged, 1, 1))
	ar.Append(auditRec(11, 1, VerdictStale, 1, 0))
	ar.Append(auditRec(10, 2, VerdictCrossApplied, 2, 2))
	if got := len(ar.Select(10, -1)); got != 2 {
		t.Fatalf("Select(vm=10) = %d records, want 2", got)
	}
	if got := len(ar.Select(-1, 1)); got != 2 {
		t.Fatalf("Select(round=1) = %d records, want 2", got)
	}
	got := ar.Select(10, 2)
	if len(got) != 1 || got[0].Verdict != VerdictCrossApplied {
		t.Fatalf("Select(10, 2) = %+v, want the one cross_applied record", got)
	}
	if got := len(ar.Select(99, -1)); got != 0 {
		t.Fatalf("Select(vm=99) = %d records, want 0", got)
	}
}

// TestAuditSelectEqualsSnapshotFilter: Select, which filters in place
// under the ring's lock, returns what filtering a Snapshot returns —
// before the ring fills, as it wraps, and after many wraps.
func TestAuditSelectEqualsSnapshotFilter(t *testing.T) {
	ar := NewAuditRing(8)
	for i := 0; i < 40; i++ {
		ar.Append(auditRec(uint32(i%3), uint32(i/5), VerdictMerged, 1, 1))
		snap := ar.Snapshot()
		for vm := int64(-1); vm <= 3; vm++ {
			for round := int64(-1); round <= 8; round++ {
				var want []AuditRecord
				for _, r := range snap {
					if (vm < 0 || int64(r.VM) == vm) && (round < 0 || int64(r.Round) == round) {
						want = append(want, r)
					}
				}
				if got := ar.Select(vm, round); !slices.Equal(got, want) {
					t.Fatalf("after %d appends, Select(%d, %d) = %+v, snapshot filter %+v", i+1, vm, round, got, want)
				}
			}
		}
	}
}

// TestAuditAppendAllocFree is the hard gate of the audit hot path: a
// record append must not allocate, or leaving auditing on in production
// rounds would feed the GC per staged move.
func TestAuditAppendAllocFree(t *testing.T) {
	ar := NewAuditRing(1024)
	rec := auditRec(1, 1, VerdictMerged, -2.5, -2.5)
	if n := testing.AllocsPerRun(1000, func() { ar.Append(rec) }); n != 0 {
		t.Fatalf("AuditRing.Append allocates %.1f times per record, want 0", n)
	}
}

func TestAuditRingConcurrent(t *testing.T) {
	ar := NewAuditRing(256)
	const writers, each = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				ar.Append(auditRec(uint32(w), uint32(i), VerdictMerged, 1, 1))
				if i%100 == 0 {
					ar.Snapshot()
					ar.Select(int64(w), -1)
				}
			}
		}(w)
	}
	wg.Wait()
	if got := ar.Len(); got != 256 {
		t.Fatalf("Len = %d after %d appends, want 256", got, writers*each)
	}
	if got, want := ar.Dropped(), uint64(writers*each-256); got != want {
		t.Fatalf("Dropped = %d, want %d", got, want)
	}
	snap := ar.Snapshot()
	for i := 1; i < len(snap); i++ {
		if snap[i].Seq != snap[i-1].Seq+1 {
			t.Fatalf("snapshot seqs not contiguous: %d then %d", snap[i-1].Seq, snap[i].Seq)
		}
	}
}

// TestAuditJSONRoundTrip drives a record through the JSON wire form and
// back, requiring the ΔC bit patterns — including ones a float64
// decimal rendering would mangle — to survive exactly.
func TestAuditJSONRoundTrip(t *testing.T) {
	// 0.1 has an infinite binary expansion; nextafter values differ in
	// the last ulp only. Both must round-trip bit-for-bit.
	staged := 0.1
	final := math.Nextafter(0.1, 1)
	orig := auditRec(42, 7, VerdictCrossRejected, staged, final)
	orig.Seq = 99

	var buf bytes.Buffer
	if err := WriteAuditJSON(&buf, []AuditRecord{orig}); err != nil {
		t.Fatal(err)
	}
	var views []AuditJSONRecord
	if err := json.Unmarshal(buf.Bytes(), &views); err != nil {
		t.Fatal(err)
	}
	if len(views) != 1 {
		t.Fatalf("decoded %d records, want 1", len(views))
	}
	got := views[0].Record()
	if got != orig {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, orig)
	}
	if got.StagedDelta() != staged || got.FinalDelta() != final {
		t.Fatalf("ΔC floats corrupted: staged %v final %v", got.StagedDelta(), got.FinalDelta())
	}
	if views[0].Verdict != "cross_rejected" {
		t.Fatalf("verdict rendered %q", views[0].Verdict)
	}
}

func TestWriteAuditJSONEmptyIsArray(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteAuditJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if got := string(bytes.TrimSpace(buf.Bytes())); got != "[]" {
		t.Fatalf("empty ring encodes as %q, want []", got)
	}
}

func TestVerdictStringParseInverse(t *testing.T) {
	for _, code := range []uint8{VerdictMerged, VerdictStale, VerdictCrossApplied, VerdictCrossRejected} {
		s := VerdictString(code)
		back, ok := ParseVerdict(s)
		if !ok || back != code {
			t.Fatalf("ParseVerdict(VerdictString(%d)) = %d, %v", code, back, ok)
		}
	}
	if s := VerdictString(200); s != "unknown" {
		t.Fatalf("VerdictString(200) = %q", s)
	}
	if _, ok := ParseVerdict("bogus"); ok {
		t.Fatal("ParseVerdict accepted garbage")
	}
}
