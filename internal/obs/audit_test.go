package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
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

// scanSelect is Select's scan path, the reference its round index must
// reproduce.
func scanSelect(ar *AuditRing, vm, round int64) []AuditRecord {
	return ar.filter(func(r *AuditRecord) bool {
		return (vm < 0 || int64(r.VM) == vm) && (round < 0 || int64(r.Round) == round)
	})
}

// TestAuditRoundIndexEqualsScan: a query by round alone, answered by
// binary search over a ring in round order, returns exactly what the
// scan returns. Rounds of uneven length (some empty) fill a small ring
// many times over, so the window's oldest round is often half
// overwritten; every query asks round 0, each retained round, the
// absent ones between and before them, and rounds past the newest. A
// ring whose numbering then restarts leaves round order, and from then
// on Select scans.
func TestAuditRoundIndexEqualsScan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ar := NewAuditRing(64)
	check := func(stage string, maxRound int64) {
		t.Helper()
		for round := int64(0); round <= maxRound+2; round++ {
			got, want := ar.Select(-1, round), scanSelect(ar, -1, round)
			if !slices.Equal(got, want) || (got == nil) != (want == nil) {
				t.Fatalf("%s: Select(-1, %d) = %d records %v, scan %d records %v",
					stage, round, len(got), got, len(want), want)
			}
		}
		for _, round := range []int64{math.MaxUint32, math.MaxUint32 + 1, math.MaxInt64} {
			if got := ar.Select(-1, round); len(got) != 0 {
				t.Fatalf("%s: Select(-1, %d) = %d records, want none", stage, round, len(got))
			}
		}
	}
	check("empty ring", 0)
	var rounds []uint32 // every appended record's round, by Seq
	halfGone := 0       // round ends whose oldest retained round lost records
	for round := uint32(0); round < 60; round++ {
		for n := rng.Intn(24) * rng.Intn(2); n > 0; n-- {
			ar.Append(auditRec(uint32(len(rounds)), round, VerdictMerged, 1, 1))
			rounds = append(rounds, round)
			if n%5 == 0 {
				check("filling", int64(round))
			}
		}
		check("round end", int64(round))
		if d := ar.Dropped(); d > 0 && rounds[d-1] == rounds[d] {
			halfGone++
		}
	}
	if halfGone == 0 || ar.disordered {
		t.Fatalf("%d half-overwritten oldest rounds, disordered %v: want some, in round order", halfGone, ar.disordered)
	}
	// A second run that numbers its rounds from 0 again.
	for round := uint32(0); round < 4; round++ {
		for n := 0; n < 10; n++ {
			ar.Append(auditRec(uint32(n), round, VerdictStale, 1, 1))
			check("restarted", 60)
		}
	}
	if !ar.disordered {
		t.Fatal("a restarted numbering left the ring marked as in round order")
	}
}

// auditWireCases are records whose every field is at an edge of its
// wire rendering: ΔC bits for 0, −0, the smallest subnormal, values on
// either side of encoding/json's 1e-6 and 1e21 format switches, huge and
// negative floats, each also with final equal to staged; every verdict
// code and an unknown one; negative hops, shards and hosts; and integer
// extremes, max uint64 bits among them.
func auditWireCases() []AuditRecord {
	deltas := []float64{
		0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, 1e-7, -1e-7, 9.99e-7, 1e-6,
		0.1, math.Nextafter(0.1, 1), -2.5, 123456.789, 1e20, 9.99e20, 1e21, -1e21,
		1.5e300, math.MaxFloat64, -math.MaxFloat64, 5e-324, 1.2345678901234567e-300,
	}
	var recs []AuditRecord
	for i, staged := range deltas {
		final := deltas[(i*7+3)%len(deltas)]
		r := auditRec(uint32(i)*977, uint32(i), uint8(i%6), staged, final)
		r.Seq = uint64(i) << 40
		r.T = -int64(i) * 1e15
		r.Hop, r.Shard, r.From = -1, -1, -int32(i)
		recs = append(recs, r)
		r.FinalBits = r.StagedBits // landed at its staged price
		recs = append(recs, r)
	}
	recs = append(recs, AuditRecord{
		T: math.MaxInt64, Seq: math.MaxUint64, StagedBits: math.Float64bits(1), FinalBits: math.Float64bits(-1),
		VM: math.MaxUint32, Round: math.MaxUint32, Attempt: math.MaxUint32, Hop: math.MinInt32,
		From: math.MaxInt32, To: math.MinInt32, Shard: math.MinInt16, Verdict: math.MaxUint8,
	}, AuditRecord{T: math.MinInt64, Hop: math.MaxInt32, Shard: math.MaxInt16})
	return recs
}

// wantAuditJSON is the wire form by reflection: encoding/json over the
// records' views, as WriteAuditJSON wrote it before it appended.
func wantAuditJSON(recs []AuditRecord) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(JSONViews(recs))
	return buf.Bytes(), err
}

// sameAuditJSON fails t unless WriteAuditJSON writes exactly the bytes
// of encoding/json, or, where that refuses the records, fails as it
// does with nothing written.
func sameAuditJSON(t *testing.T, recs []AuditRecord) {
	t.Helper()
	want, wantErr := wantAuditJSON(recs)
	var got bytes.Buffer
	err := WriteAuditJSON(&got, recs)
	if wantErr != nil {
		if err == nil || err.Error() != wantErr.Error() || got.Len() != 0 {
			t.Fatalf("WriteAuditJSON = %v, wrote %d bytes; encoding/json refuses with %v", err, got.Len(), wantErr)
		}
		return
	}
	if err != nil || !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("WriteAuditJSON (err %v) wrote\n%s\nencoding/json writes\n%s", err, got.Bytes(), want)
	}
}

// TestAuditJSONMatchesEncodingJSON holds the appender to encoding/json's
// bytes on the edge records one by one and together, on no records, on
// random bit patterns (whose exponents cover both float formats), and
// on a NaN (max uint64 bits among them) or infinite ΔC, which both
// refuse.
func TestAuditJSONMatchesEncodingJSON(t *testing.T) {
	cases := auditWireCases()
	sameAuditJSON(t, nil)
	sameAuditJSON(t, []AuditRecord{})
	sameAuditJSON(t, cases)
	for i := range cases {
		sameAuditJSON(t, cases[i:i+1])
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		r := AuditRecord{
			T: int64(rng.Uint64()), Seq: rng.Uint64(), StagedBits: rng.Uint64(), FinalBits: rng.Uint64(),
			VM: rng.Uint32(), Round: rng.Uint32(), Attempt: rng.Uint32(), Hop: int32(rng.Uint32()),
			From: int32(rng.Uint32()), To: int32(rng.Uint32()), Shard: int16(rng.Uint32()), Verdict: uint8(rng.Uint32()),
		}
		if i%2 == 0 {
			// A finite ΔC of any magnitude: random sign and mantissa,
			// exponent anywhere but the all-ones NaN/Inf code.
			r.StagedBits = r.StagedBits&^(0x7ff<<52) | uint64(rng.Int63n(0x7ff))<<52
			r.FinalBits = r.FinalBits&^(0x7ff<<52) | uint64(rng.Int63n(0x7ff))<<52
		}
		sameAuditJSON(t, []AuditRecord{r})
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		sameAuditJSON(t, append(slices.Clone(cases), auditRec(1, 1, VerdictMerged, 1, bad)))
		sameAuditJSON(t, []AuditRecord{auditRec(1, 1, VerdictStale, bad, 1)})
	}
	maxBits := auditRec(1, 1, VerdictMerged, 1, 1)
	maxBits.FinalBits = math.MaxUint64 // a NaN
	sameAuditJSON(t, []AuditRecord{maxBits})
}

// FuzzAuditJSON holds the appender to encoding/json on one record of
// any field values; the checked-in seeds are the edge cases of
// TestAuditJSONMatchesEncodingJSON.
func FuzzAuditJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, seq uint64, tns int64, round uint32, shard int16, attempt uint32,
		hop int32, vm uint32, from, to int32, verdict uint8, staged, final uint64) {
		sameAuditJSON(t, []AuditRecord{{
			T: tns, Seq: seq, StagedBits: staged, FinalBits: final, VM: vm, Round: round,
			Attempt: attempt, Hop: hop, From: from, To: to, Shard: shard, Verdict: verdict,
		}})
	})
}
