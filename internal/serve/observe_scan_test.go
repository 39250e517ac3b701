package serve

import (
	"bytes"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"github.com/score-dc/score/internal/cluster"
)

// appendObserveBody encodes an observe body the way the benchmark's
// client (bench/run/daemon.go appendObserve) and any append-style
// exporter would: no whitespace, keys in declaration order, integers by
// AppendUint, rates by AppendFloat 'g' -1.
func appendObserveBody(dst []byte, source string, samples []RateSample) []byte {
	dst = append(dst, `{"source":"`...)
	dst = append(dst, source...)
	dst = append(dst, `","samples":[`...)
	for i, s := range samples {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"a":`...)
		dst = strconv.AppendUint(dst, uint64(s.A), 10)
		dst = append(dst, `,"b":`...)
		dst = strconv.AppendUint(dst, uint64(s.B), 10)
		dst = append(dst, `,"rate_mbps":`...)
		dst = strconv.AppendFloat(dst, s.RateMbps, 'g', -1, 64)
		dst = append(dst, '}')
	}
	return append(dst, "]}"...)
}

// benchShapedSamples draws n samples shaped like the ingest workload's:
// endpoints over a 30,720-VM plant, rates rounded to three decimals,
// some zero (retirements).
func benchShapedSamples(rng *rand.Rand, n int) []RateSample {
	out := make([]RateSample, n)
	for i := range out {
		out[i] = RateSample{
			A:        cluster.VMID(1 + rng.Intn(30720)),
			B:        cluster.VMID(1 + rng.Intn(30720)),
			RateMbps: math.Round((0.05+100*rng.Float64())*1000) / 1000,
		}
		if rng.Intn(7) == 0 {
			out[i].RateMbps = 0
		}
	}
	return out
}

// agreesWithReference fails t unless the reference decoder takes body
// and yields exactly what the scanner yielded.
func agreesWithReference(t *testing.T, body, source []byte, samples []RateSample) {
	t.Helper()
	var ref observeBody
	if err := decodeStrict(bytes.NewReader(body), &ref); err != nil {
		t.Fatalf("scanner accepted %q, reference refuses it: %v", body, err)
	}
	if string(source) != ref.Source {
		t.Fatalf("body %q: scanner source %q, reference %q", body, source, ref.Source)
	}
	if len(samples) != len(ref.Samples) || len(samples) > maxBatchSamples {
		t.Fatalf("body %q: scanner %d samples, reference %d", body, len(samples), len(ref.Samples))
	}
	for i, s := range samples {
		r := ref.Samples[i]
		if uint32(s.A) != r.A || uint32(s.B) != r.B || math.Float64bits(s.RateMbps) != math.Float64bits(r.RateMbps) {
			t.Fatalf("body %q: sample %d: scanner %+v, reference %+v", body, i, s, r)
		}
	}
}

// observeSeeds is the scanner's contract by example, and the fuzz
// corpus: bodies it must take (the fast path exists only if it does) and
// bodies it must leave to the reference.
func observeSeeds() (accepted, declined []string) {
	const one = `{"a":1,"b":2,"rate_mbps":9}`
	benchShaped := string(appendObserveBody(nil, "bench", benchShapedSamples(rand.New(rand.NewSource(1)), 64)))
	accepted = []string{
		benchShaped,
		`{"source":"t","samples":[` + one + `]}`,
		`{"samples":[{"rate_mbps":9,"b":2,"a":1}],"source":"t"}`,
		" \t\r\n{ \"source\" : \"t\" ,\n\"samples\" : [ { \"a\" : 1 , \"b\" : 2 , \"rate_mbps\" : 9 } , {\t} ] } \r\n",
		`{"source":"t","samples":[{"a":1,"b":2,"rate_mbps":1.25e1},{"a":3,"b":4,"rate_mbps":5E-1},{"a":3,"b":4,"rate_mbps":-0},{"a":3,"b":4,"rate_mbps":-1e+2},{"a":3,"b":4,"rate_mbps":1e-400}]}`,
		`{"source":"t","samples":[{"a":4294967295,"b":0,"rate_mbps":0.000}]}`,
		`{"source":"dom0-é-世","samples":[` + one + `]}`,
		`{"source":"","samples":[{"a":1,"b":2}]}`,
		`{"samples":[` + one + `]}`,
		`{"source":"t","samples":[]}`,
		`{"source":"t"}`,
		`{}`,
		repeatSamples(maxBatchSamples, "{}"),
	}
	declined = []string{
		`{"source":"t","samples":[{"a":1,"b":2,"rate_mbps":1e400}]}`,
		`{"source":"t","samples":[{"a":4294967296,"b":2,"rate_mbps":9}]}`,
		`{"source":"t","samples":[{"a":01,"b":2,"rate_mbps":9}]}`,
		`{"source":"t","samples":[{"a":1.0,"b":2,"rate_mbps":9}]}`,
		`{"source":"t","samples":[{"a":1e0,"b":2,"rate_mbps":9}]}`,
		`{"source":"t","samples":[{"a":-1,"b":2,"rate_mbps":9}]}`,
		`{"source":"t","samples":[{"A":1,"b":2,"rate_mbps":9}]}`,
		`{"Source":"t","samples":[` + one + `]}`,
		`{"ſource":"t","samples":[` + one + `]}`,
		`{"source":"t","samples":[{"a":1,"a":3,"b":2,"rate_mbps":9}]}`,
		`{"source":"t","source":"u","samples":[` + one + `]}`,
		`{"source":"t","samples":null}`,
		`{"source":null,"samples":[` + one + `]}`,
		`{"source":"t","samples":[null]}`,
		`{"source":"t\n","samples":[` + one + `]}`,
		"{\"source\":\"t\xff\",\"samples\":[" + one + "]}",
		"{\"source\":\"t\x01\",\"samples\":[" + one + "]}",
		`{"source":"t","samples":[{"a":1,"b":2,"rate_mbps":01}]}`,
		`{"source":"t","samples":[{"a":1,"b":2,"rate_mbps":1.}]}`,
		`{"source":"t","samples":[{"a":1,"b":2,"rate_mbps":.5}]}`,
		`{"source":"t","samples":[{"a":1,"b":2,"rate_mbps":+1}]}`,
		`{"source":"t","samples":[{"a":1,"b":2,"rate_mbps":1e}]}`,
		`{"source":"t","samples":[{"a":1,"b":2,"rate_mbps":NaN}]}`,
		`{"source":"t","samples":[{"a":1,"b":2,"rate_mbps":"9"}]}`,
		`{"source":"t","samples":[{"a":1"b":2}]}`,
		`{"source":"t","samples":[` + one + `,]}`,
		`{"source":"t","samples":[` + one + `],}`,
		`{"source":"t","samples":[` + one + `],"extra":1}`,
		`{"source":"t","samples":[` + one + `]}}`,
		`{"source":"t","samples":[` + one + `]} x`,
		`{"source":"t","samples":[` + one + `]}` + "\x00",
		benchShaped[:len(benchShaped)/2],
		`{"source":"t","samples":[{"a":1,"b":2,"rate_mbps":1`,
		repeatSamples(maxBatchSamples+1, "{}"),
		`[` + one + `]`,
		`null`,
		``,
	}
	return accepted, declined
}

// TestObserveScanContract: every seed falls on its side of the line, and
// what the scanner accepts it decodes as the reference does.
func TestObserveScanContract(t *testing.T) {
	accepted, declined := observeSeeds()
	for _, body := range accepted {
		source, samples, ok := scanObserve([]byte(body), nil)
		if !ok {
			t.Errorf("scanner declined %.120q", body)
			continue
		}
		agreesWithReference(t, []byte(body), source, samples)
	}
	for _, body := range declined {
		if _, _, ok := scanObserve([]byte(body), nil); ok {
			t.Errorf("scanner accepted %.120q", body)
		}
	}
}

// FuzzObserveDecode is the scanner's oracle: whatever bytes it accepts,
// the reference decoder accepts and decodes to the same source and the
// same samples, bit for bit. Bytes it declines need no comparison — the
// handler decodes those with the reference itself.
func FuzzObserveDecode(f *testing.F) {
	accepted, declined := observeSeeds()
	for _, body := range append(accepted, declined...) {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if source, samples, ok := scanObserve(body, nil); ok {
			agreesWithReference(t, body, source, samples)
		}
	})
}

// TestObserveFastPathCoverage: the scanner is reached only by bodies it
// accepts, so an encoder it declined would silently send every batch
// down the reference path. Every body the append encoder produces — any
// float64 'g' -1 can print, zero included — is accepted, decodes to the
// samples encoded, and goes through the handler without a fallback.
func TestObserveFastPathCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	samples := benchShapedSamples(rng, 512)
	for _, rate := range []float64{0, 1, 0.001, 1e-7, 123456.789, 1e21, 5e-324, math.MaxFloat64, 1.0 / 3} {
		samples = append(samples, RateSample{A: 1, B: 2, RateMbps: rate})
	}
	for i := 0; i < 512; i++ {
		rate := math.Float64frombits(rng.Uint64()) // any finite float64, either sign
		if math.IsNaN(rate) || math.IsInf(rate, 0) {
			rate = 0
		}
		samples = append(samples, RateSample{A: cluster.VMID(rng.Uint32()), B: cluster.VMID(rng.Uint32()), RateMbps: rate})
	}
	body := appendObserveBody(nil, "bench", samples)
	_, got, ok := scanObserve(body, nil)
	if !ok {
		t.Fatal("scanner declined an append-encoded body")
	}
	if len(got) != len(samples) {
		t.Fatalf("decoded %d samples, encoded %d", len(got), len(samples))
	}
	for i := range got {
		if got[i].A != samples[i].A || got[i].B != samples[i].B || math.Float64bits(got[i].RateMbps) != math.Float64bits(samples[i].RateMbps) {
			t.Fatalf("sample %d: decoded %+v, encoded %+v", i, got[i], samples[i])
		}
	}

	d := newTestDaemon(t, nil)
	h := d.Handler()
	var rep observeReply
	if rec := do(t, h, "POST", "/v1/observe", string(body), &rep); rec.Code != 200 || rep.Applied+rep.Rejected != len(samples) {
		t.Fatalf("observe: %d %s", rec.Code, rec.Body.String())
	}
	if n := d.m.decodeFallback.Value(); n != 0 {
		t.Fatalf("score_ingest_decode_fallback_total = %d after an append-encoded body", n)
	}
	if n := d.m.decodeLatency.Count(); n != 1 {
		t.Fatalf("score_ingest_decode_seconds_count = %d after one body", n)
	}
	// And the counter does move when a body misses the scanner.
	if rec := do(t, h, "POST", "/v1/observe", `{"Source":"t","samples":[{"a":1,"b":2,"rate_mbps":1}]}`, nil); rec.Code != 200 {
		t.Fatalf("case-variant observe: %d %s", rec.Code, rec.Body.String())
	}
	if n := d.m.decodeFallback.Value(); n != 1 {
		t.Fatalf("score_ingest_decode_fallback_total = %d after a case-variant body", n)
	}
}

func warmObserveBody() []byte {
	return appendObserveBody(nil, "bench", benchShapedSamples(rand.New(rand.NewSource(2)), 1024))
}

// TestObserveDecodeZeroAllocs: into a scratch that has held a batch
// before, scanning a 1,024-sample body allocates nothing.
func TestObserveDecodeZeroAllocs(t *testing.T) {
	body := warmObserveBody()
	_, scratch, ok := scanObserve(body, nil)
	if !ok || len(scratch) != 1024 {
		t.Fatalf("warm-up scan: ok %v, %d samples", ok, len(scratch))
	}
	if n := testing.AllocsPerRun(100, func() {
		_, scratch, ok = scanObserve(body, scratch)
	}); n != 0 || !ok {
		t.Fatalf("scanObserve: %v allocs per 1,024-sample body (ok %v), want 0", n, ok)
	}
}

// BenchmarkObserveDecode sets the scanner beside the reference decoder
// on one 1,024-sample body of the ingest workload's shape.
func BenchmarkObserveDecode(b *testing.B) {
	body := warmObserveBody()
	b.Run("scanner", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		var scratch []RateSample
		for i := 0; i < b.N; i++ {
			var ok bool
			if _, scratch, ok = scanObserve(body, scratch); !ok {
				b.Fatal("declined")
			}
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		r := bytes.NewReader(body)
		for i := 0; i < b.N; i++ {
			r.Reset(body)
			var ref observeBody
			if err := decodeStrict(r, &ref); err != nil {
				b.Fatal(err)
			}
		}
	})
}
