package serve

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"github.com/score-dc/score/internal/cluster"
)

// repeatSamples returns an observe body of n copies of one sample.
func repeatSamples(n int, sample string) string {
	var b strings.Builder
	b.WriteString(`{"source":"t","samples":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(sample)
	}
	b.WriteString("]}")
	return b.String()
}

// paddedBody returns a valid one-sample observe body of exactly n bytes,
// padded inside the source string — so the JSON value itself, not
// trailing whitespace, is what reaches the size limit.
func paddedBody(n int) string {
	const head, tail = `{"source":"`, `","samples":[{"a":1,"b":2,"rate_mbps":9}]}`
	return head + strings.Repeat("x", n-len(head)-len(tail)) + tail
}

// referenceError is what encoding/json, configured as decodeJSON
// configures it, says about body; "" when it decodes.
func referenceError(body string) string {
	dec := json.NewDecoder(strings.NewReader(body))
	dec.DisallowUnknownFields()
	var dst observeBody
	if err := dec.Decode(&dst); err != nil {
		return err.Error()
	}
	return ""
}

// TestObserveBodyConformance pins what POST /v1/observe answers for each
// shape of body — status and the full reply or error text — and, where
// two readings of a body would fold different samples, which one the
// matrix ends up with. The table was written against the handler that
// decoded every body with encoding/json and passes there unchanged: the
// shape-specialised scanner must be invisible in all of it. Rows marked
// jsonErr carry encoding/json's own wording, which differs between Go
// releases: the stable fragment is pinned literally, the full text
// against what encoding/json says today.
func TestObserveBodyConformance(t *testing.T) {
	type pair struct {
		a, b cluster.VMID
		rate float64
	}
	const one = `{"a":1,"b":2,"rate_mbps":9}`
	ok := func(applied, rejected int) string {
		return `{"applied":` + strconv.Itoa(applied) + `,"rejected":` + strconv.Itoa(rejected) + `}`
	}
	cases := []struct {
		name, body string
		code       int
		want       string // the reply (2xx) or the error text, in full
		jsonErr    string // set: want is "bad request body: " + encoding/json's error, which contains this
		pairs      []pair // rates the matrix must hold afterwards
	}{
		{name: "canonical", body: `{"source":"t","samples":[` + one + `]}`, code: 200, want: ok(1, 0), pairs: []pair{{1, 2, 9}}},
		{name: "keys reordered", body: `{"samples":[{"rate_mbps":9,"b":2,"a":1}],"source":"t"}`, code: 200, want: ok(1, 0), pairs: []pair{{1, 2, 9}}},
		{name: "whitespace everywhere", body: " \t\r\n{ \"source\" : \"t\" ,\n\"samples\" : [ { \"a\" : 1 , \"b\" : 2 , \"rate_mbps\" : 9 } ] } \r\n", code: 200, want: ok(1, 0), pairs: []pair{{1, 2, 9}}},
		{name: "source omitted", body: `{"samples":[` + one + `]}`, code: 200, want: ok(1, 0)},
		{name: "source with escape", body: `{"source":"t\né","samples":[` + one + `]}`, code: 200, want: ok(1, 0)},
		{name: "source invalid utf-8", body: "{\"source\":\"t\xff\",\"samples\":[" + one + "]}", code: 200, want: ok(1, 0)},
		{name: "source null", body: `{"source":null,"samples":[` + one + `]}`, code: 200, want: ok(1, 0)},
		{name: "source a number", body: `{"source":7,"samples":[` + one + `]}`, code: 400, jsonErr: "cannot unmarshal number"},
		{name: "exponent and fraction rates", body: `{"source":"t","samples":[{"a":1,"b":2,"rate_mbps":1.25e1},{"a":3,"b":4,"rate_mbps":5E-1}]}`, code: 200, want: ok(2, 0), pairs: []pair{{1, 2, 12.5}, {3, 4, 0.5}}},
		{name: "rate zero retires", body: `{"source":"t","samples":[` + one + `,{"a":1,"b":2,"rate_mbps":0}]}`, code: 200, want: ok(2, 0), pairs: []pair{{1, 2, 0}}},
		{name: "rate minus zero", body: `{"source":"t","samples":[{"a":1,"b":2,"rate_mbps":-0}]}`, code: 200, want: ok(1, 0), pairs: []pair{{1, 2, 0}}},
		{name: "rate omitted", body: `{"source":"t","samples":[{"a":1,"b":2}]}`, code: 200, want: ok(1, 0), pairs: []pair{{1, 2, 0}}},
		{name: "negative rate", body: `{"source":"t","samples":[{"a":1,"b":2,"rate_mbps":-1}]}`, code: 200, want: ok(0, 1), pairs: []pair{{1, 2, 0}}},
		{name: "rate at the grid ceiling", body: `{"source":"t","samples":[{"a":1,"b":2,"rate_mbps":4294967296}]}`, code: 200, want: ok(1, 0), pairs: []pair{{1, 2, 1 << 32}}},
		{name: "finite rate above the grid ceiling", body: `{"source":"t","samples":[` + one + `,{"a":1,"b":2,"rate_mbps":1e300},{"a":3,"b":4,"rate_mbps":4294967297}]}`, code: 200, want: ok(1, 2), pairs: []pair{{1, 2, 9}, {3, 4, 0}}},
		{name: "rate stored to the nearest quantum", body: `{"source":"t","samples":[{"a":1,"b":2,"rate_mbps":53.271},{"a":3,"b":4,"rate_mbps":1e-9}]}`, code: 200, want: ok(2, 0), pairs: []pair{{1, 2, 55858692.0 / (1 << 20)}, {3, 4, 1.0 / (1 << 20)}}},
		{name: "empty sample object", body: `{"source":"t","samples":[{}]}`, code: 200, want: ok(0, 1)},
		{name: "null sample", body: `{"source":"t","samples":[null]}`, code: 200, want: ok(0, 1)},
		{name: "endpoint at uint32 max", body: `{"source":"t","samples":[{"a":4294967295,"b":2,"rate_mbps":9}]}`, code: 200, want: ok(0, 1)},

		{name: "unknown field", body: `{"source":"t","samples":[` + one + `],"extra":1}`, code: 400, jsonErr: `unknown field "extra"`},
		{name: "unknown sample field", body: `{"source":"t","samples":[{"a":1,"b":2,"rate_mbps":9,"c":3}]}`, code: 400, jsonErr: `unknown field "c"`},
		{name: "case-variant keys", body: `{"Source":"t","SAMPLES":[{"A":1,"B":2,"Rate_Mbps":7}]}`, code: 200, want: ok(1, 0), pairs: []pair{{1, 2, 7}}},
		{name: "unicode-folded key", body: `{"ſource":"t","ſampleſ":[{"a":1,"b":2,"rate_mbpſ":7}]}`, code: 200, want: ok(1, 0), pairs: []pair{{1, 2, 7}}},
		{name: "duplicate sample key, last wins", body: `{"source":"t","samples":[{"a":1,"a":3,"b":2,"rate_mbps":9}]}`, code: 200, want: ok(1, 0), pairs: []pair{{3, 2, 9}, {1, 2, 0}}},
		{name: "duplicate rate, last wins", body: `{"source":"t","samples":[{"a":1,"b":2,"rate_mbps":9,"rate_mbps":4}]}`, code: 200, want: ok(1, 0), pairs: []pair{{1, 2, 4}}},
		{name: "duplicate samples key, last wins", body: `{"samples":[` + one + `],"samples":[{"a":3,"b":4,"rate_mbps":6}]}`, code: 200, want: ok(1, 0), pairs: []pair{{3, 4, 6}, {1, 2, 0}}},

		{name: "samples null", body: `{"source":"t","samples":null}`, code: 400, want: "empty sample batch"},
		{name: "samples missing", body: `{"source":"t"}`, code: 400, want: "empty sample batch"},
		{name: "samples empty", body: `{"source":"t","samples":[]}`, code: 400, want: "empty sample batch"},
		{name: "empty object", body: `{}`, code: 400, want: "empty sample batch"},
		{name: "samples an object", body: `{"source":"t","samples":{}}`, code: 400, jsonErr: "cannot unmarshal object"},
		{name: "top-level array", body: `[` + one + `]`, code: 400, jsonErr: "cannot unmarshal array"},
		{name: "top-level null", body: `null`, code: 400, want: "empty sample batch"},

		{name: "a negative", body: `{"source":"t","samples":[{"a":-1,"b":2,"rate_mbps":9}]}`, code: 400, jsonErr: "cannot unmarshal number -1"},
		{name: "a fractional", body: `{"source":"t","samples":[{"a":1.0,"b":2,"rate_mbps":9}]}`, code: 400, jsonErr: "cannot unmarshal number 1.0"},
		{name: "a exponent", body: `{"source":"t","samples":[{"a":1e0,"b":2,"rate_mbps":9}]}`, code: 400, jsonErr: "cannot unmarshal number 1e0"},
		{name: "a over uint32", body: `{"source":"t","samples":[{"a":4294967296,"b":2,"rate_mbps":9}]}`, code: 400, jsonErr: "cannot unmarshal number 4294967296"},
		{name: "a leading zero", body: `{"source":"t","samples":[{"a":01,"b":2,"rate_mbps":9}]}`, code: 400, jsonErr: "invalid character '1'"},
		{name: "a as string", body: `{"source":"t","samples":[{"a":"1","b":2,"rate_mbps":9}]}`, code: 400, jsonErr: "cannot unmarshal string"},
		{name: "rate 1e400", body: `{"source":"t","samples":[{"a":1,"b":2,"rate_mbps":1e400}]}`, code: 400, jsonErr: "cannot unmarshal number 1e400"},
		{name: "rate NaN literal", body: `{"source":"t","samples":[{"a":1,"b":2,"rate_mbps":NaN}]}`, code: 400, jsonErr: "invalid character 'N'"},
		{name: "rate as string", body: `{"source":"t","samples":[{"a":1,"b":2,"rate_mbps":"9"}]}`, code: 400, jsonErr: "cannot unmarshal string"},
		{name: "rate bare point", body: `{"source":"t","samples":[{"a":1,"b":2,"rate_mbps":1.}]}`, code: 400, jsonErr: "invalid character '}'"},
		{name: "trailing comma", body: `{"source":"t","samples":[` + one + `,]}`, code: 400, jsonErr: "invalid character ']'"},

		{name: "4096 samples", body: repeatSamples(maxBatchSamples, one), code: 200, want: ok(maxBatchSamples, 0), pairs: []pair{{1, 2, 9}}},
		{name: "4097 samples", body: repeatSamples(maxBatchSamples+1, one), code: 400, want: "batch exceeds 4096 samples"},
		{name: "body at the size limit", body: paddedBody(maxBody), code: 200, want: ok(1, 0), pairs: []pair{{1, 2, 9}}},
		{name: "body one byte over the limit", body: paddedBody(maxBody + 1), code: 400, want: "bad request body: http: request body too large"},
		{name: "cut mid-number", body: `{"source":"t","samples":[{"a":1,"b":2,"rate_mbps":1`, code: 400, jsonErr: "unexpected EOF"},
		{name: "cut mid-key", body: `{"source":"t","samp`, code: 400, jsonErr: "unexpected EOF"},
		{name: "empty body", body: ` `, code: 400, jsonErr: "EOF"},
		{name: "trailing newline", body: `{"source":"t","samples":[` + one + "]}\n", code: 200, want: ok(1, 0)},
		{name: "trailing object", body: `{"source":"t","samples":[` + one + `]}{}`, code: 400, want: "bad request body: trailing data"},
		{name: "trailing word", body: `{"source":"t","samples":[` + one + `]} x`, code: 400, want: "bad request body: trailing data"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := newTestDaemon(t, nil)
			for id := cluster.VMID(1); id <= 4; id++ {
				if _, _, err := d.Admit(AdmitRequest{ID: id, HasID: true, RAMMB: 64}); err != nil {
					t.Fatalf("admit %d: %v", id, err)
				}
			}
			rec := do(t, d.Handler(), "POST", "/v1/observe", tc.body, nil)
			got := strings.TrimSpace(rec.Body.String())
			if rec.Code >= 300 {
				var e errorReply
				if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
					t.Fatalf("error reply %q: %v", got, err)
				}
				got = e.Error
			}
			t.Logf("%d %s", rec.Code, got)
			want := tc.want
			if tc.jsonErr != "" {
				if !strings.Contains(got, tc.jsonErr) {
					t.Errorf("error %q lacks %q", got, tc.jsonErr)
				}
				want = "bad request body: " + referenceError(tc.body)
			}
			if rec.Code != tc.code || got != want {
				t.Fatalf("got %d %s\nwant %d %s", rec.Code, got, tc.code, want)
			}
			d.mu.RLock()
			defer d.mu.RUnlock()
			for _, p := range tc.pairs {
				if r := d.tm.Rate(p.a, p.b); math.Float64bits(r) != math.Float64bits(p.rate) {
					t.Errorf("rate(%d,%d) = %v, want %v", p.a, p.b, r, p.rate)
				}
			}
		})
	}
}

// failAtEOF reads like its source, then fails where it would have ended.
type failAtEOF struct {
	src io.Reader
	err error
}

func (f failAtEOF) Read(p []byte) (int, error) {
	n, err := f.src.Read(p)
	if err == io.EOF {
		err = f.err
	}
	return n, err
}

// TestObserveReadError: a body whose transport fails mid-read is a 400,
// whatever prefix arrived before the failure — the read error itself
// while the value is incomplete, "trailing data" once it is complete (a
// failed read is not a clean end of input).
func TestObserveReadError(t *testing.T) {
	d := newTestDaemon(t, nil)
	h := d.Handler()
	errTransport := errors.New("transport torn")
	const whole = `{"source":"t","samples":[{"a":1,"b":2,"rate_mbps":9}]}`
	for _, tc := range []struct{ prefix, want string }{
		{``, "bad request body: transport torn"},
		{whole[:len(whole)-2], "bad request body: transport torn"},
		{whole, "bad request body: trailing data"},
	} {
		req := httptest.NewRequest("POST", "/v1/observe", failAtEOF{strings.NewReader(tc.prefix), errTransport})
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		var e errorReply
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
			t.Fatalf("prefix %q: reply %q: %v", tc.prefix, rec.Body.String(), err)
		}
		if rec.Code != 400 || e.Error != tc.want {
			t.Fatalf("prefix %q: got %d %q, want 400 %q", tc.prefix, rec.Code, e.Error, tc.want)
		}
	}
}
