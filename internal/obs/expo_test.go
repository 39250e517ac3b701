package obs

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var (
	helpRe   = regexp.MustCompile(`^# HELP ([a-zA-Z_:][a-zA-Z0-9_:]*) (.*)$`)
	typeRe   = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram|summary|untyped)$`)
	sampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$`)
	labelRe  = regexp.MustCompile(`^([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"$`)
)

type parsedFamily struct {
	typ     string
	samples []parsedSample
}

type parsedSample struct {
	name   string
	labels string
	value  float64
}

// parsePrometheus is a strict parser of the text exposition format, written
// against the format spec (not against our writer) so it catches formatting
// bugs: TYPE must precede samples, sample names must belong to the most
// recent family (allowing _bucket/_sum/_count for histograms), label bodies
// must be well-formed, values must parse as Go floats, and no exact series
// may repeat.
func parsePrometheus(t *testing.T, r io.Reader) map[string]*parsedFamily {
	t.Helper()
	fams := make(map[string]*parsedFamily)
	seen := make(map[string]bool)
	var cur string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	ln := 0
	for sc.Scan() {
		ln++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			m := helpRe.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("line %d: malformed HELP: %q", ln, line)
			}
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			m := typeRe.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("line %d: malformed TYPE: %q", ln, line)
			}
			if _, dup := fams[m[1]]; dup {
				t.Fatalf("line %d: duplicate TYPE for %s", ln, m[1])
			}
			fams[m[1]] = &parsedFamily{typ: m[2]}
			cur = m[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // comment
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %d: malformed sample: %q", ln, line)
		}
		name, labels, valStr := m[1], m[2], m[3]
		base := name
		if fams[cur] != nil && fams[cur].typ == "histogram" {
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				base = strings.TrimSuffix(base, suf)
				if base != name {
					break
				}
			}
		}
		if base != cur {
			t.Fatalf("line %d: sample %q outside its TYPE block (current family %q)", ln, name, cur)
		}
		if labels != "" {
			body := labels[1 : len(labels)-1]
			for _, pair := range splitLabels(body) {
				if !labelRe.MatchString(pair) {
					t.Fatalf("line %d: malformed label pair %q", ln, pair)
				}
			}
		}
		v, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("line %d: bad value %q: %v", ln, valStr, err)
		}
		key := name + labels
		if seen[key] {
			t.Fatalf("line %d: duplicate series %q", ln, key)
		}
		seen[key] = true
		fams[cur].samples = append(fams[cur].samples, parsedSample{name: name, labels: labels, value: v})
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scan: %v", err)
	}
	return fams
}

// splitLabels splits `a="b",c="d"` on commas outside quotes.
func splitLabels(body string) []string {
	var out []string
	depth := false
	start := 0
	for i := 0; i < len(body); i++ {
		switch body[i] {
		case '\\':
			i++
		case '"':
			depth = !depth
		case ',':
			if !depth {
				out = append(out, body[start:i])
				start = i + 1
			}
		}
	}
	if start < len(body) {
		out = append(out, body[start:])
	}
	return out
}

// checkHistogram validates the cumulative-bucket invariants on a parsed
// histogram family.
func checkHistogram(t *testing.T, f *parsedFamily, name string) {
	t.Helper()
	var prev float64
	var inf, count float64
	sawInf := false
	for _, s := range f.samples {
		switch s.name {
		case name + "_bucket":
			if s.value < prev {
				t.Fatalf("%s: bucket counts must be cumulative (got %v after %v)", name, s.value, prev)
			}
			prev = s.value
			if strings.Contains(s.labels, `le="+Inf"`) {
				inf = s.value
				sawInf = true
			}
		case name + "_count":
			count = s.value
		}
	}
	if !sawInf {
		t.Fatalf("%s: missing le=\"+Inf\" bucket", name)
	}
	if inf != count {
		t.Fatalf("%s: +Inf bucket (%v) != _count (%v)", name, inf, count)
	}
}

// TestExpositionFormat scrapes a live /metrics endpoint over HTTP and
// validates the body with the strict parser — the CI exposition-format check.
func TestExpositionFormat(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("score_expo_total", "counter with a\nnewline and \\ backslash in help")
	c.Add(7)
	g := reg.Gauge("score_expo_gauge", "a gauge")
	g.Set(-2.25)
	h := reg.Histogram("score_expo_seconds", "a histogram", []float64{0.01, 0.1, 1})
	for i := 0; i < 100; i++ {
		h.Observe(float64(i) * 0.005)
	}
	v := reg.GaugeVec("score_expo_shard_gauge", "per-shard gauge", "shard")
	v.With("0").Set(1)
	v.With("1").Set(2)
	reg.GaugeFunc("score_expo_func", "scrape-time gauge", func() float64 { return 3.5 })
	tr := NewTracer(64)
	tr.Record(Event{Kind: EvRoundStart, Round: 1})

	srv := httptest.NewServer(Handler(reg, tr, nil))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	fams := parsePrometheus(t, resp.Body)

	if f := fams["score_expo_total"]; f == nil || f.typ != "counter" || f.samples[0].value != 7 {
		t.Fatalf("score_expo_total parsed wrong: %+v", f)
	}
	if f := fams["score_expo_gauge"]; f == nil || f.samples[0].value != -2.25 {
		t.Fatalf("score_expo_gauge parsed wrong: %+v", f)
	}
	hf := fams["score_expo_seconds"]
	if hf == nil || hf.typ != "histogram" {
		t.Fatalf("histogram family missing: %+v", hf)
	}
	checkHistogram(t, hf, "score_expo_seconds")
	vf := fams["score_expo_shard_gauge"]
	if vf == nil || len(vf.samples) != 2 {
		t.Fatalf("vec family wrong: %+v", vf)
	}
	for _, s := range vf.samples {
		if !strings.HasPrefix(s.labels, `{shard="`) {
			t.Fatalf("vec sample missing shard label: %+v", s)
		}
	}
	if f := fams["score_expo_func"]; f == nil || f.samples[0].value != 3.5 {
		t.Fatalf("gauge func parsed wrong: %+v", f)
	}

	// /trace must serve JSON.
	resp2, err := http.Get(srv.URL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	body, _ := io.ReadAll(resp2.Body)
	if !strings.Contains(string(body), `"round_start"`) {
		t.Fatalf("/trace missing recorded event: %s", body)
	}

	// pprof index must be mounted.
	resp3, err := http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("pprof index status = %d", resp3.StatusCode)
	}
}

func TestServeBindsAndCloses(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("score_srv_total", "c").Inc()
	s, err := Serve("127.0.0.1:0", Handler(reg, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", s.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(b), "score_srv_total 1") {
		t.Fatalf("metrics body missing counter: %s", b)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
