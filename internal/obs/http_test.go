package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func traceFixture() *Tracer {
	tr := NewTracer(64)
	tr.Record(Event{Kind: EvRoundStart, Round: 1, Shard: -1})
	tr.Record(Event{Kind: EvRingDone, Round: 1, Shard: 0, Arg: 5})
	tr.Record(Event{Kind: EvRingDone, Round: 1, Shard: 1, Arg: 7})
	tr.Record(Event{Kind: EvRoundStart, Round: 2, Shard: -1})
	tr.Record(Event{Kind: EvRingDone, Round: 2, Shard: 1, Arg: 3})
	return tr
}

func getTrace(t *testing.T, tr *Tracer, url string) (int, []TraceJSONEvent) {
	t.Helper()
	rr := httptest.NewRecorder()
	ServeTrace(rr, httptest.NewRequest(http.MethodGet, url, nil), tr)
	var events []TraceJSONEvent
	if rr.Code == http.StatusOK {
		if err := json.Unmarshal(rr.Body.Bytes(), &events); err != nil {
			t.Fatal(err)
		}
	}
	return rr.Code, events
}

func TestServeTraceFilters(t *testing.T) {
	tr := traceFixture()
	if _, events := getTrace(t, tr, "/trace"); len(events) != 5 {
		t.Fatalf("unfiltered /trace returned %d events, want 5", len(events))
	}
	if _, events := getTrace(t, tr, "/trace?round=1"); len(events) != 3 {
		t.Fatalf("/trace?round=1 returned %d events, want 3", len(events))
	}
	_, events := getTrace(t, tr, "/trace?shard=1")
	if len(events) != 2 {
		t.Fatalf("/trace?shard=1 returned %d events, want 2", len(events))
	}
	for _, e := range events {
		if e.Shard != 1 {
			t.Fatalf("shard filter leaked event %+v", e)
		}
	}
	_, events = getTrace(t, tr, "/trace?round=2&shard=1")
	if len(events) != 1 || events[0].Arg != 3 {
		t.Fatalf("/trace?round=2&shard=1 = %+v, want the one shard-1 ring event", events)
	}
	if code, _ := getTrace(t, tr, "/trace?round=banana"); code != http.StatusBadRequest {
		t.Fatalf("garbage round parameter gave %d, want 400", code)
	}
	if code, _ := getTrace(t, tr, "/trace?shard=-3"); code != http.StatusBadRequest {
		t.Fatalf("negative shard parameter gave %d, want 400", code)
	}
}

func TestServeAuditFilters(t *testing.T) {
	ar := NewAuditRing(16)
	ar.Append(auditRec(10, 1, VerdictMerged, 1, 1))
	ar.Append(auditRec(11, 2, VerdictStale, 1, 0))
	rr := httptest.NewRecorder()
	ServeAudit(rr, httptest.NewRequest(http.MethodGet, "/audit?vm=10", nil), ar)
	if rr.Code != http.StatusOK {
		t.Fatalf("/audit?vm=10 gave %d", rr.Code)
	}
	var views []AuditJSONRecord
	if err := json.Unmarshal(rr.Body.Bytes(), &views); err != nil {
		t.Fatal(err)
	}
	if len(views) != 1 || views[0].VM != 10 || views[0].Verdict != "merged" {
		t.Fatalf("/audit?vm=10 = %+v", views)
	}
	rr = httptest.NewRecorder()
	ServeAudit(rr, httptest.NewRequest(http.MethodGet, "/audit?round=bad", nil), ar)
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("garbage round parameter gave %d, want 400", rr.Code)
	}
}

func TestHandlerMountsAuditRoute(t *testing.T) {
	reg := NewRegistry()
	ar := NewAuditRing(8)
	ar.Append(auditRec(1, 1, VerdictMerged, 1, 1))
	srv := httptest.NewServer(Handler(reg, nil, ar))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/audit")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /audit = %d", resp.StatusCode)
	}
	var views []AuditJSONRecord
	if err := json.NewDecoder(resp.Body).Decode(&views); err != nil {
		t.Fatal(err)
	}
	if len(views) != 1 {
		t.Fatalf("GET /audit returned %d records, want 1", len(views))
	}
}

// TestHandlerExportsRingDrops: what the rings overwrote before anyone
// read it shows up on /metrics next to the routes that serve them.
func TestHandlerExportsRingDrops(t *testing.T) {
	reg := NewRegistry()
	tr, ar := NewTracer(4), NewAuditRing(2)
	for i := 0; i < 7; i++ {
		tr.Record(Event{Kind: EvRoundStart, Round: uint32(i)})
		ar.Append(auditRec(uint32(i), 1, VerdictMerged, 1, 1))
	}
	rr := httptest.NewRecorder()
	Handler(reg, tr, ar).ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, want := range []string{
		"# TYPE score_trace_dropped_total counter\nscore_trace_dropped_total 3\n",
		"# TYPE score_audit_dropped_total counter\nscore_audit_dropped_total 5\n",
	} {
		if !strings.Contains(rr.Body.String(), want) {
			t.Fatalf("/metrics lacks %q:\n%s", want, rr.Body)
		}
	}
}
