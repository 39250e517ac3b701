package serve

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/score-dc/score/internal/cluster"
	"github.com/score-dc/score/internal/obs"
)

// TestAuditEndpointAfterRound drives a migration round and reads its
// decision provenance back over /v1/audit: every applied move the step
// reports must have an applied-verdict audit record, and the vm filter
// must narrow to it.
func TestAuditEndpointAfterRound(t *testing.T) {
	ar := obs.NewAuditRing(1 << 10)
	d := newTestDaemon(t, func(cfg *Config) { cfg.Audit = ar })
	h := d.Handler()
	do(t, h, "POST", "/v1/vms", `{"id":1,"ram_mb":64,"host":0}`, nil)
	do(t, h, "POST", "/v1/vms", `{"id":2,"ram_mb":64,"host":15}`, nil)
	do(t, h, "POST", "/v1/observe", `{"source":"t","samples":[{"a":1,"b":2,"rate_mbps":400}]}`, nil)

	var st StepResult
	if rec := do(t, h, "POST", "/v1/rounds", `{"rounds":-1}`, &st); rec.Code != 200 {
		t.Fatalf("rounds: %d %s", rec.Code, rec.Body.String())
	}
	if st.Applied == 0 {
		t.Fatalf("step result %+v: want at least one migration", st)
	}

	var recs []obs.AuditJSONRecord
	if rec := do(t, h, "GET", "/v1/audit", "", &recs); rec.Code != 200 {
		t.Fatalf("audit: %d %s", rec.Code, rec.Body.String())
	}
	applied := 0
	for _, r := range recs {
		if r.Verdict == "merged" || r.Verdict == "cross_applied" {
			applied++
		}
	}
	if applied != st.Applied {
		t.Fatalf("/v1/audit explains %d applied moves, step reported %d", applied, st.Applied)
	}

	// The vm filter narrows to the migrated VM's own records.
	movedVM := recs[0].VM
	var filtered []obs.AuditJSONRecord
	do(t, h, "GET", "/v1/audit?vm="+jsonItoa(movedVM), "", &filtered)
	if len(filtered) == 0 {
		t.Fatalf("vm filter for %d returned nothing", movedVM)
	}
	for _, r := range filtered {
		if r.VM != movedVM {
			t.Fatalf("vm filter leaked record %+v", r)
		}
	}

	if rec := do(t, h, "POST", "/v1/audit", "", nil); rec.Code != 405 {
		t.Fatalf("POST /v1/audit = %d, want 405", rec.Code)
	}
	if rec := do(t, h, "GET", "/v1/audit?round=junk", "", nil); rec.Code != 400 {
		t.Fatalf("garbage round filter = %d, want 400", rec.Code)
	}
}

func jsonItoa(v uint32) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// TestAuditRouteAbsentWithoutRing: a daemon built without an audit ring
// must not expose the endpoint.
func TestAuditRouteAbsentWithoutRing(t *testing.T) {
	d := newTestDaemon(t, nil)
	if rec := do(t, d.Handler(), "GET", "/v1/audit", "", nil); rec.Code != 404 {
		t.Fatalf("GET /v1/audit without a ring = %d, want 404", rec.Code)
	}
	if rec := do(t, d.Handler(), "POST", "/v1/flightrecorder", "", nil); rec.Code != 404 {
		t.Fatalf("POST /v1/flightrecorder without a recorder = %d, want 404", rec.Code)
	}
}

// TestFlightRecorderEndpoint forces a bundle over HTTP and checks the
// returned directory holds a decodable capture.
func TestFlightRecorderEndpoint(t *testing.T) {
	dir := t.TempDir()
	d := newTestDaemon(t, func(cfg *Config) {
		cfg.Audit = obs.NewAuditRing(1 << 10)
		cfg.Flight = dir
	})
	h := d.Handler()
	do(t, h, "POST", "/v1/vms", `{"id":1,"ram_mb":64,"host":0}`, nil)
	do(t, h, "POST", "/v1/vms", `{"id":2,"ram_mb":64,"host":15}`, nil)
	do(t, h, "POST", "/v1/observe", `{"source":"t","samples":[{"a":1,"b":2,"rate_mbps":400}]}`, nil)
	do(t, h, "POST", "/v1/rounds", `{"rounds":-1}`, nil)

	if rec := do(t, h, "GET", "/v1/flightrecorder", "", nil); rec.Code != 405 {
		t.Fatalf("GET /v1/flightrecorder = %d, want 405", rec.Code)
	}
	var reply struct {
		Path string `json:"path"`
	}
	if rec := do(t, h, "POST", "/v1/flightrecorder", "", &reply); rec.Code != 200 {
		t.Fatalf("POST /v1/flightrecorder: %d %s", rec.Code, rec.Body.String())
	}
	if reply.Path == "" || filepath.Dir(reply.Path) != dir {
		t.Fatalf("bundle path %q not under %q", reply.Path, dir)
	}
	for _, name := range []string{"metrics.prom", "trace.json", "audit.json", "heap.pprof", "meta.json"} {
		if _, err := os.Stat(filepath.Join(reply.Path, name)); err != nil {
			t.Fatalf("bundle missing %s: %v", name, err)
		}
	}
	b, err := os.ReadFile(filepath.Join(reply.Path, "audit.json"))
	if err != nil {
		t.Fatal(err)
	}
	var recs []obs.AuditJSONRecord
	if err := json.Unmarshal(b, &recs); err != nil {
		t.Fatalf("bundle audit.json does not decode: %v", err)
	}
	if len(recs) == 0 {
		t.Fatal("bundle audit.json is empty after a migration round")
	}
}

// TestServeSLOMetrics: every /v1 route is wrapped in the HTTP
// middleware, and the state loop's queue instrumentation shows up in
// the exposition after traffic.
func TestServeSLOMetrics(t *testing.T) {
	d := newTestDaemon(t, nil)
	h := d.Handler()
	do(t, h, "POST", "/v1/vms", `{"id":7,"ram_mb":64}`, nil)
	do(t, h, "GET", "/v1/vms/7", "", nil)
	do(t, h, "GET", "/v1/status", "", nil)
	do(t, h, "GET", "/v1/status", "", nil)
	do(t, h, "POST", "/v1/observe", `{"source":"t","samples":[{"a":1,"b":2,"rate_mbps":1}]}`, nil)

	rec := do(t, h, "GET", "/metrics", "", nil)
	expo := rec.Body.String()
	for _, want := range []string{
		`score_http_requests_total{route="/v1/status"} 2`,
		`score_http_requests_total{route="/v1/vms"} 1`,
		`score_http_request_seconds_count{route="/v1/status"} 2`,
		`score_http_inflight_requests{route="/v1/status"} 0`,
		`score_http_requests_total{route="/v1/vms/"} 1`,
		"score_op_queue_depth_count",
		"score_op_wait_seconds_count",
		"score_ingest_fold_seconds_count",
	} {
		if !strings.Contains(expo, want) {
			t.Fatalf("exposition lacks %q:\n%s", want, expo)
		}
	}
	// Per-ID requests fold into the "/v1/vms/" subtree pattern — the
	// concrete VM path must never become a label value.
	if strings.Contains(expo, `route="/v1/vms/7"`) {
		t.Fatalf("per-ID URL leaked into route labels:\n%s", expo)
	}
}

// TestAuditWireAfterRestore: on a daemon restored after one round, fed
// the rest of its traffic and stepped to quiescence, GET /v1/audit?round=R answers, for every round R, the
// bytes encoding/json writes for that round's records filtered from
// the whole ring — the wire form the round index and the appender
// replaced.
func TestAuditWireAfterRestore(t *testing.T) {
	const nVMs, nHosts, slots = 1024, 128, 16
	rec := recordStream(5, nVMs, nHosts, slots)
	big := func(cfg *Config) {
		cfg.Topology.K = 8
		cfg.Hosts = cluster.UniformHosts(nHosts, slots, 4096, 1000)
	}
	d := newTestDaemon(t, big)
	for _, vm := range rec.vms {
		if _, _, err := d.Admit(AdmitRequest{
			ID: cluster.VMID(vm.ID), HasID: true, RAMMB: vm.RAMMB,
			Host: cluster.HostID(vm.Host), HasHost: true,
		}); err != nil {
			t.Fatalf("admit %d: %v", vm.ID, err)
		}
	}
	half := len(rec.rates) / 2
	if _, rejected, err := d.Observe("replay", rec.rates[:half]); err != nil || rejected != 0 {
		t.Fatalf("observe: err=%v rejected=%d", err, rejected)
	}
	if _, err := d.Step(1); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "scored.snapshot")
	if _, err := d.Snapshot(path); err != nil {
		t.Fatal(err)
	}

	ar := obs.NewAuditRing(1 << 14)
	cfg := testConfig(big)
	cfg.Audit = ar
	r, err := Restore(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	// The rest of the traffic, so the restored daemon's rounds move VMs.
	if _, rejected, err := r.Observe("replay", rec.rates[half:]); err != nil || rejected != 0 {
		t.Fatalf("observe: err=%v rejected=%d", err, rejected)
	}
	if _, err := r.Step(-1); err != nil {
		t.Fatal(err)
	}
	all, h := ar.Snapshot(), r.Handler()
	if len(all) == 0 || ar.Dropped() != 0 {
		t.Fatalf("the ring holds %d records and dropped %d; want some, all retained", len(all), ar.Dropped())
	}
	for round := uint64(0); round <= r.Rounds()+1; round++ {
		var views []obs.AuditJSONRecord
		for _, a := range all {
			if uint64(a.Round) == round {
				views = append(views, a.JSONView())
			}
		}
		if views == nil {
			views = []obs.AuditJSONRecord{}
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(views); err != nil {
			t.Fatal(err)
		}
		got := do(t, h, "GET", "/v1/audit?round="+strconv.FormatUint(round, 10), "", nil)
		if got.Code != 200 || !bytes.Equal(got.Body.Bytes(), want.Bytes()) {
			t.Fatalf("round %d: /v1/audit answered %d with %d bytes, encoding/json writes %d",
				round, got.Code, got.Body.Len(), want.Len())
		}
	}
}
