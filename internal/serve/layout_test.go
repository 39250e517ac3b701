package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/score-dc/score/internal/cluster"
	"github.com/score-dc/score/internal/traffic"
)

// sameMatrix requires got to equal want in everything a consumer can
// read: every VM's row, the pair list, and the total rate to the bit.
func sameMatrix(t *testing.T, when string, got, want *traffic.Matrix, ids []cluster.VMID) {
	t.Helper()
	for _, u := range ids {
		g, w := got.NeighborEdges(u), want.NeighborEdges(u)
		if len(g) != len(w) {
			t.Fatalf("%s: row %d has %d edges, want %d", when, u, len(g), len(w))
		}
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("%s: row %d[%d] = %+v, want %+v", when, u, i, g[i], w[i])
			}
		}
	}
	gp, gr := got.Pairs()
	wp, wr := want.Pairs()
	if len(gp) != len(wp) {
		t.Fatalf("%s: %d pairs, want %d", when, len(gp), len(wp))
	}
	for i := range gp {
		if gp[i] != wp[i] || math.Float64bits(gr[i]) != math.Float64bits(wr[i]) {
			t.Fatalf("%s: pair %d = %v @ %v, want %v @ %v", when, i, gp[i], gr[i], wp[i], wr[i])
		}
	}
	if g, w := got.TotalRate(), want.TotalRate(); math.Float64bits(g) != math.Float64bits(w) {
		t.Fatalf("%s: TotalRate %v, want %v", when, g, w)
	}
}

// TestIngestedMatrixMatchesBuilt is the daemon's fill order, end to end: a
// generated workload (bulk-loaded by traffic.Builder) is replayed into a
// daemon pair by pair through POST /v1/observe, in ForEachPair order — so
// the first samples span the whole ID range while nearly every row is
// empty — then snapshotted and reloaded by Restore. Both matrices must sit
// on the arena, their row windows covering the IDs, and read back exactly
// as the original.
func TestIngestedMatrixMatchesBuilt(t *testing.T) {
	cfg := testConfig(func(c *Config) {
		c.Topology.K = 8
		c.Hosts = cluster.UniformHosts(128, 8, 1<<20, 1000)
	})
	topo, err := cfg.Topology.Build()
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(cfg.Hosts)
	if err != nil {
		t.Fatal(err)
	}
	pm := cluster.NewPlacementManager(cl, 1)
	for i := 0; i < 1000; i++ {
		if _, err := pm.CreateVM(64); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(5))
	if err := pm.PlaceRandom(rng); err != nil {
		t.Fatal(err)
	}
	want, err := traffic.Generate(traffic.DefaultGenConfig(32), topo, cl, rng)
	if err != nil {
		t.Fatal(err)
	}
	ids := cl.VMs()

	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	h := d.Handler()
	for _, id := range ids {
		body := fmt.Sprintf(`{"id":%d,"ram_mb":64,"host":%d}`, id, cl.HostOf(id))
		if rec := do(t, h, "POST", "/v1/vms", body, nil); rec.Code != 201 {
			t.Fatalf("admit %d: %d %s", id, rec.Code, rec.Body.String())
		}
	}
	want.ForEachPair(func(a, b cluster.VMID, rate float64) {
		r, err := json.Marshal(rate) // shortest form that reads back exactly
		if err != nil {
			t.Fatal(err)
		}
		body := fmt.Sprintf(`{"source":"t","samples":[{"a":%d,"b":%d,"rate_mbps":%s}]}`, a, b, r)
		var rep observeReply
		if rec := do(t, h, "POST", "/v1/observe", body, &rep); rec.Code != 200 || rep.Applied != 1 {
			t.Fatalf("observe (%d,%d): %d %s", a, b, rec.Code, rec.Body.String())
		}
	})
	onArena := func(when string, tm *traffic.Matrix) {
		t.Helper()
		st := tm.Stats()
		if span := int(ids[len(ids)-1]-ids[0]) + 1; st.RowWindow < span || st.ArenaCap == 0 {
			t.Fatalf("%s: row window %d over %d IDs, arena %d edges: %+v", when, st.RowWindow, span, st.ArenaCap, st)
		}
	}
	onArena("observed", d.tm)
	sameMatrix(t, "observed", d.tm, want, ids)

	path := filepath.Join(t.TempDir(), "scored.snapshot")
	if _, err := d.Snapshot(path); err != nil {
		t.Fatal(err)
	}
	r, err := Restore(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	onArena("restored", r.tm)
	sameMatrix(t, "restored", r.tm, want, ids)
	// The daemon's matrix spills and compacts inside observe ops; the
	// footprint is exported at every round, snapshot and restore.
	for name, dm := range map[string]*Daemon{"observed": d, "restored": r} {
		if got := metricValue(t, dm, "score_traffic_bytes"); got != float64(dm.tm.Stats().Bytes) || got == 0 {
			t.Fatalf("%s: score_traffic_bytes = %v, matrix holds %d", name, got, dm.tm.Stats().Bytes)
		}
	}
	if metricValue(t, d, "score_traffic_compactions_total") == 0 {
		t.Fatal("pair-by-pair ingest never compacted; score_traffic_compactions_total is untested")
	}
}

// TestPinnedAdmitOutsideWindowChangesNothing: a pinned id the cluster's
// density rule refuses is the client's error — 400 — and not a mode
// switch: population, ID window, the next auto-issued id and the memo's
// skipping on the following round are exactly what they were.
func TestPinnedAdmitOutsideWindowChangesNothing(t *testing.T) {
	rec := recordStream(29, 40, 16, 4)
	d := newTestDaemon(t, nil)
	h := d.Handler()
	for _, vm := range rec.vms {
		body := fmt.Sprintf(`{"id":%d,"ram_mb":%d,"host":%d}`, vm.ID, vm.RAMMB, vm.Host)
		if reply := do(t, h, "POST", "/v1/vms", body, nil); reply.Code != 201 {
			t.Fatalf("admit %d: %d %s", vm.ID, reply.Code, reply.Body.String())
		}
	}
	if _, rejected, err := d.Observe("t", rec.rates); err != nil || rejected != 0 {
		t.Fatalf("observe: rejected=%d err=%v", rejected, err)
	}
	if st, err := d.Step(0); err != nil || !st.Quiesced {
		t.Fatalf("settling: %+v, %v", st, err)
	}
	// skippedIn runs one round and reports how many visits it skipped.
	const skipped = `score_token_visits_total{outcome="skipped"}`
	skippedIn := func() float64 {
		t.Helper()
		before := metricValue(t, d, skipped)
		if st, err := d.Step(1); err != nil || st.Applied != 0 {
			t.Fatalf("quiet round: %+v, %v", st, err)
		}
		return metricValue(t, d, skipped) - before
	}
	skippedIn() // the first quiet round records the last verdicts
	wantSkipped := skippedIn()
	if wantSkipped != float64(len(rec.vms)) {
		t.Fatalf("converged round skipped %v of %d visits", wantSkipped, len(rec.vms))
	}
	base, alloc := d.cl.DenseAlloc()

	reply := do(t, h, "POST", "/v1/vms", `{"id":4000000000,"ram_mb":64}`, nil)
	if reply.Code != 400 || !strings.Contains(reply.Body.String(), "ID window") {
		t.Fatalf("admit of id 4000000000: %d %s, want 400 naming the ID window", reply.Code, reply.Body.String())
	}

	var status statusReply
	do(t, h, "GET", "/v1/status", "", &status)
	if status.VMs != len(rec.vms) {
		t.Fatalf("status reports %d VMs after the refusal, want %d", status.VMs, len(rec.vms))
	}
	if nb, na := d.cl.DenseAlloc(); nb != base || len(na) != len(alloc) {
		t.Fatalf("ID window (%d, %d) after the refusal, was (%d, %d)", nb, len(na), base, len(alloc))
	}
	if got := skippedIn(); got != wantSkipped {
		t.Fatalf("round after the refusal skipped %v visits, the one before %v", got, wantSkipped)
	}
	var vm vmReply
	if reply := do(t, h, "POST", "/v1/vms", `{"ram_mb":64}`, &vm); reply.Code != 201 || vm.ID != uint32(len(rec.vms))+1 {
		t.Fatalf("next auto-issued id: %d %s, want id %d", reply.Code, reply.Body.String(), len(rec.vms)+1)
	}
}

// TestAutoIssueOutlivesTheWindow: the daemon's own IDs are never the
// client's mistake. One VM admitted first stays for good while 20 others
// churn on auto-issued IDs, and the cursor is carried across the ID
// window's far end three times — past what the cluster admits next to
// the survivor — so it has to recycle onto free IDs. (A pinned admit near
// the end stands in for the 2²⁰ admissions that walk the cursor there:
// walked in full the test passes the same way, in 8 s, a minute under
// -race.) Every admission succeeds, no live ID is issued twice, and a
// snapshot taken on the far side restores.
func TestAutoIssueOutlivesTheWindow(t *testing.T) {
	d := newTestDaemon(t, nil)
	survivor, survivorHost, err := d.Admit(AdmitRequest{RAMMB: 64})
	if err != nil || survivor != 1 {
		t.Fatalf("first admit: id %d, %v", survivor, err)
	}
	const churning = 20
	var live []cluster.VMID
	recycled := 0
	for trip := 0; trip < 3; trip++ {
		far := cluster.VMID(1<<20 - 500) // the 64-slot test plant admits a span of 2²⁰ + 256
		if _, _, err := d.Admit(AdmitRequest{ID: far, HasID: true, RAMMB: 64}); err != nil {
			t.Fatal(err)
		}
		if err := d.RemoveVM(far); err != nil {
			t.Fatal(err)
		}
		for i, last := 0, far; i < 1500; i++ {
			id, _, err := d.Admit(AdmitRequest{RAMMB: 64})
			if err != nil {
				t.Fatalf("trip %d: auto-issued admit %d (after id %d, %d VMs live): %v", trip, i, last, len(live)+1, err)
			}
			if id < last {
				recycled++
			}
			last = id
			if live = append(live, id); len(live) > churning {
				if err := d.RemoveVM(live[0]); err != nil {
					t.Fatal(err)
				}
				live = live[1:]
			}
		}
	}
	if recycled != 3 {
		t.Fatalf("the cursor recycled %d times in 3 trips across the window's end", recycled)
	}
	seen := map[cluster.VMID]bool{survivor: true}
	for _, id := range live {
		if seen[id] {
			t.Fatalf("id %d issued to two live VMs", id)
		}
		seen[id] = true
	}
	if got := d.PlacementSnapshot(); len(got) != len(seen) || got[survivor] != survivorHost {
		t.Fatalf("%d VMs live, want %d; survivor on host %d, was %d", len(got), len(seen), got[survivor], survivorHost)
	}
	path, err := d.Snapshot(filepath.Join(t.TempDir(), "scored.snapshot"))
	if err != nil {
		t.Fatal(err)
	}
	r, err := Restore(path, Config{})
	if err != nil {
		t.Fatalf("Restore after recycling: %v", err)
	}
	defer r.Close()
	if id, _, err := r.Admit(AdmitRequest{RAMMB: 64}); err != nil || seen[id] {
		t.Fatalf("restored daemon issued id %d (live: %v), %v", id, seen[id], err)
	}
}

// TestRestoreAfterMiddleRetired: a snapshot is replayed one VM at a time,
// so every state the live daemon can reach has to be one AddVM rebuilds
// from empty. Here the IDs admitted between a low and a high survivor are
// all retired before the snapshot, leaving two VMs a whole window apart.
func TestRestoreAfterMiddleRetired(t *testing.T) {
	d := newTestDaemon(t, nil)
	const low = cluster.VMID(1)
	high := low + 4*16*4 + 1<<20 - 1 // the widest span the 64-slot test plant admits
	var middle []cluster.VMID
	for id := low + 1000; len(middle) < 40; id += 1000 {
		middle = append(middle, id)
	}
	for _, id := range append([]cluster.VMID{low, high}, middle...) {
		if _, _, err := d.Admit(AdmitRequest{ID: id, HasID: true, RAMMB: 64}); err != nil {
			t.Fatalf("admit %d: %v", id, err)
		}
	}
	if _, _, err := d.Admit(AdmitRequest{ID: high + 1, HasID: true, RAMMB: 64}); !errors.Is(err, cluster.ErrIDOutsideWindow) {
		t.Fatalf("admit %d = %v, want ErrIDOutsideWindow", high+1, err)
	}
	if _, rejected, err := d.Observe("t", []RateSample{{A: low, B: high, RateMbps: 7.5}, {A: low, B: middle[3], RateMbps: 1}}); err != nil || rejected != 0 {
		t.Fatalf("observe: rejected=%d err=%v", rejected, err)
	}
	for _, id := range middle {
		if err := d.RemoveVM(id); err != nil {
			t.Fatal(err)
		}
	}
	path, err := d.Snapshot(filepath.Join(t.TempDir(), "scored.snapshot"))
	if err != nil {
		t.Fatal(err)
	}
	r, err := Restore(path, Config{})
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	defer r.Close()
	want, got := d.PlacementSnapshot(), r.PlacementSnapshot()
	if len(got) != 2 || got[low] != want[low] || got[high] != want[high] {
		t.Fatalf("restored placement %v, want %v", got, want)
	}
	sameMatrix(t, "restored", r.tm, d.tm, []cluster.VMID{low, high, middle[3]})
}

// TestReservedVMIDZero: VM ID 0 is reserved — POST /v1/vms refuses it and
// /v1/vms/0 reaches nothing — so the daemon must never issue it, write it
// as the next ID, or take it back from a snapshot. A client pinning the
// top ID of the 32-bit space on an empty daemon carries the cursor past
// 2³²−1: every auto-issued admit after it still succeeds, below the
// pinned ID, and the snapshot written then names a next ID the restored
// daemon can issue from.
func TestReservedVMIDZero(t *testing.T) {
	const top = cluster.VMID(math.MaxUint32)
	// snapshotOf writes d's snapshot and decodes it.
	snapshotOf := func(t *testing.T, d *Daemon) snapshotFile {
		t.Helper()
		path, err := d.Snapshot(filepath.Join(t.TempDir(), "scored.snapshot"))
		if err != nil {
			t.Fatal(err)
		}
		buf, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var snap snapshotFile
		if err := json.Unmarshal(buf, &snap); err != nil {
			t.Fatal(err)
		}
		return snap
	}
	restore := func(t *testing.T, snap snapshotFile) (*Daemon, error) {
		t.Helper()
		buf, err := json.Marshal(&snap)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "edited.snapshot")
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Restore(path, Config{})
		if err == nil {
			t.Cleanup(func() { r.Close() })
		}
		return r, err
	}
	pinnedTop := func(t *testing.T) *Daemon {
		t.Helper()
		d := newTestDaemon(t, nil)
		if _, _, err := d.Admit(AdmitRequest{ID: top, HasID: true, RAMMB: 64}); err != nil {
			t.Fatal(err)
		}
		return d
	}
	lowIDs := func(t *testing.T) snapshotFile {
		t.Helper()
		d := newTestDaemon(t, nil)
		for i := 0; i < 3; i++ {
			if _, _, err := d.Admit(AdmitRequest{RAMMB: 64}); err != nil {
				t.Fatal(err)
			}
		}
		return snapshotOf(t, d)
	}

	t.Run("auto-issue after the top ID", func(t *testing.T) {
		d := pinnedTop(t)
		seen := map[cluster.VMID]bool{top: true}
		for i := 0; i < 40; i++ {
			id, _, err := d.Admit(AdmitRequest{RAMMB: 64})
			if err != nil || id == 0 || seen[id] {
				t.Fatalf("auto-issued admit %d: id %d (issued before: %v), %v", i, id, seen[id], err)
			}
			seen[id] = true
		}
		if _, _, err := d.Admit(AdmitRequest{ID: top - 1000, HasID: true, RAMMB: 64}); err != nil {
			t.Fatalf("pinned admit below the top: %v", err)
		}
	})
	t.Run("snapshot after the top ID", func(t *testing.T) {
		snap := snapshotOf(t, pinnedTop(t))
		if snap.NextID == 0 {
			t.Fatal("snapshot names the reserved VM ID 0 as the next ID")
		}
		r, err := restore(t, snap)
		if err != nil {
			t.Fatal(err)
		}
		if id, _, err := r.Admit(AdmitRequest{RAMMB: 64}); err != nil || id == 0 || id == top {
			t.Fatalf("restored daemon issued id %d, %v", id, err)
		}
	})
	t.Run("restore refuses next_id 0", func(t *testing.T) {
		snap := lowIDs(t)
		snap.NextID = 0
		if _, err := restore(t, snap); err == nil {
			t.Fatal("Restore accepted next_id 0")
		}
	})
	t.Run("restore refuses VM ID 0", func(t *testing.T) {
		snap := lowIDs(t)
		snap.VMs[0].ID = 0
		if _, err := restore(t, snap); err == nil {
			t.Fatal("Restore accepted a VM with ID 0")
		}
	})
}
