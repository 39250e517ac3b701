package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/score-dc/score/internal/cluster"
)

func writeFile(path, contents string) error {
	return os.WriteFile(path, []byte(contents), 0o644)
}

// TestSnapshotRestoreRoundTrip snapshots a daemon mid-run, restores it,
// and requires (a) state equality — placement, traffic, counters — and
// (b) that the restored daemon's subsequent rounds decide exactly as
// the uninterrupted original's: same per-round migration counts, same
// costs, same final placement, continuous round numbering.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	rec := recordStream(23, 40, 16, 4)
	path := filepath.Join(t.TempDir(), "scored.snapshot")

	d := newTestDaemon(t, nil)
	for _, vm := range rec.vms {
		if _, _, err := d.Admit(AdmitRequest{
			ID: cluster.VMID(vm.ID), HasID: true, RAMMB: vm.RAMMB,
			Host: cluster.HostID(vm.Host), HasHost: true,
		}); err != nil {
			t.Fatalf("admit %d: %v", vm.ID, err)
		}
	}
	if _, rejected, err := d.Observe("replay", rec.rates); err != nil || rejected != 0 {
		t.Fatalf("observe: err=%v rejected=%d", err, rejected)
	}
	// Run partway — snapshot mid-convergence, not at a fixpoint.
	if _, err := d.Step(2); err != nil {
		t.Fatalf("step: %v", err)
	}
	got, err := d.Snapshot(path)
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if got != path {
		t.Fatalf("snapshot path %q, want %q", got, path)
	}

	r, err := Restore(path, Config{})
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	t.Cleanup(func() { r.Close() })

	// State equality at the restore point.
	if want, gotR := d.Rounds(), r.Rounds(); want != gotR {
		t.Fatalf("round counter: restored %d, original %d", gotR, want)
	}
	origAlloc, restAlloc := d.PlacementSnapshot(), r.PlacementSnapshot()
	if len(origAlloc) != len(restAlloc) {
		t.Fatalf("allocation sizes differ: %d vs %d", len(origAlloc), len(restAlloc))
	}
	for vm, host := range origAlloc {
		if restAlloc[vm] != host {
			t.Fatalf("VM %d restored on host %d, want %d", vm, restAlloc[vm], host)
		}
	}
	origPairs, origRates := d.tm.Pairs()
	if restPairs := r.tm.NumPairs(); restPairs != len(origPairs) {
		t.Fatalf("restored %d pairs, want %d", restPairs, len(origPairs))
	}
	for i, p := range origPairs {
		if rr := r.tm.Rate(p.A, p.B); rr != origRates[i] {
			t.Fatalf("pair (%d,%d): restored rate %v, want %v (must be bit-identical)", p.A, p.B, rr, origRates[i])
		}
	}
	if d.ctrl.PersistedState() != r.ctrl.PersistedState() {
		t.Fatalf("controller hysteresis differs:\n  original %+v\n  restored %+v",
			d.ctrl.PersistedState(), r.ctrl.PersistedState())
	}
	for _, vm := range rec.vms {
		ov, err1 := d.cl.VM(cluster.VMID(vm.ID))
		rv, err2 := r.cl.VM(cluster.VMID(vm.ID))
		if err1 != nil || err2 != nil || ov != rv {
			t.Fatalf("VM %d spec differs: %+v vs %+v (%v, %v)", vm.ID, ov, rv, err1, err2)
		}
	}

	// Identical subsequent decisions, round by round, to quiescence.
	for round := 0; ; round++ {
		so, err := d.Step(1)
		if err != nil {
			t.Fatalf("original step: %v", err)
		}
		sr, err := r.Step(1)
		if err != nil {
			t.Fatalf("restored step: %v", err)
		}
		if so.Applied != sr.Applied || so.Quiesced != sr.Quiesced {
			t.Fatalf("round %d diverged: original %+v, restored %+v", round, so, sr)
		}
		// The restored engine sums the same rates in snapshot order, not
		// the original's insertion order, to the same bits.
		if math.Float64bits(so.Cost) != math.Float64bits(sr.Cost) {
			t.Fatalf("round %d cost diverged: original %.17g, restored %.17g", round, so.Cost, sr.Cost)
		}
		if so.Quiesced {
			break
		}
		if round > 64 {
			t.Fatal("no quiescence after 64 rounds")
		}
	}
	finalO, finalR := d.PlacementSnapshot(), r.PlacementSnapshot()
	for vm, host := range finalO {
		if finalR[vm] != host {
			t.Fatalf("final placement diverged at VM %d: %d vs %d", vm, finalR[vm], host)
		}
	}
	// The restored run continued the original's round numbering.
	if d.Rounds() != r.Rounds() {
		t.Fatalf("round counters diverged: %d vs %d", d.Rounds(), r.Rounds())
	}
	// Auto-issued IDs continue where the original's left off.
	idO, _, err := d.Admit(AdmitRequest{RAMMB: 64})
	if err != nil {
		t.Fatalf("original post-restore admit: %v", err)
	}
	idR, _, err := r.Admit(AdmitRequest{RAMMB: 64})
	if err != nil {
		t.Fatalf("restored post-restore admit: %v", err)
	}
	if idO != idR {
		t.Fatalf("next auto ID diverged: original %d, restored %d", idO, idR)
	}
}

// TestRestoreRejectsBadSnapshots covers the failure modes Restore must
// refuse rather than half-load.
func TestRestoreRejectsBadSnapshots(t *testing.T) {
	dir := t.TempDir()
	if _, err := Restore(filepath.Join(dir, "missing"), Config{}); err == nil {
		t.Fatal("Restore of a missing file succeeded")
	}
	bad := filepath.Join(dir, "bad.json")
	if err := writeFile(bad, `{"version":99}`); err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(bad, Config{}); err == nil {
		t.Fatal("Restore of an unknown version succeeded")
	}
	garbage := filepath.Join(dir, "garbage")
	if err := writeFile(garbage, "not json"); err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(garbage, Config{}); err == nil {
		t.Fatal("Restore of garbage succeeded")
	}
}

// TestRestoreRejectsBadPairs: a snapshot's pairs are outside input like
// observe samples and pass the same test — an edited, truncated-then-
// patched or foreign file whose pair names a VM the file does not place,
// joins a VM to itself or carries a negative, non-finite or above-ceiling
// rate is refused with an error naming the pair, before any daemon exists (and
// before the traffic matrix sizes a row table from the file).
func TestRestoreRejectsBadPairs(t *testing.T) {
	rec := recordStream(31, 24, 16, 4)
	d := newTestDaemon(t, nil)
	for _, vm := range rec.vms {
		if _, _, err := d.Admit(AdmitRequest{
			ID: cluster.VMID(vm.ID), HasID: true, RAMMB: vm.RAMMB,
			Host: cluster.HostID(vm.Host), HasHost: true,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, rejected, err := d.Observe("t", rec.rates); err != nil || rejected != 0 {
		t.Fatalf("observe: rejected=%d err=%v", rejected, err)
	}
	dir := t.TempDir()
	good := filepath.Join(dir, "good.snapshot")
	if _, err := d.Snapshot(good); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		edit func(p *snapPair) // applied to pair 3 of the good file
		ok   bool
	}{
		{"unedited", func(*snapPair) {}, true},
		{"retired pair", func(p *snapPair) { p.RateBits = 0 }, true},
		{"unknown endpoint", func(p *snapPair) { p.B = 9999 }, false},
		{"endpoint far outside the ID window", func(p *snapPair) { p.A = 4000000000 }, false},
		{"self-pair", func(p *snapPair) { p.B = p.A }, false},
		{"negative rate", func(p *snapPair) { p.RateBits = math.Float64bits(-1) }, false},
		{"NaN rate", func(p *snapPair) { p.RateBits = math.Float64bits(math.NaN()) }, false},
		{"+Inf rate", func(p *snapPair) { p.RateBits = math.Float64bits(math.Inf(1)) }, false},
		{"-Inf rate", func(p *snapPair) { p.RateBits = math.Float64bits(math.Inf(-1)) }, false},
		{"rate at the grid ceiling", func(p *snapPair) { p.RateBits = math.Float64bits(1 << 32) }, true},
		{"finite rate above the grid ceiling", func(p *snapPair) { p.RateBits = math.Float64bits(1e300) }, false},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var snap snapshotFile
			if err := json.Unmarshal(buf, &snap); err != nil {
				t.Fatal(err)
			}
			tc.edit(&snap.Pairs[3])
			edited, err := json.Marshal(&snap)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, fmt.Sprintf("case%d.snapshot", i))
			if err := os.WriteFile(path, edited, 0o644); err != nil {
				t.Fatal(err)
			}
			r, err := Restore(path, Config{})
			if tc.ok {
				if err != nil {
					t.Fatalf("Restore: %v", err)
				}
				r.Close()
				return
			}
			if err == nil {
				r.Close()
				t.Fatal("Restore accepted the snapshot")
			}
			p := snap.Pairs[3]
			if want := fmt.Sprintf("pair 3 (a=%d, b=%d,", p.A, p.B); !strings.Contains(err.Error(), want) {
				t.Fatalf("error %q does not name %q", err, want)
			}
		})
	}
}
