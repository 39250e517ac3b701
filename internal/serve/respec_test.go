package serve

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"github.com/score-dc/score/internal/cluster"
)

// TestRespecUnblocksNextRound: a VM whose every gainful target refuses
// it on RAM settles into a memoized no-move verdict; a PATCH that makes
// it fit — shrinking the VM itself, or shrinking a VM on the refusing
// host — must reach the decision engine, so the very next round
// migrates it. (cluster.Respec used to notify nobody.)
func TestRespecUnblocksNextRound(t *testing.T) {
	// k=4 fat-tree: hosts 0,1 share a rack in pod 0; hosts 8,9 one in pod 2.
	// VM 1 (host 0) talks to VM 2 (host 8); fillers 3 and 4 keep the
	// rack-mates 9 and 1 as short of RAM as the peers' own hosts.
	setup := func(t *testing.T) *Daemon {
		d := newTestDaemon(t, nil)
		for i, host := range []cluster.HostID{0, 8, 9, 1} {
			_, _, err := d.Admit(AdmitRequest{ID: cluster.VMID(i + 1), HasID: true, RAMMB: 3000, Host: host, HasHost: true})
			if err != nil {
				t.Fatal(err)
			}
		}
		if _, rejected, err := d.Observe("t", []RateSample{{A: 1, B: 2, RateMbps: 10}}); err != nil || rejected != 0 {
			t.Fatalf("observe: rejected=%d err=%v", rejected, err)
		}
		for round := 0; round < 2; round++ {
			st, err := d.Step(1)
			if err != nil || st.Applied != 0 {
				t.Fatalf("blocked round %d: applied=%d err=%v", round, st.Applied, err)
			}
		}
		if got := metricValue(t, d, `score_token_visits_total{outcome="skipped"}`); got == 0 {
			t.Fatal("second blocked round skipped no visit; the scenario does not exercise the memo")
		}
		return d
	}
	cases := []struct {
		name   string
		patch  uint32 // VM to shrink
		ram    int
		wantOn cluster.HostID // where VM 1 lands
	}{
		{"shrink the refused VM", 1, 1000, 8},
		{"shrink a VM on the refusing host", 3, 64, 9},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := setup(t)
			body := fmt.Sprintf(`{"ram_mb":%d}`, tc.ram)
			if rec := do(t, d.Handler(), "PATCH", fmt.Sprintf("/v1/vms/%d", tc.patch), body, nil); rec.Code != 200 {
				t.Fatalf("PATCH: %d %s", rec.Code, rec.Body.String())
			}
			st, err := d.Step(1)
			if err != nil {
				t.Fatal(err)
			}
			if got := d.PlacementSnapshot()[1]; st.Applied != 1 || got != tc.wantOn {
				t.Fatalf("round after PATCH applied %d moves, VM 1 on host %d; want 1 move to host %d", st.Applied, got, tc.wantOn)
			}
		})
	}
}

// metricValue reads one series (name with its label set, as exposed)
// from the daemon's /metrics text.
func metricValue(t *testing.T, d *Daemon, series string) float64 {
	t.Helper()
	rec := do(t, d.Handler(), "GET", "/metrics", "", nil)
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), series+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("series %s: %v", series, err)
			}
			return v
		}
	}
	t.Fatalf("series %s not exposed", series)
	return 0
}
