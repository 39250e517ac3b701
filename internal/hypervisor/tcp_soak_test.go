package hypervisor

import (
	"runtime"
	"testing"
	"time"

	"github.com/score-dc/score/internal/token"
)

// tcpSoakRounds caps the multi-round soak: enough rounds to exercise
// connection reuse across round boundaries without letting the socket
// count dominate CI time (a dense k=8 plane quiesces in a handful of
// rounds anyway).
const tcpSoakRounds = 5

// TestTCPSoakShardedRound drives multi-round convergence over real
// loopback TCP sockets — every capacity probe, shard token hop,
// progress ack, completion report and commit crosses a real listener —
// on the fat-tree k=8 instance (128 dom0 listeners, 512 VMs,
// 4 rings), running rounds until quiescence (or the round cap). It
// asserts the rounds complete healthily, executes Theorem-1-positive
// moves, measures the dials the pooled transport saves (every send that
// rode a warm connection instead of dialing one), and leaks no goroutines
// once the plane closes.
func TestTCPSoakShardedRound(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP soak dials thousands of sockets; skipped with -short")
	}
	baseline := runtime.NumGoroutine()

	p := buildShardPlaneOpts(t, 8, 20140630, 50, 4, token.HighestLevelFirst{}, planeOpts{
		tcp: true,
		// Real dials are slower than hub sends; give visits headroom so
		// the deadline machinery never fires on a healthy plane.
		probeTimeout:  5 * time.Second,
		shardDeadline: 30 * time.Second,
	})
	applied, rounds := 0, 0
	for round := 0; round < tcpSoakRounds; round++ {
		rep, err := p.rec.RunRound()
		if err != nil {
			t.Fatalf("TCP round %d failed: %v", round+1, err)
		}
		rounds++
		if rep.Regenerated != 0 || len(rep.Evicted) != 0 {
			t.Fatalf("healthy TCP plane recovered rings in round %d: regen=%d evicted=%v",
				round+1, rep.Regenerated, rep.Evicted)
		}
		if round == 0 {
			if len(rep.Applied) == 0 {
				t.Fatal("first TCP round applied no migrations; soak vacuous")
			}
			vms, hops := 0, 0
			for _, ring := range rep.Rings {
				if ring.VMs > 0 && ring.Latency <= 0 {
					t.Fatalf("ring %d reported no latency", ring.Shard)
				}
				vms += ring.VMs
				hops += ring.Hops
			}
			if hops != vms {
				t.Fatalf("one-pass round visited %d of %d VMs", hops, vms)
			}
		}
		for i, d := range rep.Applied {
			if d.Delta <= 0 {
				t.Fatalf("round %d move %d has non-improving ΔC %v", round+1, i, d.Delta)
			}
		}
		applied += len(rep.Applied)
		if len(rep.Applied) == 0 {
			break // quiesced
		}
	}
	if rounds < 2 {
		t.Fatalf("soak finished after %d round(s); multi-round reuse unexercised", rounds)
	}

	// Connection reuse: sum the pool counters over every endpoint. Each
	// send either dialed or rode a warm connection, so sends − dials is
	// the handshakes the pool saved; across multiple rounds the warm
	// reconciler↔agent and agent↔agent pairs must make reuse the common
	// case.
	var st TCPStats
	for _, tr := range p.tcps {
		s := tr.Stats()
		st.Sends += s.Sends
		st.Dials += s.Dials
		st.Reused += s.Reused
	}
	if st.Sends == 0 {
		t.Fatal("no sends recorded; stats plumbing broken")
	}
	if st.Dials >= st.Sends {
		t.Fatalf("pool reused nothing: %d dials for %d sends", st.Dials, st.Sends)
	}
	if st.Reused < st.Sends/2 {
		t.Fatalf("pool reuse below 50%%: %d of %d sends reused a connection", st.Reused, st.Sends)
	}
	t.Logf("soak: %d rounds, %d migrations, %d sends over %d dials (%d reused, %.1f%% dial overhead saved)",
		rounds, applied, st.Sends, st.Dials, st.Reused,
		100*float64(st.Sends-st.Dials)/float64(st.Sends))

	// Tear the plane down and verify every listener, connection handler
	// and dispatch goroutine exits — the soak's leak check.
	_ = p.rec.Close()
	for _, ag := range p.agents {
		_ = ag.Close()
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		// Allow slack for runtime-owned goroutines (timer scavenger,
		// race runtime) that come and go outside our control.
		if n := runtime.NumGoroutine(); n <= baseline+3 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked after close: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}
