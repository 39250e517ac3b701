package hypervisor

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/score-dc/score/internal/cluster"
	"github.com/score-dc/score/internal/core"
	"github.com/score-dc/score/internal/obs"
	"github.com/score-dc/score/internal/token"
)

// fingerprintDecision serializes one applied migration bit-exactly.
func fingerprintDecision(d core.Decision) string {
	return fmt.Sprintf("vm %d: %d->%d delta=%x\n", d.VM, d.From, d.Target, math.Float64bits(d.Delta))
}

// fingerprintPlacement serializes a final placement deterministically.
func fingerprintPlacement(place map[cluster.VMID]cluster.HostID) string {
	ids := make([]cluster.VMID, 0, len(place))
	for vm := range place {
		ids = append(ids, vm)
	}
	slices.Sort(ids)
	out := ""
	for _, vm := range ids {
		out += fmt.Sprintf("%d@%d ", vm, place[vm])
	}
	return out
}

// adaptiveDelayOpts is the shared fixture of the adaptive-deadline
// chaos comparison: 40% of shard-token hops delayed 25ms against an
// 8ms progress deadline, so every delayed hop overruns the fixed
// deadline. Eviction is pushed far out — live hosts must never be
// evicted while the deadline policy is what is under test.
func adaptiveDelayOpts(adaptive bool) (*FaultPlan, planeOpts) {
	plan := NewFaultPlan(FaultConfig{
		Seed:      20140630,
		DelayProb: 0.4,
		Delay:     25 * time.Millisecond,
		Types:     []MsgType{MsgShardToken},
	})
	return plan, planeOpts{
		faults:        plan,
		shardDeadline: 8 * time.Millisecond,
		evictAttempts: 64,
		adaptive:      adaptive,
	}
}

// TestChaosAdaptiveDeadlineReducesSpuriousRegens is the adaptive-
// deadline acceptance test: under injected token delay (no loss — every
// regeneration is a false positive), the adaptive policy must
// regenerate strictly less than the fixed-deadline baseline, with
// strictly fewer witnessed-spurious regenerations, while producing the
// IDENTICAL migration sequence and final placement — regenerations are
// safe, so the two runs may differ only in wasted recovery work.
func TestChaosAdaptiveDeadlineReducesSpuriousRegens(t *testing.T) {
	type outcome struct {
		regens, spurious int
		fingerprint      string
	}
	run := func(adaptive bool) outcome {
		plan, opts := adaptiveDelayOpts(adaptive)
		p := buildShardPlaneOpts(t, 4, 7, 10, 4, token.HighestLevelFirst{}, opts)
		applied, reports := distributedRounds(t, p)
		if len(applied) == 0 {
			t.Fatal("no migrations; comparison vacuous")
		}
		if st := plan.Stats(); st.Delayed == 0 {
			t.Fatalf("fault plan inert: %+v", st)
		}
		var o outcome
		for _, rep := range reports {
			o.regens += rep.Regenerated
			o.spurious += rep.SpuriousRegens
			if len(rep.Evicted) != 0 {
				t.Fatalf("delay injection evicted live hosts: %v", rep.Evicted)
			}
		}
		// Fingerprint only the decision-relevant output: regeneration
		// counts legitimately differ between the two policies, the
		// migrations must not.
		place := p.finalPlacement()
		o.fingerprint = ""
		for _, rep := range reports {
			for _, d := range rep.Applied {
				o.fingerprint += fingerprintDecision(d)
			}
		}
		o.fingerprint += fingerprintPlacement(place)
		return o
	}
	fixed := run(false)
	adaptive := run(true)
	if fixed.regens == 0 || fixed.spurious == 0 {
		t.Fatalf("fixed baseline regenerated nothing (regens=%d spurious=%d); comparison vacuous",
			fixed.regens, fixed.spurious)
	}
	if adaptive.regens >= fixed.regens {
		t.Fatalf("adaptive deadlines regenerated %d tokens, fixed baseline %d", adaptive.regens, fixed.regens)
	}
	if adaptive.spurious >= fixed.spurious {
		t.Fatalf("adaptive deadlines left %d spurious regens, fixed baseline %d", adaptive.spurious, fixed.spurious)
	}
	if adaptive.fingerprint != fixed.fingerprint {
		t.Fatal("adaptive deadlines changed the migration outcome; regenerations must be behavior-neutral")
	}
	t.Logf("regens fixed=%d adaptive=%d, spurious fixed=%d adaptive=%d",
		fixed.regens, adaptive.regens, fixed.spurious, adaptive.spurious)
}

// TestChaosAdaptiveDeadlineCatchesDeadRing: adaptive deadlines must not
// trade false positives for false negatives — a dom0 that goes silent
// mid-round is still detected (the learned deadline expires, eviction
// escalates) and the round completes without it. On a healthy in-memory
// fabric the learned deadline sits near the estimator floor, far below
// the conservative fixed default, so the dead ring is caught faster,
// not slower.
func TestChaosAdaptiveDeadlineCatchesDeadRing(t *testing.T) {
	plan := NewFaultPlan(FaultConfig{Seed: 5})
	p := buildShardPlaneOpts(t, 4, 11, 10, 4, token.RoundRobin{}, planeOpts{
		faults:       plan,
		probeTimeout: 25 * time.Millisecond,
		// The fixed fallback is deliberately generous: the adaptive
		// estimator must beat it, not ride it.
		shardDeadline: 2 * time.Second,
		adaptive:      true,
	})

	// Warm the estimator with one healthy round (cold injection uses the
	// fixed fallback), then check a second healthy round: "dead rings
	// are caught faster" means every populated ring's detection deadline
	// has collapsed far below the 2s fixed fallback — the trigger
	// latency a silent ring would be noticed at. (The full eviction
	// chain additionally pays the degraded visit latency a dead host
	// inflicts on its shard, so wall-clock bounds on it are not
	// asserted.)
	if _, err := p.rec.RunRound(); err != nil {
		t.Fatalf("warm-up round: %v", err)
	}
	warm, err := p.rec.RunRound()
	if err != nil {
		t.Fatalf("second healthy round: %v", err)
	}
	for _, ring := range warm.Rings {
		if ring.VMs == 0 {
			continue
		}
		if ring.Deadline <= 0 || ring.Deadline > 200*time.Millisecond {
			t.Fatalf("ring %d deadline %v after a healthy round; want collapsed well below the 2s fallback",
				ring.Shard, ring.Deadline)
		}
	}

	// Crash a shard-0 host that is not the injection point, exactly as
	// the fixed-deadline eviction test does.
	firstVM := cluster.VMID(1 << 30)
	for h := 0; h < 4; h++ {
		for _, vm := range p.agents[h].VMs() {
			if vm < firstVM {
				firstVM = vm
			}
		}
	}
	firstHost, ok := p.reg.HostOfVM(firstVM)
	if !ok {
		t.Fatalf("injection VM %d unregistered", firstVM)
	}
	victim := cluster.HostID(-1)
	for h := cluster.HostID(0); h < 4; h++ {
		if h != firstHost && len(p.agents[h].VMs()) > 0 {
			victim = h
			break
		}
	}
	if victim < 0 {
		t.Skip("pod 0 concentrated on one host this seed; crash path unexercised")
	}
	victimAddr := p.agents[victim].Addr()
	var once sync.Once
	for _, ag := range p.agents {
		ag.OnShardToken = func(shard int, ev TokenEvent) {
			if shard == 0 {
				once.Do(func() { plan.Isolate(victimAddr) })
			}
		}
	}

	rep, err := p.rec.RunRound()
	if err != nil {
		t.Fatalf("crash round did not complete under adaptive deadlines: %v", err)
	}
	evicted := false
	for _, h := range rep.Evicted {
		if h == victim {
			evicted = true
		}
	}
	if !evicted {
		t.Fatalf("dead host %d not evicted; evicted=%v regenerated=%d", victim, rep.Evicted, rep.Regenerated)
	}
	if rep.Regenerated == 0 {
		t.Fatal("dead ring recovered without any token re-injection")
	}
}

// TestAdaptiveDeadlineExportsHopLatency: the estimator's per-shard
// gauges belong to the plane, not to a Tuner. A reconciler with
// AdaptiveDeadline, PlaneMetrics and no Tuner serves, after one
// fault-free round, a score_control_hop_latency_seconds and a
// score_control_hop_stddev_seconds sample for every ring that hopped.
func TestAdaptiveDeadlineExportsHopLatency(t *testing.T) {
	reg := obs.NewRegistry()
	p := buildShardPlaneOpts(t, 4, 7, 10, 4, token.HighestLevelFirst{}, planeOpts{
		adaptive: true,
		metrics:  NewPlaneMetrics(reg),
	})
	rep, err := p.rec.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	rr := httptest.NewRecorder()
	obs.Handler(reg, nil, nil).ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := rr.Body.String()
	rings := 0
	for _, ring := range rep.Rings {
		if ring.Hops < 2 {
			continue
		}
		rings++
		for _, fam := range []string{"score_control_hop_latency_seconds", "score_control_hop_stddev_seconds"} {
			if sample := fmt.Sprintf("%s{shard=\"%d\"} ", fam, ring.Shard); !strings.Contains(body, sample) {
				t.Errorf("/metrics has no %s sample for a ring of %d hops", sample, ring.Hops)
			}
		}
	}
	if rings < 2 {
		t.Fatalf("%d rings hopped more than once; the round is not multi-hop", rings)
	}
}
