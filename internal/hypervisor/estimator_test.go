package hypervisor

import (
	"os"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestEstimatorScript replays testdata/estimator_script.txt against the
// estimator on three shards. Each line is one step — observe, penalize,
// relax or reset (a ring-shape change) — followed after "->" by the
// deadlines every shard then reports for an 8ms and a 5s fallback, in
// shard order ("|" separates shards). The table pins the estimator's
// whole arithmetic: warm-up, the EWMA and its variance, the floor, the
// cap, the boost and its 64× ceiling.
func TestEstimatorScript(t *testing.T) {
	raw, err := os.ReadFile("testdata/estimator_script.txt")
	if err != nil {
		t.Fatal(err)
	}
	e := &latencyEstimator{}
	steps := 0
	for n, line := range strings.Split(string(raw), "\n") {
		if line = strings.TrimSpace(line); line == "" || line[0] == '#' {
			continue
		}
		step, want, ok := strings.Cut(line, "->")
		if !ok {
			t.Fatalf("line %d: no \"->\": %q", n+1, line)
		}
		f := strings.Fields(step)
		s := 0
		if len(f) > 1 {
			if s, err = strconv.Atoi(f[1]); err != nil {
				t.Fatalf("line %d: shard: %v", n+1, err)
			}
		}
		switch f[0] {
		case "observe":
			d, err := time.ParseDuration(f[2])
			if err != nil {
				t.Fatalf("line %d: %v", n+1, err)
			}
			e.observe(s, d)
		case "penalize":
			e.penalize(s)
		case "relax":
			e.relax(s)
		case "reset":
			e.shape(e.rings+1, e.gran)
		default:
			t.Fatalf("line %d: unknown step %q", n+1, f[0])
		}
		var got []string
		for s := 0; s < 3; s++ {
			got = append(got, e.deadline(s, 8*time.Millisecond).String(), e.deadline(s, 5*time.Second).String())
		}
		if g, w := strings.Join(got, " "), strings.Join(strings.Fields(strings.ReplaceAll(want, "|", " ")), " "); g != w {
			t.Errorf("line %d (%s): deadlines %s, want %s", n+1, strings.TrimSpace(step), g, w)
		}
		steps++
	}
	if steps < 40 {
		t.Fatalf("script has %d steps, want at least 40", steps)
	}
}

// TestEstimatorDeadline covers the estimator's arithmetic case by case:
// warm-up fallback, EWMA+k·stddev deadlines, the estMin floor and estMax
// cap, the penalty/decay path and the estMaxBoost cap.
func TestEstimatorDeadline(t *testing.T) {
	e := &latencyEstimator{}
	fallback := 50 * time.Millisecond
	if d := e.deadline(0, fallback); d != fallback {
		t.Fatalf("cold estimator returned %v, want fallback %v", d, fallback)
	}
	// Constant observations: variance 0, deadline = estHopBudget × mean.
	for i := 0; i < estWarmup; i++ {
		e.observe(0, 10*time.Millisecond)
	}
	if d := e.deadline(0, fallback); d != 40*time.Millisecond {
		t.Fatalf("constant 10ms hops: deadline %v, want 40ms", d)
	}
	// penalize doubles (pre- and post-warmup), relax decays back.
	e.penalize(0)
	if d := e.deadline(0, fallback); d != 80*time.Millisecond {
		t.Fatalf("penalized deadline %v, want 80ms", d)
	}
	e.relax(0)
	if d := e.deadline(0, fallback); d != 40*time.Millisecond {
		t.Fatalf("relaxed deadline %v, want 40ms", d)
	}
	// Variance raises the margin above the mean-only deadline.
	e.observe(0, 30*time.Millisecond)
	if d, mean := e.deadline(0, fallback), time.Duration(e.at(0).mean*float64(time.Second)); d <= estHopBudget*mean {
		t.Fatalf("jittery hops: deadline %v did not include a stddev margin over %v", d, estHopBudget*mean)
	}
	// Clamps.
	for i := 0; i < estWarmup; i++ {
		e.observe(1, time.Microsecond)
		e.observe(2, time.Hour)
	}
	if d := e.deadline(1, time.Second); d != estMin {
		t.Fatalf("quiet fabric: deadline %v, want the %v floor", d, estMin)
	}
	if d := e.deadline(2, time.Second); d != estMax {
		t.Fatalf("slow fabric: deadline %v, want the %v cap", d, estMax)
	}
	// The boost multiplies the floored estimate, and stops at estMaxBoost.
	for i := 0; i < 10; i++ {
		e.penalize(1)
	}
	if d := e.deadline(1, time.Second); d != estMaxBoost*estMin {
		t.Fatalf("quiet fabric after 10 penalties: deadline %v, want %v", d, estMaxBoost*estMin)
	}
	// A cold shard's penalties still act on the fallback — the escape
	// hatch when accepted samples never arrive.
	e.penalize(7)
	e.penalize(7)
	if d := e.deadline(7, 10*time.Millisecond); d != 40*time.Millisecond {
		t.Fatalf("cold penalized deadline %v, want 40ms", d)
	}
	// A ring-shape change forgets everything; the same shape keeps it.
	e.shape(e.rings, e.gran)
	if d := e.deadline(0, fallback); d == fallback {
		t.Fatal("an unchanged shape dropped the estimates")
	}
	e.shape(e.rings+1, e.gran)
	if d := e.deadline(0, fallback); d != fallback {
		t.Fatalf("reshaped estimator returned %v, want fallback", d)
	}
}
