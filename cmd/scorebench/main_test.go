package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs the command itself when the test starts this binary as
// a child with SCOREBENCH_RUN_MAIN=1.
func TestMain(m *testing.M) {
	if os.Getenv("SCOREBENCH_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestOnlyRejectsWhatItCannotRun: an -only key that names no section,
// or dist without a distributed sweep to run, exits non-zero with a
// message, instead of printing nothing and succeeding; a known key runs.
func TestOnlyRejectsWhatItCannotRun(t *testing.T) {
	for _, c := range []struct {
		only, msg string
	}{
		{"fig5,figure2", `unknown -only key "fig5" (valid: fig2,fig3tm,fig3,fig4,fig5a,fig5b,ablations,shards,dist,autotune,fig5cd)`},
		{"fig2,figure2", `unknown -only key "figure2"`},
		{"dist", "-only dist needs -distributed-shards above 0"},
		{"fig5b", ""},
	} {
		cmd := exec.Command(os.Args[0], "-scale", "small", "-out", "", "-only", c.only)
		cmd.Env = append(os.Environ(), "SCOREBENCH_RUN_MAIN=1")
		out, err := cmd.CombinedOutput()
		if c.msg == "" {
			if err != nil || !strings.Contains(string(out), "Fig 5b") {
				t.Fatalf("-only %s: %v\n%s", c.only, err, out)
			}
			continue
		}
		if err == nil || !strings.Contains(string(out), c.msg) {
			t.Fatalf("-only %s: exit %v, output %q; want a failure saying %q", c.only, err, out, c.msg)
		}
	}
}
