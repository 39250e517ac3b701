package score_test

import (
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
)

const modulePath = "github.com/score-dc/score"

// moduleDeps returns the packages of this module that pkg (a path
// relative to the module root) reaches through the imports of its
// non-test files, itself included — `go list -deps` restricted to the
// module, computed from the parsed source (moduleSource) so the test needs
// no toolchain at run time.
func moduleDeps(t *testing.T, pkg string) map[string]bool {
	t.Helper()
	seen := map[string]bool{}
	var visit func(rel string)
	visit = func(rel string) {
		if seen[rel] {
			return
		}
		seen[rel] = true
		for _, f := range srcIn(t, rel, false) {
			for _, imp := range f.ast.Imports {
				path, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					t.Fatal(err)
				}
				if sub, ok := strings.CutPrefix(path, modulePath+"/"); ok {
					visit(sub)
				} else if path == modulePath {
					visit(".")
				}
			}
		}
	}
	visit(pkg)
	return seen
}

// TestImportBoundaries keeps the running system apart from the paper's
// figure machinery. The scheduler planes, the observability plane and the
// resident service must not reach the simulator or any paper-figure
// package, the agent plane must not reach the adaptive control plane,
// and the daemon links exactly the packages listed here — the
// simulator, the agent plane and their models came in once through two
// metric helpers, and must not come back unnoticed.
func TestImportBoundaries(t *testing.T) {
	if _, err := os.Stat("go.mod"); err != nil {
		t.Fatalf("test must run from the module root: %v", err)
	}
	forbidden := []string{"sim", "flowtable", "migration", "netsim", "remedy", "ga", "viz", "experiments"}
	for _, pkg := range []string{"serve", "shard", "hypervisor", "obs"} {
		deps := moduleDeps(t, "internal/"+pkg)
		for _, f := range forbidden {
			if deps["internal/"+f] {
				t.Errorf("internal/%s reaches internal/%s", pkg, f)
			}
		}
	}
	// The dom0 plane owns its recovery deadlines; the adaptive control
	// plane reaches it only through the shard.Tuner interface.
	if moduleDeps(t, "internal/hypervisor")["internal/control"] {
		t.Error("internal/hypervisor reaches internal/control")
	}

	daemon := map[string]bool{
		"cmd/scored": true, "internal/serve": true, "internal/control": true, "internal/shard": true,
		"internal/core": true, "internal/token": true, "internal/traffic": true, "internal/cluster": true,
		"internal/topology": true, "internal/obs": true,
	}
	var extra []string
	for dep := range moduleDeps(t, "cmd/scored") {
		if !daemon[dep] {
			extra = append(extra, dep)
		}
	}
	sort.Strings(extra)
	if len(extra) > 0 {
		t.Errorf("cmd/scored links %v; the daemon's closure is the ten packages of the decision, scheduling, control, observability and serve layers", extra)
	}
}
