package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"

	"github.com/score-dc/score/bench/stat"
)

// runAA is the benchmark's check on itself: for every workload (or the
// one -workload names), two interleaved sets of n fresh-process runs of
// the same code on the same seed. A metric passes when the two sets' medians differ by at most
// half its bound and each set's quartile spread stays within the bound;
// a metric that cannot pass is fixed or demoted, never given a looser
// bound. The table it prints is what README.md carries.
func runAA(opt options, n int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	fp := fingerprint(opt.repoDir)
	fmt.Printf("A/A: 2 × %d runs per workload, seed %d, %g s\n", n, opt.seed, opt.seconds)
	fmt.Printf("host: nproc %d, %s, %s, GOMAXPROCS %d, commit %s\n\n", fp.NProc, fp.CPUModel, fp.GoVersion, fp.GOMAXPROCS, fp.Commit)
	fmt.Println("| workload | metric | unit | A median [Q1, Q3] | B median [Q1, Q3] | medians differ | spread A | spread B | bound | verdict |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|---|")
	disagree := 0
	names := workloadNames
	if opt.workload != "" {
		names = []string{opt.workload}
	}
	for _, name := range names {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < 2*n; i++ {
			// Pairs alternate which set runs first: A B, B A, A B, …
			set := i % 2
			if (i/2)%2 == 1 {
				set = 1 - set
			}
			res, err := runChild(self, opt, name)
			if err != nil {
				return fmt.Errorf("%s run %d: %w", name, i, err)
			}
			for _, d := range opt.decl.EndToEnd {
				sets[set][d.Name] = append(sets[set][d.Name], res.Metrics[d.Name].Value)
			}
		}
		for _, d := range opt.decl.EndToEnd {
			a, b := sets[0][d.Name], sets[1][d.Name]
			ma, mb := stat.Median(a), stat.Median(b)
			diff := math.Abs(mb-ma) / ma
			sa, sb := spread(a), spread(b)
			verdict := "agree"
			if diff > d.Bound/2 || sa > d.Bound || sb > d.Bound {
				verdict = "DISAGREE"
				disagree++
			}
			fmt.Printf("| %s | %s | %s | %s | %s | %.2f %% | %.2f %% | %.2f %% | %g %% | %s |\n",
				name, d.Name, d.Unit, summary(a), summary(b), 100*diff, 100*sa, 100*sb, 100*d.Bound, verdict)
		}
	}
	if disagree > 0 {
		return fmt.Errorf("%d metrics disagree between the two sets", disagree)
	}
	return nil
}

// spread is the distance between the quartiles as a share of the median.
func spread(v []float64) float64 {
	q1, q3 := stat.Quartiles(v)
	return (q3 - q1) / stat.Median(v)
}

func summary(v []float64) string {
	q1, q3 := stat.Quartiles(v)
	return fmt.Sprintf("%.5g [%.5g, %.5g]", stat.Median(v), q1, q3)
}

// runChild runs one workload in a fresh process and parses the result
// line it prints last.
func runChild(self string, opt options, workload string) (*result, error) {
	cmd := exec.Command(self, "-workload", workload,
		"-seed", strconv.FormatInt(opt.seed, 10),
		"-seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	out = bytes.TrimSpace(out)
	last := out[bytes.LastIndexByte(out, '\n')+1:]
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("result line %q: %w", last, err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("%d of %d ops failed", res.Failed, res.Attempted)
	}
	return &res, nil
}
