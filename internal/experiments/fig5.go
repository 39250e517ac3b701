package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"github.com/score-dc/score/internal/flowtable"
	"github.com/score-dc/score/internal/migration"
	"github.com/score-dc/score/internal/stats"
)

// Fig5aResult measures flow-table add/lookup/delete wall time against
// the number of simultaneous flows for the two flow-set types of the
// paper's stress test.
type Fig5aResult struct {
	Sizes []int
	// Seconds per full pass over the table, indexed like Sizes.
	AddType1, LookupType1, DeleteType1 []float64
	AddType2, LookupType2, DeleteType2 []float64
}

// Fig5aFlowTable reproduces Fig. 5a. maxFlows caps the sweep (the paper
// goes to 10⁶; tests use smaller caps).
func Fig5aFlowTable(maxFlows int) *Fig5aResult {
	res := &Fig5aResult{}
	for n := 1; n <= maxFlows; n *= 10 {
		res.Sizes = append(res.Sizes, n)
	}
	now := time.Now()
	for _, set := range []flowtable.TypeSet{flowtable.Type1, flowtable.Type2} {
		for _, n := range res.Sizes {
			keys := flowtable.GenerateKeys(set, n)
			uniqueIPs := make([]flowtable.IPv4, 0, n)
			seen := make(map[flowtable.IPv4]bool, n)
			for _, k := range keys {
				if !seen[k.Src] {
					seen[k.Src] = true
					uniqueIPs = append(uniqueIPs, k.Src)
				}
			}
			tbl := flowtable.New(n)
			t0 := time.Now()
			for _, k := range keys {
				tbl.Add(k, now)
			}
			add := time.Since(t0).Seconds()
			// Retrieval is per source IP (the dom0 fetches a VM's flow
			// subset once per decision), so the sweep queries each
			// distinct IP once.
			t0 = time.Now()
			for _, ip := range uniqueIPs {
				_ = tbl.LookupByIP(ip)
			}
			lookup := time.Since(t0).Seconds()
			t0 = time.Now()
			for _, k := range keys {
				tbl.Delete(k)
			}
			del := time.Since(t0).Seconds()
			if set == flowtable.Type1 {
				res.AddType1 = append(res.AddType1, add)
				res.LookupType1 = append(res.LookupType1, lookup)
				res.DeleteType1 = append(res.DeleteType1, del)
			} else {
				res.AddType2 = append(res.AddType2, add)
				res.LookupType2 = append(res.LookupType2, lookup)
				res.DeleteType2 = append(res.DeleteType2, del)
			}
		}
	}
	return res
}

// Render renders the sweep.
func (r *Fig5aResult) Render(w io.Writer) {
	fmt.Fprintln(w, "Fig 5a: flow table operations (seconds for all flows)")
	fmt.Fprintln(w, "   flows    add-t1   lookup-t1  delete-t1     add-t2   lookup-t2  delete-t2")
	for i, n := range r.Sizes {
		fmt.Fprintf(w, "%8d  %9.4f  %9.4f  %9.4f  %9.4f  %9.4f  %9.4f\n",
			n, r.AddType1[i], r.LookupType1[i], r.DeleteType1[i],
			r.AddType2[i], r.LookupType2[i], r.DeleteType2[i])
	}
}

// Fig5bResult is the migrated-bytes-per-migration distribution.
type Fig5bResult struct {
	Samples []float64
	Summary stats.Summary
	Hist    *stats.Histogram
}

// Fig5bMigratedBytes models n migrations under light background load and
// collects the migrated-bytes distribution (paper: mean 127 MB, σ 11 MB,
// all below 150 MB).
func Fig5bMigratedBytes(n int, seed int64) *Fig5bResult {
	rng := rand.New(rand.NewSource(seed))
	res := &Fig5bResult{Samples: make([]float64, 0, n)}
	for i := 0; i < n; i++ {
		bg := rng.Float64() * 0.3 // testbed idle-to-light load
		res.Samples = append(res.Samples, migration.Sample(rng, bg).MigratedMB)
	}
	res.Summary = stats.Summarize(res.Samples)
	res.Hist = stats.NewHistogram(res.Samples, 100, 160, 12)
	return res
}

// Render renders the histogram.
func (r *Fig5bResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Fig 5b: migrated bytes per migration (%s)\n", r.Summary)
	for i := range r.Hist.Counts {
		fmt.Fprintf(w, "  %6.1f MB  %5.3f %s\n", r.Hist.BinCenter(i), r.Hist.Probability(i),
			bar(r.Hist.Probability(i), 40))
	}
}

func bar(p float64, width int) string {
	n := int(p * float64(width) * 4)
	if n > width {
		n = width
	}
	out := make([]byte, n)
	for i := range out {
		out[i] = '#'
	}
	return string(out)
}

// Fig5cdResult sweeps background network load and reports migration time
// (Fig. 5c) and downtime (Fig. 5d).
type Fig5cdResult struct {
	Loads []float64
	// Per-load mean and std of total migration time (s).
	TimeMean, TimeStd []float64
	// Per-load mean and std of downtime (ms).
	DownMean, DownStd []float64
}

// Fig5cdMigrationSweep models reps migrations at each background load in
// 0, 0.1, …, 1.0 of a 1 Gb/s link (the paper's CBR sweep).
func Fig5cdMigrationSweep(reps int, seed int64) *Fig5cdResult {
	rng := rand.New(rand.NewSource(seed))
	res := &Fig5cdResult{}
	for load := 0.0; load <= 1.0001; load += 0.1 {
		times := make([]float64, 0, reps)
		downs := make([]float64, 0, reps)
		for i := 0; i < reps; i++ {
			out := migration.Sample(rng, load)
			times = append(times, out.TotalS)
			downs = append(downs, out.DowntimeMS)
		}
		ts, ds := stats.Summarize(times), stats.Summarize(downs)
		res.Loads = append(res.Loads, load)
		res.TimeMean = append(res.TimeMean, ts.Mean)
		res.TimeStd = append(res.TimeStd, ts.Std)
		res.DownMean = append(res.DownMean, ds.Mean)
		res.DownStd = append(res.DownStd, ds.Std)
	}
	return res
}

// Render renders both sweeps.
func (r *Fig5cdResult) Render(w io.Writer) {
	fmt.Fprintln(w, "Fig 5c/5d: migration time and downtime vs background load")
	fmt.Fprintln(w, "  load   time-mean(s)  time-std   down-mean(ms)  down-std")
	for i, l := range r.Loads {
		fmt.Fprintf(w, "  %4.1f   %12.3f  %8.3f   %13.2f  %8.2f\n",
			l, r.TimeMean[i], r.TimeStd[i], r.DownMean[i], r.DownStd[i])
	}
}
