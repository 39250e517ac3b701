// Package stats provides the statistical aggregates the evaluation
// reports: summary statistics, empirical CDFs (Fig. 4a), histograms
// (Fig. 5b), and time series (Fig. 3d–i, Fig. 4b).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds the moments of a sample set.
type Summary struct {
	N         int
	Mean, Std float64
	Min, Max  float64
}

// Summarize computes a Summary; an empty input yields the zero value.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	if len(xs) > 1 {
		s.Std = math.Sqrt(ss / float64(len(xs)-1))
	}
	return s
}

// String renders "n=… mean=… std=… min=… max=…".
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g std=%.4g min=%.4g max=%.4g", s.N, s.Mean, s.Std, s.Min, s.Max)
}

// CDF is an empirical cumulative distribution over a sample set.
type CDF struct {
	sorted []float64
}

// NewCDF copies and sorts the samples.
func NewCDF(xs []float64) *CDF {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// At returns P(X ≤ x).
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(c.sorted))
}

// Quantile returns the q-th quantile, q in [0, 1].
func (c *CDF) Quantile(q float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return c.sorted[0]
	}
	if q >= 1 {
		return c.sorted[len(c.sorted)-1]
	}
	pos := q * float64(len(c.sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(c.sorted) {
		return c.sorted[lo]
	}
	return c.sorted[lo]*(1-frac) + c.sorted[lo+1]*frac
}

// Points samples the CDF at n evenly spaced x positions across the data
// range, returning (x, P(X≤x)) pairs ready for plotting or CSV export.
func (c *CDF) Points(n int) (xs, ps []float64) {
	if len(c.sorted) == 0 || n < 2 {
		return nil, nil
	}
	lo, hi := c.sorted[0], c.sorted[len(c.sorted)-1]
	xs = make([]float64, n)
	ps = make([]float64, n)
	for i := 0; i < n; i++ {
		x := lo + (hi-lo)*float64(i)/float64(n-1)
		if i == n-1 {
			x = hi // avoid float drift missing the last sample
		}
		xs[i] = x
		ps[i] = c.At(x)
	}
	return xs, ps
}

// Histogram is a fixed-width binning of samples.
type Histogram struct {
	Lo, Hi float64
	Counts []int
	Total  int
}

// NewHistogram bins xs into n equal-width bins over [lo, hi]; samples
// outside the range are clamped into the edge bins.
func NewHistogram(xs []float64, lo, hi float64, n int) *Histogram {
	if n < 1 {
		n = 1
	}
	if hi <= lo {
		hi = lo + 1
	}
	h := &Histogram{Lo: lo, Hi: hi, Counts: make([]int, n)}
	w := (hi - lo) / float64(n)
	for _, x := range xs {
		i := int((x - lo) / w)
		if i < 0 {
			i = 0
		}
		if i >= n {
			i = n - 1
		}
		h.Counts[i]++
		h.Total++
	}
	return h
}

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + w*(float64(i)+0.5)
}

// Probability returns the fraction of samples in bin i.
func (h *Histogram) Probability(i int) float64 {
	if h.Total == 0 {
		return 0
	}
	return float64(h.Counts[i]) / float64(h.Total)
}

// TimeSeries is an append-only (time, value) sequence.
type TimeSeries struct {
	T []float64
	V []float64
}

// Append adds a point.
func (ts *TimeSeries) Append(t, v float64) {
	ts.T = append(ts.T, t)
	ts.V = append(ts.V, v)
}

// Len returns the number of points.
func (ts *TimeSeries) Len() int { return len(ts.T) }

// Last returns the most recent value, or 0 when empty.
func (ts *TimeSeries) Last() float64 {
	if len(ts.V) == 0 {
		return 0
	}
	return ts.V[len(ts.V)-1]
}

// Min returns the smallest value, or 0 when empty.
func (ts *TimeSeries) Min() float64 {
	if len(ts.V) == 0 {
		return 0
	}
	m := ts.V[0]
	for _, v := range ts.V[1:] {
		if v < m {
			m = v
		}
	}
	return m
}
