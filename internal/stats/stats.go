// Package stats provides the measurement machinery of the simulator:
// streaming mean/variance accumulators (Welford), latency histograms with
// percentile queries, bucketed time series for transient experiments and
// simple rate counters. Everything is allocation-light so it can be
// updated on the per-packet fast path.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Welford is a streaming mean/variance accumulator using Welford's
// numerically stable online algorithm. The zero value is ready to use.
type Welford struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds x into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// Mean returns the sample mean, or 0 with no samples.
func (w *Welford) Mean() float64 { return w.mean }

// Var returns the unbiased sample variance, or 0 with fewer than 2 samples.
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Std returns the sample standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Var()) }

// Min returns the smallest sample, or 0 with no samples.
func (w *Welford) Min() float64 { return w.min }

// Max returns the largest sample, or 0 with no samples.
func (w *Welford) Max() float64 { return w.max }

func (w *Welford) String() string {
	return fmt.Sprintf("n=%d mean=%.2f std=%.2f min=%.0f max=%.0f",
		w.n, w.Mean(), w.Std(), w.Min(), w.Max())
}

// Histogram counts integer-valued samples (latencies in cycles) in unit
// bins up to a cap, with an overflow bin, supporting exact percentiles
// below the cap. The zero value is not ready; use NewHistogram.
type Histogram struct {
	bins     []int64 // one per value below the cap, len(bins); overflow sits at the cap
	overflow int64
	total    int64
	sum      float64
}

// NewHistogram returns a histogram with unit bins for values in [0, max).
func NewHistogram(max int) *Histogram {
	if max < 1 {
		max = 1
	}
	return &Histogram{bins: make([]int64, max)}
}

// Add records one sample. Negative samples clamp to bin 0; samples >= cap
// land in the overflow bin (still counted in mean).
func (h *Histogram) Add(v int64) {
	h.total++
	h.sum += float64(v)
	if v < 0 {
		v = 0
	}
	if int(v) >= len(h.bins) {
		h.overflow++
		return
	}
	h.bins[v]++
}

// Mean returns the sample mean, or 0 with no samples.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// OverflowFrac returns the fraction of samples at or above the bin cap,
// or 0 with no samples. A nonzero value means percentiles above
// 1-OverflowFrac are saturated at the cap and should not be trusted.
func (h *Histogram) OverflowFrac() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.overflow) / float64(h.total)
}

// Percentile returns the smallest value v such that at least q (0..1) of
// the samples are <= v. Samples in the overflow bin are treated as at the
// cap, so a query landing there returns exactly the cap. With no samples it
// returns 0.
func (h *Histogram) Percentile(q float64) int64 {
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(math.Ceil(q * float64(h.total)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for v, c := range h.bins {
		cum += c
		if cum >= target {
			return int64(v)
		}
	}
	return int64(len(h.bins))
}

// Merge folds histogram o into h. Both must share the same bin cap.
func (h *Histogram) Merge(o *Histogram) {
	if len(h.bins) != len(o.bins) {
		panic("stats: merging histograms of different size")
	}
	for i, c := range o.bins {
		h.bins[i] += c
	}
	h.overflow += o.overflow
	h.total += o.total
	h.sum += o.sum
}

// TimeSeries accumulates per-bucket means over simulation time, used for
// transient experiments (latency vs cycle, misrouted-fraction vs cycle).
// Buckets are fixed-width in cycles, offset so that negative times (before
// the traffic switch) are representable.
type TimeSeries struct {
	Start int64 // first cycle covered (may be negative relative time)
	Width int64 // bucket width in cycles
	sum   []float64
	count []int64
}

// NewTimeSeries covers [start, start+n*width) with n buckets of the given
// width in cycles.
func NewTimeSeries(start, width int64, n int) *TimeSeries {
	if width < 1 {
		width = 1
	}
	if n < 1 {
		n = 1
	}
	return &TimeSeries{
		Start: start,
		Width: width,
		sum:   make([]float64, n),
		count: make([]int64, n),
	}
}

// Add records sample v at cycle t. Samples outside the covered range are
// dropped.
func (ts *TimeSeries) Add(t int64, v float64) {
	i := (t - ts.Start) / ts.Width
	if t < ts.Start || int(i) >= len(ts.sum) {
		return
	}
	ts.sum[i] += v
	ts.count[i]++
}

// Buckets returns the number of buckets.
func (ts *TimeSeries) Buckets() int { return len(ts.sum) }

// BucketTime returns the starting cycle of bucket i.
func (ts *TimeSeries) BucketTime(i int) int64 { return ts.Start + int64(i)*ts.Width }

// Mean returns the mean of bucket i, or NaN if the bucket is empty
// (plotting code can skip gaps).
func (ts *TimeSeries) Mean(i int) float64 {
	if ts.count[i] == 0 {
		return math.NaN()
	}
	return ts.sum[i] / float64(ts.count[i])
}

// CountAt returns the number of samples in bucket i.
func (ts *TimeSeries) CountAt(i int) int64 { return ts.count[i] }

// Merge folds series o into ts; both must have identical geometry.
func (ts *TimeSeries) Merge(o *TimeSeries) {
	if ts.Start != o.Start || ts.Width != o.Width || len(ts.sum) != len(o.sum) {
		panic("stats: merging time series of different geometry")
	}
	for i := range ts.sum {
		ts.sum[i] += o.sum[i]
		ts.count[i] += o.count[i]
	}
}

// Quantile returns the q-quantile (0..1) of a sample slice, interpolating
// between order statistics. It sorts a copy; intended for small result
// sets (per-seed summary values), not the packet fast path.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	if q <= 0 {
		return ys[0]
	}
	if q >= 1 {
		return ys[len(ys)-1]
	}
	pos := q * float64(len(ys)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return ys[lo]
	}
	frac := pos - float64(lo)
	return ys[lo]*(1-frac) + ys[hi]*frac
}

// Mean returns the arithmetic mean of xs, or NaN when empty.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
