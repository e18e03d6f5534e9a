package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestWelfordBasics(t *testing.T) {
	var w Welford
	if w.n != 0 || w.Mean() != 0 || w.Var() != 0 {
		t.Fatal("zero value not neutral")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.n != 8 {
		t.Fatalf("count %d", w.n)
	}
	if !almost(w.Mean(), 5, 1e-12) {
		t.Fatalf("mean %f", w.Mean())
	}
	// Unbiased variance of that classic sample is 32/7.
	if !almost(w.Var(), 32.0/7.0, 1e-12) {
		t.Fatalf("var %f", w.Var())
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Fatalf("min/max %f/%f", w.Min(), w.Max())
	}
}

func TestWelfordSingleSampleVar(t *testing.T) {
	var w Welford
	w.Add(3)
	if w.Var() != 0 || w.Std() != 0 {
		t.Fatal("variance of single sample not 0")
	}
}

func TestQuickWelfordMeanBounded(t *testing.T) {
	f := func(xs []float64) bool {
		var w Welford
		lo, hi := math.Inf(1), math.Inf(-1)
		n := 0
		for _, x := range xs {
			// Restrict to the magnitudes the simulator produces
			// (cycle counts); near-MaxFloat64 inputs overflow the
			// m2 accumulator, which is out of scope.
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e12 {
				continue
			}
			w.Add(x)
			n++
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
		if n == 0 {
			return true
		}
		return w.Mean() >= lo-1e-9 && w.Mean() <= hi+1e-9 && w.Var() >= -1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramMeanAndPercentile(t *testing.T) {
	h := NewHistogram(100)
	for v := int64(1); v <= 10; v++ {
		h.Add(v)
	}
	if h.total != 10 {
		t.Fatalf("count %d", h.total)
	}
	if !almost(h.Mean(), 5.5, 1e-12) {
		t.Fatalf("mean %f", h.Mean())
	}
	if p := h.Percentile(0.5); p != 5 {
		t.Fatalf("p50 = %d, want 5", p)
	}
	if p := h.Percentile(1.0); p != 10 {
		t.Fatalf("p100 = %d, want 10", p)
	}
	if p := h.Percentile(0.0); p != 1 {
		t.Fatalf("p0 = %d, want 1", p)
	}
}

func TestHistogramOverflowAndClamp(t *testing.T) {
	h := NewHistogram(10)
	h.Add(50)
	h.Add(-3)
	if h.overflow != 1 {
		t.Fatalf("overflow %d", h.overflow)
	}
	if h.total != 2 {
		t.Fatalf("count %d", h.total)
	}
	// Mean still uses true values.
	if !almost(h.Mean(), 23.5, 1e-12) {
		t.Fatalf("mean %f", h.Mean())
	}
	// Percentile treats overflow as cap.
	if p := h.Percentile(1.0); p != 10 {
		t.Fatalf("p100 = %d, want cap 10", p)
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(20), NewHistogram(20)
	a.Add(1)
	a.Add(2)
	b.Add(3)
	b.Add(100)
	a.Merge(b)
	if a.total != 4 || a.overflow != 1 {
		t.Fatalf("merged count/overflow %d/%d", a.total, a.overflow)
	}
}

func TestHistogramMergeSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on size mismatch")
		}
	}()
	NewHistogram(5).Merge(NewHistogram(6))
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(5)
	if h.Mean() != 0 || h.Percentile(0.5) != 0 {
		t.Fatal("empty histogram not neutral")
	}
}

func TestTimeSeriesBucketing(t *testing.T) {
	ts := NewTimeSeries(-50, 10, 10) // covers [-50, 50)
	ts.Add(-50, 1)
	ts.Add(-41, 3) // same bucket as -50
	ts.Add(0, 10)
	ts.Add(49, 7)
	ts.Add(50, 99)   // out of range, dropped
	ts.Add(-51, 99)  // out of range, dropped
	ts.Add(-1000, 9) // far out of range
	if got := ts.Mean(0); !almost(got, 2, 1e-12) {
		t.Fatalf("bucket 0 mean %f", got)
	}
	if got := ts.Mean(5); !almost(got, 10, 1e-12) {
		t.Fatalf("bucket 5 mean %f", got)
	}
	if got := ts.Mean(9); !almost(got, 7, 1e-12) {
		t.Fatalf("bucket 9 mean %f", got)
	}
	if !math.IsNaN(ts.Mean(1)) {
		t.Fatal("empty bucket did not return NaN")
	}
	if ts.BucketTime(0) != -50 || ts.BucketTime(9) != 40 {
		t.Fatal("bucket times wrong")
	}
}

func TestTimeSeriesMerge(t *testing.T) {
	a := NewTimeSeries(0, 10, 3)
	b := NewTimeSeries(0, 10, 3)
	a.Add(5, 2)
	b.Add(5, 4)
	a.Merge(b)
	if got := a.Mean(0); !almost(got, 3, 1e-12) {
		t.Fatalf("merged mean %f", got)
	}
	if a.CountAt(0) != 2 {
		t.Fatalf("merged count %d", a.CountAt(0))
	}
}

func TestTimeSeriesMergeGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on geometry mismatch")
		}
	}()
	NewTimeSeries(0, 10, 3).Merge(NewTimeSeries(0, 20, 3))
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if q := Quantile(xs, 0); q != 1 {
		t.Fatalf("q0 %f", q)
	}
	if q := Quantile(xs, 1); q != 4 {
		t.Fatalf("q1 %f", q)
	}
	if q := Quantile(xs, 0.5); !almost(q, 2.5, 1e-12) {
		t.Fatalf("q50 %f", q)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Fatal("empty quantile not NaN")
	}
	// Input must not be mutated.
	if xs[0] != 4 {
		t.Fatal("Quantile sorted its input in place")
	}
}

func TestMeanHelper(t *testing.T) {
	if !almost(Mean([]float64{1, 2, 3}), 2, 1e-12) {
		t.Fatal("mean helper wrong")
	}
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("empty mean not NaN")
	}
}

func BenchmarkWelfordAdd(b *testing.B) {
	var w Welford
	for i := 0; i < b.N; i++ {
		w.Add(float64(i % 1000))
	}
}

func BenchmarkHistogramAdd(b *testing.B) {
	h := NewHistogram(2048)
	for i := 0; i < b.N; i++ {
		h.Add(int64(i % 3000))
	}
}

func TestHistogramCapAndOverflowFrac(t *testing.T) {
	h := NewHistogram(100)
	if len(h.bins) != 100 {
		t.Fatalf("cap %d", len(h.bins))
	}
	if h.OverflowFrac() != 0 {
		t.Fatal("empty histogram has nonzero overflow fraction")
	}
	for i := 0; i < 75; i++ {
		h.Add(int64(i % 50))
	}
	for i := 0; i < 25; i++ {
		h.Add(1000) // beyond the cap
	}
	if got := h.OverflowFrac(); got != 0.25 {
		t.Fatalf("OverflowFrac = %v, want 0.25", got)
	}
	// A percentile landing in the overflow bin saturates at exactly the cap.
	if p := h.Percentile(0.99); p != 100 {
		t.Fatalf("saturated percentile %d, want cap 100", p)
	}
	// A percentile below the overflow mass is exact.
	if p := h.Percentile(0.5); p >= 50 {
		t.Fatalf("P50 = %d, want < 50", p)
	}
}

func TestHistogramMergePreservesOverflow(t *testing.T) {
	a, b := NewHistogram(10), NewHistogram(10)
	a.Add(3)
	b.Add(99)
	a.Merge(b)
	if a.total != 2 || a.overflow != 1 {
		t.Fatalf("merged count %d overflow %d", a.total, a.overflow)
	}
	if a.OverflowFrac() != 0.5 {
		t.Fatalf("merged OverflowFrac %v", a.OverflowFrac())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("merging different caps did not panic")
		}
	}()
	a.Merge(NewHistogram(20))
}
