package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42, 7)
	b := New(42, 7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed/stream diverged at draw %d", i)
		}
	}
}

func TestStreamsDiffer(t *testing.T) {
	a := New(42, 1)
	b := New(42, 2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams 1 and 2 collided %d/1000 times", same)
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1, 9)
	b := New(2, 9)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 collided %d/1000 times", same)
	}
}

func TestIntnRange(t *testing.T) {
	p := New(3, 3)
	for _, n := range []int{1, 2, 3, 7, 16, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := p.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1, 1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	// Chi-square sanity over 10 buckets; loose bound, not a strict test.
	p := New(99, 5)
	const buckets, draws = 10, 100000
	var counts [buckets]int
	for i := 0; i < draws; i++ {
		counts[p.Intn(buckets)]++
	}
	expect := float64(draws) / buckets
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expect
		chi2 += d * d / expect
	}
	// 9 dof; p=0.001 critical value is 27.88. Allow generous headroom.
	if chi2 > 35 {
		t.Fatalf("chi2 = %.2f too large; counts %v", chi2, counts)
	}
}

func TestFloat64Range(t *testing.T) {
	p := New(5, 5)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		f := p.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
		sum += f
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %.4f far from 0.5", mean)
	}
}

func TestBernoulliEdges(t *testing.T) {
	p := New(8, 8)
	for i := 0; i < 100; i++ {
		if p.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !p.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
		if p.Bernoulli(-0.5) {
			t.Fatal("Bernoulli(-0.5) returned true")
		}
		if !p.Bernoulli(1.5) {
			t.Fatal("Bernoulli(1.5) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	p := New(11, 4)
	const n = 200000
	hits := 0
	for i := 0; i < n; i++ {
		if p.Bernoulli(0.3) {
			hits++
		}
	}
	rate := float64(hits) / n
	if math.Abs(rate-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) rate %.4f", rate)
	}
}

func TestQuickIntnAlwaysInRange(t *testing.T) {
	f := func(seed uint64, stream uint64, n uint16) bool {
		if n == 0 {
			return true
		}
		p := New(seed, stream)
		v := p.Intn(int(n))
		return v >= 0 && v < int(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDeterministicBySeed(t *testing.T) {
	f := func(seed, stream uint64) bool {
		a, b := New(seed, stream), New(seed, stream)
		for i := 0; i < 16; i++ {
			if a.Uint64() != b.Uint64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGeometricMean(t *testing.T) {
	// E[failures before first success] = (1-p)/p.
	p := New(11, 3)
	for _, prob := range []float64{0.5, 0.1, 0.01} {
		const n = 200000
		var sum float64
		for i := 0; i < n; i++ {
			sum += float64(p.Geometric(prob))
		}
		got := sum / n
		want := (1 - prob) / prob
		if got < want*0.95 || got > want*1.05 {
			t.Errorf("Geometric(%v) mean %.2f, want %.2f ±5%%", prob, got, want)
		}
	}
}

func TestGeometricEdgeCases(t *testing.T) {
	p := New(1, 1)
	if got := p.Geometric(1); got != 0 {
		t.Errorf("Geometric(1) = %d, want 0", got)
	}
	if got := p.Geometric(1.5); got != 0 {
		t.Errorf("Geometric(1.5) = %d, want 0", got)
	}
	if got := p.Geometric(0); got != math.MaxInt32 {
		t.Errorf("Geometric(0) = %d, want MaxInt32", got)
	}
	if got := p.Geometric(-0.1); got != math.MaxInt32 {
		t.Errorf("Geometric(-0.1) = %d, want MaxInt32", got)
	}
	for i := 0; i < 1000; i++ {
		if got := p.Geometric(0.9999); got < 0 {
			t.Fatalf("negative skip %d", got)
		}
	}
}

// TestGeometricMatchesBernoulli checks skip-sampling selects positions at
// the same rate as independent per-trial draws: over a long trial
// sequence the hit fraction must match prob.
func TestGeometricMatchesBernoulli(t *testing.T) {
	p := New(5, 7)
	const trials = 1 << 20
	const prob = 0.03
	hits := 0
	for pos := p.Geometric(prob); pos < trials; pos += 1 + p.Geometric(prob) {
		hits++
	}
	got := float64(hits) / trials
	if got < prob*0.95 || got > prob*1.05 {
		t.Errorf("hit rate %.5f, want %.5f ±5%%", got, prob)
	}
}

// TestGeomDrawsMatchGeometric: a prepared Geom is Geometric with the
// logarithm hoisted — over a grid of probabilities, the degenerate and
// the extreme ones included, it returns the same values and leaves the
// generator in the same state after every draw; prob <= 0 and prob >= 1
// consume no draw in either form. The table is the first six draws of
// stream (42, 7), and the generator's next output after them, as
// Geometric produced them before Geom existed: the streams the goldens
// depend on did not move.
func TestGeomDrawsMatchGeometric(t *testing.T) {
	const untouched, sixDraws = 0x7499da3f3c421650, 0x9cc231baa0291d1b
	pinned := []struct {
		prob  float64
		draws [6]int
		next  uint64
	}{
		{0, [6]int{math.MaxInt32, math.MaxInt32, math.MaxInt32, math.MaxInt32, math.MaxInt32, math.MaxInt32}, untouched},
		{-0.5, [6]int{math.MaxInt32, math.MaxInt32, math.MaxInt32, math.MaxInt32, math.MaxInt32, math.MaxInt32}, untouched},
		{1, [6]int{}, untouched},
		{2, [6]int{}, untouched},
		{1e-9, [6]int{607837022, 1034938810, 231903450, 2065788025, 1120621580, 660897357}, sixDraws},
		{1 - 1e-9, [6]int{}, sixDraws},
		{0.001, [6]int{607, 1034, 231, 2064, 1120, 660}, sixDraws},
		{0.03, [6]int{19, 33, 7, 67, 36, 21}, sixDraws},
		{0.5, [6]int{0, 1, 0, 2, 1, 0}, sixDraws},
		{0.999, [6]int{}, sixDraws},
	}
	for _, tc := range pinned {
		g := NewGeom(tc.prob)
		if never := g.Never(); never != (tc.prob <= 0) {
			t.Errorf("NewGeom(%v).Never() = %v", tc.prob, never)
		}
		a, b := New(42, 7), New(42, 7)
		for i, want := range tc.draws {
			got, oneShot := g.Draw(a), b.Geometric(tc.prob)
			if got != want || oneShot != want {
				t.Errorf("prob %v draw %d: Geom %d, Geometric %d, pinned %d", tc.prob, i, got, oneShot, want)
			}
			if *a != *b {
				t.Fatalf("prob %v draw %d: generator states diverged", tc.prob, i)
			}
		}
		if next := a.Uint64(); next != tc.next {
			t.Errorf("prob %v: generator continues with %#x after six draws, pinned %#x", tc.prob, next, tc.next)
		}
	}
	// A denser grid, form against form.
	for prob := 1e-7; prob < 1; prob *= 1.7 {
		g := NewGeom(prob)
		a, b := New(9, 1), New(9, 1)
		for i := 0; i < 200; i++ {
			if got, want := g.Draw(a), b.Geometric(prob); got != want || *a != *b {
				t.Fatalf("prob %v draw %d: Geom %d vs Geometric %d", prob, i, got, want)
			}
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	p := New(1, 1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += p.Uint64()
	}
	_ = sink
}

func BenchmarkIntn(b *testing.B) {
	p := New(1, 1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink += p.Intn(31)
	}
	_ = sink
}
