package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestRNGDifferentSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 5 {
		t.Fatalf("different seeds produced %d/100 identical draws", same)
	}
}

// TestSourceMatchesMathRand pins NewRNG to rand.NewSource: every draw kind
// must be bit-identical for the same seed, or all published experiment
// outputs would silently shift.
func TestSourceMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, 42, 89482311, 1 << 40, -(1 << 40), 1<<31 - 1, 1 << 31}
	for _, seed := range seeds {
		want := rand.New(rand.NewSource(seed))
		got := NewRNG(seed)
		for i := 0; i < 2000; i++ {
			switch i % 6 {
			case 0:
				if w, g := want.Int63(), got.Int63(); w != g {
					t.Fatalf("seed %d draw %d: Int63 %d != %d", seed, i, g, w)
				}
			case 1:
				if w, g := want.Float64(), got.Float64(); w != g {
					t.Fatalf("seed %d draw %d: Float64 %v != %v", seed, i, g, w)
				}
			case 2:
				if w, g := want.Intn(9973), got.Intn(9973); w != g {
					t.Fatalf("seed %d draw %d: Intn %d != %d", seed, i, g, w)
				}
			case 3:
				if w, g := want.NormFloat64(), got.NormFloat64(); w != g {
					t.Fatalf("seed %d draw %d: NormFloat64 %v != %v", seed, i, g, w)
				}
			case 4:
				if w, g := want.ExpFloat64(), got.ExpFloat64(1); w != g {
					t.Fatalf("seed %d draw %d: ExpFloat64 %v != %v", seed, i, g, w)
				}
			case 5:
				w := want.Perm(17)
				g := got.Perm(17)
				for k := range w {
					if w[k] != g[k] {
						t.Fatalf("seed %d draw %d: Perm mismatch at %d", seed, i, k)
					}
				}
			}
		}
	}
}

func TestDeriveIndependence(t *testing.T) {
	parent := NewRNG(7)
	c1 := parent.Derive(1)
	c2 := parent.Derive(2)
	if c1.Float64() == c2.Float64() {
		t.Fatal("derived streams with different tags should differ")
	}
}

func TestUniformBounds(t *testing.T) {
	g := NewRNG(3)
	for i := 0; i < 1000; i++ {
		v := g.Uniform(10, 20)
		if v < 10 || v >= 20 {
			t.Fatalf("Uniform out of bounds: %g", v)
		}
	}
}

func TestUniformSwappedBounds(t *testing.T) {
	g := NewRNG(3)
	v := g.Uniform(20, 10)
	if v < 10 || v >= 20 {
		t.Fatalf("Uniform with swapped bounds out of range: %g", v)
	}
}

func TestUniformInt64Bounds(t *testing.T) {
	g := NewRNG(4)
	seen := map[int64]bool{}
	for i := 0; i < 1000; i++ {
		v := g.UniformInt64(5, 8)
		if v < 5 || v > 8 {
			t.Fatalf("UniformInt64 out of bounds: %d", v)
		}
		seen[v] = true
	}
	for want := int64(5); want <= 8; want++ {
		if !seen[want] {
			t.Errorf("value %d never drawn in 1000 samples", want)
		}
	}
}

func TestUniformInt64Panics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for hi < lo")
		}
	}()
	NewRNG(1).UniformInt64(10, 5)
}

func TestExpFloat64Mean(t *testing.T) {
	g := NewRNG(5)
	var sum float64
	n := 20000
	for i := 0; i < n; i++ {
		sum += g.ExpFloat64(100)
	}
	mean := sum / float64(n)
	if mean < 95 || mean > 105 {
		t.Fatalf("exponential mean %g too far from 100", mean)
	}
}

func TestBoolProbability(t *testing.T) {
	g := NewRNG(6)
	hits := 0
	n := 20000
	for i := 0; i < n; i++ {
		if g.Bool(0.3) {
			hits++
		}
	}
	p := float64(hits) / float64(n)
	if p < 0.27 || p > 0.33 {
		t.Fatalf("Bool(0.3) hit rate %g", p)
	}
	if g.Bool(0) {
		t.Error("Bool(0) must be false")
	}
	if !g.Bool(1) {
		t.Error("Bool(1) must be true")
	}
}

func TestLognormalMedian(t *testing.T) {
	d := LognormalFromMedian(7200, 1.0)
	g := NewRNG(8)
	xs := make([]float64, 20001)
	for i := range xs {
		xs[i] = d.Sample(g)
	}
	s := Summarize(xs)
	if s.Median < 6500 || s.Median > 7900 {
		t.Fatalf("lognormal median %g too far from 7200", s.Median)
	}
}

func TestLognormalClamped(t *testing.T) {
	d := LognormalFromMedian(100, 2.0)
	g := NewRNG(9)
	for i := 0; i < 5000; i++ {
		v := d.SampleClamped(g, 10, 1000)
		if v < 10 || v > 1000 {
			t.Fatalf("clamped sample out of range: %g", v)
		}
	}
}

func TestLognormalPanicsOnNonPositiveMedian(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	LognormalFromMedian(0, 1)
}

func TestZipfSkew(t *testing.T) {
	z := NewZipf(100, 1.2)
	g := NewRNG(10)
	counts := make([]int, 100)
	n := 50000
	for i := 0; i < n; i++ {
		counts[z.Sample(g)]++
	}
	if counts[0] <= counts[50] {
		t.Fatalf("rank 0 (%d) should dominate rank 50 (%d)", counts[0], counts[50])
	}
	// Rank 0 weight for s=1.2 over 100 ranks is roughly 0.18.
	if w := z.Weight(0); w < 0.1 || w > 0.3 {
		t.Fatalf("unexpected rank-0 weight %g", w)
	}
}

func TestZipfWeightsSumToOne(t *testing.T) {
	z := NewZipf(37, 0.9)
	sum := 0.0
	for k := 0; k < z.N(); k++ {
		sum += z.Weight(k)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("weights sum to %g", sum)
	}
}

func TestZipfSampleInRange(t *testing.T) {
	f := func(seed int64) bool {
		z := NewZipf(13, 1.1)
		g := NewRNG(seed)
		for i := 0; i < 50; i++ {
			k := z.Sample(g)
			if k < 0 || k >= 13 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDiscreteProportions(t *testing.T) {
	d := NewDiscrete([]float64{1, 2, 7})
	g := NewRNG(11)
	counts := make([]int, 3)
	n := 30000
	for i := 0; i < n; i++ {
		counts[d.Sample(g)]++
	}
	p2 := float64(counts[2]) / float64(n)
	if p2 < 0.66 || p2 > 0.74 {
		t.Fatalf("category 2 rate %g, want ~0.7", p2)
	}
}

func TestDiscretePanics(t *testing.T) {
	cases := [][]float64{nil, {0, 0}, {1, -1}}
	for _, ws := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for weights %v", ws)
				}
			}()
			NewDiscrete(ws)
		}()
	}
}

func TestSummarizeKnown(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Median != 3 || s.Min != 1 || s.Max != 5 || s.Sum != 15 {
		t.Fatalf("unexpected summary %+v", s)
	}
	if math.Abs(s.Std-math.Sqrt(2.5)) > 1e-12 {
		t.Fatalf("std %g", s.Std)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 {
		t.Fatalf("empty summary not zero: %+v", s)
	}
}

func TestPercentileInterpolation(t *testing.T) {
	sorted := []float64{0, 10}
	if got := Percentile(sorted, 50); got != 5 {
		t.Fatalf("P50 = %g, want 5", got)
	}
	if got := Percentile(sorted, 0); got != 0 {
		t.Fatalf("P0 = %g, want 0", got)
	}
	if got := Percentile(sorted, 100); got != 10 {
		t.Fatalf("P100 = %g, want 10", got)
	}
}

// Property: percentiles are monotone in p and bounded by min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := NewRNG(seed)
		n := 1 + g.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = g.Uniform(-100, 100)
		}
		s := Summarize(xs)
		prev := s.Min
		for p := 0.0; p <= 100; p += 5 {
			sorted := make([]float64, n)
			copy(sorted, xs)
			sortFloats(sorted)
			v := Percentile(sorted, p)
			if v < prev-1e-9 || v < s.Min-1e-9 || v > s.Max+1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func sortFloats(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

func TestWelfordMatchesSummarize(t *testing.T) {
	g := NewRNG(12)
	xs := make([]float64, 500)
	var w Welford
	for i := range xs {
		xs[i] = g.Uniform(0, 1000)
		w.Add(xs[i])
	}
	s := Summarize(xs)
	if math.Abs(w.Mean()-s.Mean) > 1e-9 {
		t.Fatalf("Welford mean %g vs %g", w.Mean(), s.Mean)
	}
	if math.Abs(w.Std()-s.Std) > 1e-9 {
		t.Fatalf("Welford std %g vs %g", w.Std(), s.Std)
	}
	if w.N() != s.N {
		t.Fatalf("Welford n %d vs %d", w.N(), s.N)
	}
}

func TestWelfordSmall(t *testing.T) {
	var w Welford
	if w.Var() != 0 || w.Std() != 0 || w.Mean() != 0 {
		t.Fatal("empty Welford should be zero")
	}
	w.Add(5)
	if w.Var() != 0 {
		t.Fatal("single-sample variance should be zero")
	}
	if w.Mean() != 5 {
		t.Fatalf("mean %g", w.Mean())
	}
}

func TestMeanHelper(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
	if Mean([]float64{2, 4}) != 3 {
		t.Fatal("Mean([2 4]) != 3")
	}
}
