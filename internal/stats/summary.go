package stats

import (
	"math"
	"sort"
)

// Summary holds the descriptive statistics of a sample. The zero value is a
// valid empty summary.
type Summary struct {
	N      int
	Mean   float64
	Std    float64
	Min    float64
	Max    float64
	Median float64
	P90    float64
	P99    float64
	Sum    float64
}

// Summarize computes descriptive statistics of xs. An empty input returns the
// zero Summary.
func Summarize(xs []float64) Summary {
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return SummarizeSorted(sorted)
}

// SummarizeSorted is Summarize for a sample already in ascending order, which
// it reads in place instead of copying and sorting. Sums run over the sorted
// order, so any ascending arrangement of one sample summarizes bit for bit
// alike.
func SummarizeSorted(sorted []float64) Summary {
	if len(sorted) == 0 {
		return Summary{}
	}
	s := Summary{N: len(sorted)}
	s.Min = sorted[0]
	s.Max = sorted[len(sorted)-1]
	for _, x := range sorted {
		s.Sum += x
	}
	s.Mean = s.Sum / float64(s.N)
	var ss float64
	for _, x := range sorted {
		d := x - s.Mean
		ss += d * d
	}
	if s.N > 1 {
		s.Std = math.Sqrt(ss / float64(s.N-1))
	}
	s.Median = Percentile(sorted, 50)
	s.P90 = Percentile(sorted, 90)
	s.P99 = Percentile(sorted, 99)
	return s
}

// Percentile returns the p-th percentile (0..100) of an already-sorted sample
// using linear interpolation between closest ranks. It panics if sorted is
// empty or p is outside [0,100].
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		panic("stats: Percentile of empty sample")
	}
	if p < 0 || p > 100 {
		panic("stats: percentile out of range")
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Welford accumulates mean and variance in one pass without storing the
// sample. It is used by long-running simulations to track metric streams.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add incorporates x.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of samples added.
func (w *Welford) N() int { return w.n }

// Mean returns the running mean (0 if empty).
func (w *Welford) Mean() float64 { return w.mean }

// Var returns the running sample variance (0 if fewer than two samples).
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Std returns the running sample standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Var()) }

// State exposes the raw accumulator (count, running mean, sum of squared
// deviations) for serialization.
func (w *Welford) State() (n int, mean, m2 float64) { return w.n, w.mean, w.m2 }

// SetState overwrites the accumulator with a previously captured state.
func (w *Welford) SetState(n int, mean, m2 float64) { w.n, w.mean, w.m2 = n, mean, m2 }
