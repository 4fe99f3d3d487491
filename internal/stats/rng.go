// Package stats provides the seeded random-number utilities, probability
// distributions, and summary statistics used throughout the simulator.
//
// Every distribution draws from an explicit *RNG so that whole experiments
// are reproducible from a single integer seed. The distributions implemented
// here are the ones the workload generator needs to reproduce the published
// marginals of the Theta trace: lognormal job runtimes, Zipf-distributed
// project activity, and bounded uniform/choice helpers.
package stats

import "math/rand"

// RNG is a deterministic random source. It wraps math/rand.Rand so that the
// rest of the code base never touches the global (non-reproducible) source.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a deterministic generator seeded with seed: the stream of
// rand.NewSource(seed).
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Derive returns a new independent generator whose seed combines the parent's
// next value with tag. It is used to give each workload sub-stream (sizes,
// runtimes, arrivals, ...) its own stream so that adding draws to one stream
// does not perturb the others.
func (g *RNG) Derive(tag int64) *RNG {
	const mix = int64(-0x61c8864680b583eb) // 0x9e3779b97f4a7c15 as int64
	return NewRNG(g.r.Int63() ^ (tag * mix))
}

// Float64 returns a uniform value in [0,1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform int in [0,n). It panics if n <= 0, matching
// math/rand semantics.
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63 returns a non-negative uniform 63-bit integer.
func (g *RNG) Int63() int64 { return g.r.Int63() }

// Uniform returns a uniform value in [lo, hi).
func (g *RNG) Uniform(lo, hi float64) float64 {
	if hi < lo {
		lo, hi = hi, lo
	}
	return lo + (hi-lo)*g.r.Float64()
}

// UniformInt64 returns a uniform integer in [lo, hi]. It panics if hi < lo.
func (g *RNG) UniformInt64(lo, hi int64) int64 {
	if hi < lo {
		panic("stats: UniformInt64 with hi < lo")
	}
	return lo + g.r.Int63n(hi-lo+1)
}

// NormFloat64 returns a standard-normal value.
func (g *RNG) NormFloat64() float64 { return g.r.NormFloat64() }

// ExpFloat64 returns an exponential value with the given mean.
// It panics if mean <= 0.
func (g *RNG) ExpFloat64(mean float64) float64 {
	if mean <= 0 {
		panic("stats: ExpFloat64 with non-positive mean")
	}
	return g.r.ExpFloat64() * mean
}

// Bool returns true with probability p (clamped to [0,1]).
func (g *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return g.r.Float64() < p
}

// Perm returns a random permutation of [0,n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Shuffle pseudo-randomizes the order of n elements using swap.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }
