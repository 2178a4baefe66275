package sim

import (
	"math"
	"math/rand"
)

// Rand is a deterministic random source with the distribution samplers the
// OS-noise and workload models need. Its draws are exactly those of
// rand.New(rand.NewSource(seed)), but the source underneath is filled
// lazily (see lazySource): a new stream costs one 80-byte allocation and
// no seeding work, which matters because every node, core and noise source
// derives its own stream and most draw only a handful of values. Nothing in
// this repository draws from a global or time-seeded source.
//
// A Rand is used by pointer only and must not be copied: its rand.Rand
// points at the source stored beside it.
type Rand struct {
	src lazySource
	rng rand.Rand
}

// NewRand returns a generator seeded with seed.
func NewRand(seed int64) *Rand {
	r := &Rand{}
	r.src.Seed(seed)
	//simlint:allow globalrand — the seed enters through NewRand(seed), and lazySource reproduces rand.NewSource(seed) bit for bit (TestLazySourceMatchesMathRand)
	r.rng = *rand.New(&r.src)
	return r
}

// Derive returns an independent generator for a labelled sub-stream. Node- or
// core-scoped streams derived this way are stable: simulating nodes [0,100)
// gives each node the same draws it would get in a full-machine run, which is
// what lets subset experiments (e.g. 24 racks of Fugaku) compose with
// full-scale ones.
func (r *Rand) Derive(stream int64) *Rand {
	return NewRand(r.DeriveSeed(stream))
}

// DeriveSeed consumes one parent draw and returns the seed Derive would use
// for the sub-stream, without building the generator. Machine-scale runs
// derive one stream per node; storing the int64 seed instead of a *Rand
// keeps 158,976 node streams at 8 bytes each.
func (r *Rand) DeriveSeed(stream int64) int64 {
	// SplitMix64-style mix of the parent's next value with the stream id so
	// adjacent ids do not produce correlated sequences.
	z := uint64(r.src.Int63()) ^ (uint64(stream) * 0x9E3779B97F4A7C15)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// Skip discards n draws from the generator, advancing it exactly as n
// Derive calls would. Each Derive consumes one value from the parent, so a
// worker that owns the contiguous node block [lo, hi) of a partitioned run
// reproduces the sequential derivation with
//
//	base := NewRand(seed)
//	base.Skip(lo)
//	for n := lo; n < hi; n++ { use base.Derive(int64(n)) }
//
// which is what keeps sharded runs byte-identical to sequential ones.
func (r *Rand) Skip(n int) {
	for i := 0; i < n; i++ {
		r.src.Uint64()
	}
}

// DeriveNamed derives a sub-stream keyed by a string label.
func (r *Rand) DeriveNamed(label string) *Rand {
	var h uint64 = 1469598103934665603 // FNV-64 offset basis
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	return r.Derive(int64(h))
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 { return r.rng.Float64() }

// Intn returns a uniform value in [0, n).
func (r *Rand) Intn(n int) int { return r.rng.Intn(n) }

// Int63n returns a uniform value in [0, n).
func (r *Rand) Int63n(n int64) int64 { return r.rng.Int63n(n) }

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int { return r.rng.Perm(n) }

// Uniform returns a value uniformly distributed in [lo, hi).
func (r *Rand) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.rng.Float64()
}

// Exp returns an exponentially distributed value with the given mean.
// Inter-arrival times of independent noise events are modelled this way.
func (r *Rand) Exp(mean float64) float64 {
	return r.rng.ExpFloat64() * mean
}

// Normal returns a normally distributed value (mean, stddev), clamped at 0
// from below when used for durations by callers that need non-negativity.
func (r *Rand) Normal(mean, stddev float64) float64 {
	return mean + stddev*r.rng.NormFloat64()
}

// LogNormal returns exp(N(mu, sigma)). OS noise burst lengths are heavy
// tailed; lognormal matches the FWQ trace shapes reported in the paper.
func (r *Rand) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.rng.NormFloat64())
}

// LogNormalMeanCV returns a lognormal sample parameterized by its arithmetic
// mean and coefficient of variation, which is how the noise models are
// calibrated (mean length, relative spread).
func (r *Rand) LogNormalMeanCV(mean, cv float64) float64 {
	if mean <= 0 {
		return 0
	}
	if cv <= 0 {
		return mean
	}
	sigma2 := math.Log(1 + cv*cv)
	mu := math.Log(mean) - sigma2/2
	return r.LogNormal(mu, math.Sqrt(sigma2))
}

// Pareto returns a Pareto(xm, alpha) sample: heavy-tailed, used for the rare
// long noise events that dominate max-noise-length statistics.
func (r *Rand) Pareto(xm, alpha float64) float64 {
	u := r.rng.Float64()
	for u == 0 {
		u = r.rng.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}

// Bernoulli reports true with probability p.
func (r *Rand) Bernoulli(p float64) bool {
	return r.rng.Float64() < p
}

// DurationExp returns an exponentially distributed Duration with mean d.
func (r *Rand) DurationExp(d Duration) Duration {
	return Duration(r.Exp(float64(d)))
}

// DurationUniform returns a Duration uniform in [lo, hi).
func (r *Rand) DurationUniform(lo, hi Duration) Duration {
	return Duration(r.Uniform(float64(lo), float64(hi)))
}

// DurationLogNormal returns a lognormal Duration with arithmetic mean d and
// coefficient of variation cv.
func (r *Rand) DurationLogNormal(d Duration, cv float64) Duration {
	return Duration(r.LogNormalMeanCV(float64(d), cv))
}

// Jitter returns d scaled by a uniform factor in [1-frac, 1+frac].
func (r *Rand) Jitter(d Duration, frac float64) Duration {
	return Duration(float64(d) * r.Uniform(1-frac, 1+frac))
}
