package des

import (
	"math"
	"math/bits"
)

// RNG is a deterministic random stream based on xoshiro256**, seeded via
// SplitMix64. It is intentionally not safe for concurrent use: every
// subsystem derives its own stream with Stream, which both avoids locks
// and makes results independent of goroutine interleaving.
type RNG struct {
	s    [4]uint64
	seed uint64
}

// NewRNG returns a stream seeded from seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{seed: seed}
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	// A xoshiro state of all zeros would be a fixed point; SplitMix64
	// cannot produce one from any seed, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return r
}

// Stream derives an independent stream for the given name. The derivation
// hashes the name (FNV-1a) into the parent seed, so identical names give
// identical streams and distinct names give independent ones.
func (r *RNG) Stream(name string) *RNG {
	return NewRNG(DeriveSeed(r.seed, name))
}

// DeriveSeed returns the seed of the named sub-stream of base: the pure
// seed counterpart of RNG.Stream, with NewRNG(DeriveSeed(base, name))
// equivalent to NewRNG(base).Stream(name). Orchestration layers use it to
// hand independent deterministic seeds to concurrent workers without
// sharing RNG state across goroutines.
func DeriveSeed(base uint64, name string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	return base ^ bits.RotateLeft64(h, 17) ^ 0xd1b54a32d192ed03
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := bits.RotateLeft64(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("des: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Uniform returns a uniform value in [lo, hi).
func (r *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool { return r.Float64() < p }

// Normal returns a normally distributed value with the given mean and
// standard deviation (Box-Muller, one value per call for determinism).
func (r *RNG) Normal(mean, std float64) float64 {
	// Avoid log(0) by nudging u1 away from zero.
	u1 := r.Float64()
	if u1 < 1e-300 {
		u1 = 1e-300
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + std*z
}

// LogNormal returns exp(N(mu, sigma)): a log-normally distributed value
// whose underlying normal has mean mu and standard deviation sigma.
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}

// Poisson returns a Poisson-distributed count with the given mean
// (Knuth's algorithm; fine for the small means used here).
func (r *RNG) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 500 {
		// Normal approximation keeps the loop bounded for large means.
		v := r.Normal(mean, math.Sqrt(mean))
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Choice returns a uniformly chosen index weighted by weights; weights
// must be non-negative and not all zero.
func (r *RNG) Choice(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w < 0 {
			panic("des: negative weight")
		}
		total += w
	}
	if total <= 0 {
		panic("des: all-zero weights")
	}
	x := r.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}
