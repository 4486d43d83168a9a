// Package rng provides deterministic, splittable random number sources.
//
// Every stochastic component in the repository (initial drone placement,
// GPS noise, random fuzzers) draws from a Source derived from an
// explicit seed, so a mission is a pure function of its configuration. Derive creates statistically independent child sources
// from a parent seed and a label, which keeps results stable when new
// consumers of randomness are added: adding a consumer with a new label
// does not perturb the streams of existing labels.
package rng

import (
	"hash/fnv"
	"math/rand"
)

// Source is a deterministic random source. It wraps math/rand.Rand so
// callers get the full distribution toolbox, but construction is only
// possible through New/Derive, which forces explicit seeding. New(seed)
// yields exactly the stream of rand.New(rand.NewSource(seed)), the
// contract every recorded golden rests on.
type Source struct {
	*rand.Rand
	seed uint64
}

// New returns a Source seeded with the given seed.
func New(seed uint64) *Source {
	return &Source{Rand: rand.New(rand.NewSource(int64(seed))), seed: seed} //nolint:gosec // determinism is the point
}

// Seed returns the seed this source was created with.
func (s *Source) Seed() uint64 { return s.seed }

// Derive returns a new Source whose seed is a hash of the parent seed
// and the label. Distinct labels yield independent streams; the same
// (seed, label) pair always yields the same stream.
func Derive(seed uint64, label string) *Source {
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(seed >> (8 * i))
	}
	_, _ = h.Write(buf[:])
	_, _ = h.Write([]byte(label))
	return New(h.Sum64())
}

// DeriveN is Derive with an integer discriminator appended to the
// label, convenient for per-drone or per-trial streams.
func DeriveN(seed uint64, label string, n int) *Source {
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(seed >> (8 * i))
	}
	_, _ = h.Write(buf[:])
	_, _ = h.Write([]byte(label))
	var nbuf [8]byte
	un := uint64(n)
	for i := 0; i < 8; i++ {
		nbuf[i] = byte(un >> (8 * i))
	}
	_, _ = h.Write(nbuf[:])
	return New(h.Sum64())
}

// Uniform returns a uniformly distributed float64 in [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + s.Float64()*(hi-lo)
}

// Gaussian returns a normally distributed float64 with the given mean
// and standard deviation.
func (s *Source) Gaussian(mean, stddev float64) float64 {
	return mean + s.NormFloat64()*stddev
}

// Bool returns true with probability p (clamped to [0,1]).
func (s *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}
