// Package rng provides deterministic, splittable random number sources.
//
// Every stochastic component in the repository (initial drone placement,
// GPS noise, lossy communication, random fuzzers) draws from a Source
// derived from an explicit seed, so a mission is a pure function of its
// configuration. Derive creates statistically independent child sources
// from a parent seed and a label, which keeps results stable when new
// consumers of randomness are added: adding a consumer with a new label
// does not perturb the streams of existing labels.
package rng

import (
	"fmt"
	"hash/fnv"
	"math/rand"
)

// Source is a deterministic random source. It wraps math/rand.Rand so
// callers get the full distribution toolbox, but construction is only
// possible through New/Derive, which forces explicit seeding.
//
// A Source counts the generator steps it has taken (Draws), so a
// stream can be repositioned without copying generator state, which
// math/rand does not expose: a fresh Source built from the same seed
// and advanced with AdvanceTo(Draws()) continues the original stream
// bit for bit. Every distribution method except Read draws whole
// generator steps; Read buffers unused bytes inside the Rand, so a
// stream that has used Read cannot be repositioned this way.
type Source struct {
	*rand.Rand
	gen  *counter
	seed uint64
}

// counter is the generator under every Source: it forwards to the
// math/rand generator and counts the steps taken. Int63 and Uint64 each
// advance the underlying generator exactly one step.
type counter struct {
	src rand.Source64
	n   uint64
}

func (c *counter) Int63() int64 {
	c.n++
	return c.src.Int63()
}

func (c *counter) Uint64() uint64 {
	c.n++
	return c.src.Uint64()
}

func (c *counter) Seed(seed int64) {
	c.src.Seed(seed)
	c.n = 0
}

// New returns a Source seeded with the given seed.
func New(seed uint64) *Source {
	gen := &counter{src: rand.NewSource(int64(seed)).(rand.Source64)} //nolint:gosec // determinism is the point
	return &Source{Rand: rand.New(gen), gen: gen, seed: seed}
}

// Seed returns the seed this source was created with.
func (s *Source) Seed() uint64 { return s.seed }

// Draws returns the number of generator steps the source has taken: its
// position in the stream.
func (s *Source) Draws() uint64 { return s.gen.n }

// AdvanceTo moves the stream forward to position n by discarding
// generator steps. It panics if the source is already past n, since a
// generator cannot step backwards.
func (s *Source) AdvanceTo(n uint64) {
	if n < s.gen.n {
		panic(fmt.Sprintf("rng: cannot advance to draw %d from draw %d", n, s.gen.n))
	}
	for ; s.gen.n < n; s.gen.n++ {
		s.gen.src.Int63()
	}
}

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
