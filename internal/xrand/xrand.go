// Package xrand provides deterministic, splittable pseudo-random number
// generation for reproducible parallel experiments.
//
// The simulator and every stochastic scheduler in this repository take an
// explicit seed. Parameter sweeps run points concurrently, so sharing one
// math/rand source across goroutines would make results depend on worker
// interleaving. xrand solves this with SplitMix64: a tiny, well-studied
// 64-bit mixing generator whose streams can be split hierarchically — a
// parent stream deterministically derives independent child streams, so the
// result of an experiment point depends only on (rootSeed, pointIndex),
// never on scheduling order.
package xrand

import "math/rand"

// golden is the 64-bit golden-ratio increment used by SplitMix64.
const golden = 0x9e3779b97f4a7c15

// mix64 is the SplitMix64 output mixing function (Steele, Lea, Flood 2014).
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Source is a SplitMix64 generator implementing math/rand.Source64.
// It is not safe for concurrent use; split one Source per goroutine instead.
type Source struct {
	state uint64
}

// NewSource returns a Source seeded with seed.
func NewSource(seed uint64) *Source {
	return &Source{state: seed}
}

// Uint64 returns the next value in the stream.
func (s *Source) Uint64() uint64 {
	s.state += golden
	return mix64(s.state)
}

// Int63 implements math/rand.Source.
func (s *Source) Int63() int64 {
	return int64(s.Uint64() >> 1)
}

// Seed implements math/rand.Source.
func (s *Source) Seed(seed int64) {
	s.state = uint64(seed)
}

// Split derives an independent child stream from the current state.
// Two Splits from the same Source state yield different children, and the
// parent advances, so repeated Split calls produce a deterministic forest.
func (s *Source) Split() *Source {
	// Draw one value for the child's seed and perturb it through an extra
	// mix round so parent and child sequences do not overlap in practice.
	return &Source{state: mix64(s.Uint64() ^ golden)}
}

// Rand wraps the Source into a *math/rand.Rand for its rich distribution API.
func (s *Source) Rand() *rand.Rand {
	return rand.New(s)
}

// Stream returns the n-th independent child stream of seed.
// Stream(seed, i) is pure: it does not mutate any state and always returns
// the same generator for the same inputs, which is what parallel sweeps use
// to give every parameter point its own reproducible randomness.
func Stream(seed uint64, n uint64) *Source {
	s := new(Source)
	s.SetStream(seed, n)
	return s
}

// SetStream repositions s at the start of Stream(seed, n), so a hot loop can
// walk many child streams through one Source (and one *rand.Rand over it)
// without allocating a generator per stream. A *rand.Rand over s then
// draws exactly what New(seed, n) would, for every method except Read,
// whose buffered bytes SetStream does not reach.
func (s *Source) SetStream(seed, n uint64) {
	s.state = mix64(seed+golden*(n+1)) ^ golden*n
}

// New returns a *rand.Rand over the n-th child stream of seed.
func New(seed, n uint64) *rand.Rand {
	return Stream(seed, n).Rand()
}
