// Package rng provides the random source behind every stateful
// generator in a campaign instance: the fuzzing engine, the
// configuration-mutation picker and the netsim loss and latency
// streams. It yields exactly the stream of math/rand.NewSource for the
// same seed and also counts its draws, so a generator's position can be
// checkpointed as one integer and restored by re-seeding and
// fast-forwarding, instead of replaying the work that consumed it.
package rng

import "math/rand"

// A Source is a rand.Source64 that counts draws. Int63 and Uint64 each
// advance the underlying generator by exactly one step, so the count is
// a complete description of the position within the seeded stream.
type Source struct {
	src   rand.Source64
	seed  int64
	draws uint64
}

// New returns a counting source seeded with seed.
func New(seed int64) *Source {
	return &Source{src: rand.NewSource(seed).(rand.Source64), seed: seed}
}

// Int63 implements rand.Source.
func (s *Source) Int63() int64 {
	s.draws++
	return s.src.Int63()
}

// Uint64 implements rand.Source64.
func (s *Source) Uint64() uint64 {
	s.draws++
	return s.src.Uint64()
}

// Seed implements rand.Source: it re-seeds the stream and zeroes the
// draw count.
func (s *Source) Seed(seed int64) {
	s.src.Seed(seed)
	s.seed = seed
	s.draws = 0
}

// Draws reports how many values have been drawn since the last seeding.
func (s *Source) Draws() uint64 { return s.draws }

// Restore moves the source to the position after draws values of its
// seeded stream: it re-seeds, then fast-forwards.
func (s *Source) Restore(draws uint64) {
	s.Seed(s.seed)
	for ; s.draws < draws; s.draws++ {
		s.src.Uint64()
	}
}
