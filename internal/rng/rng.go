// Package rng provides the deterministic pseudo-random generators the
// workloads share. Simulation code must not use math/rand or time-seeded
// randomness: every experiment is reproducible from its config seed.
package rng

// SplitMix64 advances the state and returns the next 64-bit value
// (Steele et al.'s SplitMix64, the Graph500 reference generator family).
func SplitMix64(s *uint64) uint64 {
	*s += 0x9E3779B97F4A7C15
	z := *s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Float64 returns a uniform float64 in [0, 1).
func Float64(s *uint64) float64 {
	return float64(SplitMix64(s)>>11) / (1 << 53)
}

// Signed returns a uniform float64 in [-1, 1).
func Signed(s *uint64) float64 { return Float64(s)*2 - 1 }

// Intn returns a uniform int in [0, n). n must be positive.
func Intn(s *uint64, n int) int { return int(SplitMix64(s) % uint64(n)) }

// Seed derives a stream state from a base seed and a stream index, so
// parallel tasks get decorrelated deterministic streams.
func Seed(base uint64, stream uint64) uint64 {
	return base*0x9E3779B97F4A7C15 + stream*0xBF58476D1CE4E5B9 + 0x94D049BB133111EB
}
