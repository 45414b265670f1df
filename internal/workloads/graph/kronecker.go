package graph

import "charm/internal/rng"

// Kronecker (R-MAT) graph generation following the Graph500 reference
// parameters: A=0.57, B=0.19, C=0.19 (D=0.05), edge factor 16. The paper's
// evaluation uses 2^24 vertices; the harness scales this down together with
// the cache sizes (DESIGN.md §4.5).

// GenConfig parameterizes Kronecker.
type GenConfig struct {
	// LogVertices is log2 of the vertex count (Graph500 "scale").
	LogVertices int
	// EdgeFactor is edges per vertex before symmetrization (default 16).
	EdgeFactor int
	// Seed makes generation deterministic.
	Seed uint64
}

// Kronecker generates a symmetric R-MAT graph.
func Kronecker(cfg GenConfig) *CSR {
	if cfg.LogVertices <= 0 {
		panic("graph: LogVertices must be positive")
	}
	if cfg.EdgeFactor <= 0 {
		cfg.EdgeFactor = 16
	}
	n := 1 << cfg.LogVertices
	m := n * cfg.EdgeFactor
	src := make([]int32, m)
	dst := make([]int32, m)
	w := make([]uint8, m)
	state := cfg.Seed*0x9E3779B97F4A7C15 + 0xDEADBEEF

	// R-MAT quadrant probabilities scaled to 16-bit thresholds:
	// A=0.57, A+B=0.76, A+B+C=0.95.
	const tA, tAB, tABC = 37355, 49807, 62258
	for i := 0; i < m; i++ {
		var s, d int32
		for bit := cfg.LogVertices - 1; bit >= 0; bit-- {
			r := uint16(rng.SplitMix64(&state))
			switch {
			case r < tA:
				// top-left: no bits set
			case r < tAB:
				d |= 1 << bit
			case r < tABC:
				s |= 1 << bit
			default:
				s |= 1 << bit
				d |= 1 << bit
			}
		}
		src[i], dst[i] = s, d
		w[i] = uint8(rng.SplitMix64(&state)%254) + 1
	}
	return buildCSR(n, src, dst, w)
}
