package charm_test

import (
	"fmt"

	"charm"
)

const (
	rankVertices   = 1 << 12
	rankEdgeFactor = 8
	rankIterations = 5
	rankGrain      = 64
)

// rankGraph generates a random graph in CSR form.
func rankGraph(seed uint64) (offsets []int64, edges []int32) {
	deg := make([]int64, rankVertices+1)
	targets := make([][]int32, rankVertices)
	s := seed
	rnd := func() uint64 {
		s += 0x9E3779B97F4A7C15
		z := s
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		return z ^ (z >> 27)
	}
	for v := 0; v < rankVertices; v++ {
		for k := 0; k < rankEdgeFactor; k++ {
			u := int32(rnd() % rankVertices)
			targets[v] = append(targets[v], u)
			deg[v+1]++
		}
	}
	offsets = make([]int64, rankVertices+1)
	for v := 0; v < rankVertices; v++ {
		offsets[v+1] = offsets[v] + deg[v+1]
	}
	edges = make([]int32, offsets[rankVertices])
	for v := 0; v < rankVertices; v++ {
		copy(edges[offsets[v]:], targets[v])
	}
	return offsets, edges
}

// pageRank runs the kernel on one runtime and returns the virtual makespan.
func pageRank(rt *charm.Runtime, offsets []int64, edges []int32) int64 {
	// Mirror the data structures into simulated memory (first-touch by
	// the workers so placement follows the system under test).
	aEdges := rt.AllocPolicy(int64(len(edges))*4, charm.FirstTouch, 0)
	aRank := rt.AllocPolicy(rankVertices*8, charm.FirstTouch, 0)
	aRank2 := rt.AllocPolicy(rankVertices*8, charm.FirstTouch, 0)
	rt.ParallelFor(0, rankVertices, rankGrain, func(ctx *charm.Ctx, i0, i1 int) {
		ctx.Write(aRank+charm.Addr(i0*8), int64(i1-i0)*8)
		ctx.Write(aRank2+charm.Addr(i0*8), int64(i1-i0)*8)
		e0, e1 := offsets[i0], offsets[i1]
		if e1 > e0 {
			ctx.Write(aEdges+charm.Addr(e0*4), (e1-e0)*4)
		}
	})

	rank := make([]float64, rankVertices)
	rank2 := make([]float64, rankVertices)
	for i := range rank {
		rank[i] = 1.0 / rankVertices
	}
	start := rt.Now()
	for it := 0; it < rankIterations; it++ {
		rt.ParallelFor(0, rankVertices, rankGrain, func(ctx *charm.Ctx, i0, i1 int) {
			e0, e1 := offsets[i0], offsets[i1]
			if e1 > e0 {
				ctx.Read(aEdges+charm.Addr(e0*4), (e1-e0)*4)
			}
			for v := i0; v < i1; v++ {
				ctx.Yield()
				var sum float64
				for _, u := range edges[offsets[v]:offsets[v+1]] {
					ctx.Read(aRank+charm.Addr(int64(u)*8), 8)
					sum += rank[u] / rankEdgeFactor
				}
				rank2[v] = 0.15/rankVertices + 0.85*sum
				ctx.Compute(int64(offsets[v+1]-offsets[v]) * 2)
			}
			ctx.Write(aRank2+charm.Addr(i0*8), int64(i1-i0)*8)
		})
		rank, rank2 = rank2, rank
		aRank, aRank2 = aRank2, aRank
	}
	return rt.Now() - start
}

// Example_graphrank runs a PageRank written directly against the CHARM
// public API under CHARM and under the RING baseline on the same
// simulated machine: the §5.2 comparison in miniature.
func Example_graphrank() {
	offsets, edges := rankGraph(42)
	fmt.Printf("graph: %d vertices, %d edges\n", rankVertices, len(edges))

	for _, sys := range []charm.System{charm.SystemCHARM, charm.SystemRING} {
		rt, err := charm.Init(charm.Config{
			Workers:        32,
			CacheScale:     256,
			System:         sys,
			SchedulerTimer: 25_000,
			Deterministic:  true,
		})
		if err != nil {
			panic(err)
		}
		ms := pageRank(rt, offsets, edges)
		fmt.Printf("%-6s makespan %.3f ms, migrations %d, remote fills %d\n",
			sys, float64(ms)/1e6, rt.Counter(charm.Migration),
			rt.Counter(charm.FillL3RemoteSocket)+rt.Counter(charm.FillDRAMRemote))
		rt.Finalize()
	}
	// Output:
	// graph: 4096 vertices, 32768 edges
	// charm  makespan 0.144 ms, migrations 45, remote fills 0
	// ring   makespan 0.275 ms, migrations 0, remote fills 6040
}
