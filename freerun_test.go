package charm_test

import (
	"testing"

	"charm"
	"charm/internal/workloads/graph"
	"charm/internal/workloads/gups"
)

// TestFreeRunningSmoke is the one tier-1 run of the free-running engine,
// the engine bench's graph-free workload measures: BFS, PageRank and GUPS
// on a small Kronecker graph, on graph-free's machine and knobs at its
// smoke size. Free-running results depend on host scheduling, so it
// asserts only what no schedule can change: the BFS tree is valid and
// reaches what a plain BFS reaches in as many levels over as many edges,
// PageRank's ranks equal a plain-Go run bit for bit, GUPS applies every
// update, and a ParallelFor runs one task per chunk. It goes, with the
// engine, in ROADMAP direction 1(d).
func TestFreeRunningSmoke(t *testing.T) {
	const (
		logVertices = 10
		logTable    = 10
		iters       = 3
		workers     = 32
		grain       = 16
	)
	g := graph.Kronecker(graph.GenConfig{LogVertices: logVertices, EdgeFactor: 16, Seed: 42})
	rt, err := charm.Init(charm.Config{
		Topology:       charm.AMDMilan(),
		CacheScale:     16 << (17 - logVertices),
		Workers:        workers,
		SampleShift:    2,
		SchedulerTimer: 25_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Finalize()
	b := graph.Bind(rt, g, grain)
	defer b.Free()

	parent, bfs := b.BFS(0)
	if err := graph.ValidateBFS(g, 0, parent); err != nil {
		t.Fatalf("bfs: %v", err)
	}
	reach, levels, edges := plainBFS(g, 0)
	got := 0
	for _, p := range parent {
		if p >= 0 {
			got++
		}
	}
	if got != reach || bfs.Rounds != levels || bfs.WorkEdges != edges {
		t.Errorf("bfs: reach %d, %d rounds, %d edges; a plain BFS gives %d, %d, %d",
			got, bfs.Rounds, bfs.WorkEdges, reach, levels, edges)
	}

	ranks, pr := b.PageRank(iters)
	want := plainPageRank(g, iters)
	for v := range ranks {
		if ranks[v] != want[v] {
			t.Fatalf("pagerank: rank[%d] = %g, a plain-Go run gives %g", v, ranks[v], want[v])
		}
	}
	if pr.WorkEdges != int64(iters*g.M()) {
		t.Errorf("pagerank: %d edges, want %d", pr.WorkEdges, iters*g.M())
	}

	updates := 4 << logTable
	if gu := gups.Run(rt, gups.Config{LogTableSize: logTable, Grain: grain, Seed: 42}); gu.Updates != int64(updates) {
		t.Errorf("gups: %d updates, want %d", gu.Updates, updates)
	}

	if st := rt.ParallelFor(0, g.N, grain, func(ctx *charm.Ctx, i0, i1 int) { ctx.Compute(100) }); st.Tasks != int64(g.N/grain) {
		t.Errorf("parallel for: %d tasks, want %d", st.Tasks, g.N/grain)
	}
}

// plainBFS returns how many vertices a BFS from root reaches, its number
// of levels, and the edges it scans (every reached vertex's degree).
func plainBFS(g *graph.CSR, root int32) (reach, levels int, edges int64) {
	seen := make([]bool, g.N)
	seen[root] = true
	for frontier := []int32{root}; len(frontier) > 0; levels++ {
		var next []int32
		for _, v := range frontier {
			reach++
			for _, u := range g.Neighbors(v) {
				edges++
				if !seen[u] {
					seen[u] = true
					next = append(next, u)
				}
			}
		}
		frontier = next
	}
	return reach, levels, edges
}

// plainPageRank is the pull iteration Bound.PageRank runs, without a
// runtime: each rank depends only on the previous vector and sums its
// neighbours in CSR order, so any schedule must reproduce it bit for bit.
func plainPageRank(g *graph.CSR, iters int) []float64 {
	rank, next := make([]float64, g.N), make([]float64, g.N)
	inv := 1.0 / float64(g.N)
	for i := range rank {
		rank[i] = inv
	}
	for it := 0; it < iters; it++ {
		for v := 0; v < g.N; v++ {
			var sum float64
			for _, u := range g.Neighbors(int32(v)) {
				if d := g.Degree(u); d > 0 {
					sum += rank[u] / float64(d)
				}
			}
			next[v] = 0.15*inv + 0.85*sum
		}
		rank, next = next, rank
	}
	return rank
}
