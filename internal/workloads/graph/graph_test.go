package graph

import (
	"testing"
	"testing/quick"

	"charm"
)

func genSmall(t *testing.T) *CSR {
	t.Helper()
	g := Kronecker(GenConfig{LogVertices: 10, EdgeFactor: 8, Seed: 42})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

func testRT(t *testing.T, workers int) *charm.Runtime {
	t.Helper()
	rt, err := charm.Init(charm.Config{
		Workers:        workers,
		Topology:       charm.SmallTopology(),
		SchedulerTimer: 100_000,
		Deterministic:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Finalize)
	return rt
}

func TestKroneckerShape(t *testing.T) {
	g := Kronecker(GenConfig{LogVertices: 8, EdgeFactor: 4, Seed: 1})
	if g.N != 256 {
		t.Errorf("N = %d, want 256", g.N)
	}
	if g.M() != 2*256*4 { // symmetrized
		t.Errorf("M = %d, want %d", g.M(), 2*256*4)
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
	// Kronecker graphs are skewed: the max degree far exceeds the mean.
	var maxDeg int64
	for v := 0; v < g.N; v++ {
		if d := g.Degree(int32(v)); d > maxDeg {
			maxDeg = d
		}
	}
	if mean := int64(g.M() / g.N); maxDeg < 3*mean {
		t.Errorf("max degree %d not skewed vs mean %d", maxDeg, mean)
	}
}

func TestKroneckerDeterministic(t *testing.T) {
	a := Kronecker(GenConfig{LogVertices: 6, EdgeFactor: 4, Seed: 7})
	b := Kronecker(GenConfig{LogVertices: 6, EdgeFactor: 4, Seed: 7})
	if a.M() != b.M() {
		t.Fatal("same seed, different edge counts")
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatalf("edge %d differs", i)
		}
	}
	c := Kronecker(GenConfig{LogVertices: 6, EdgeFactor: 4, Seed: 8})
	same := c.M() == a.M()
	if same {
		diff := false
		for i := range a.Edges {
			if a.Edges[i] != c.Edges[i] {
				diff = true
				break
			}
		}
		if !diff {
			t.Error("different seeds produced identical graphs")
		}
	}
}

func TestCSRSymmetry(t *testing.T) {
	g := genSmall(t)
	// Every edge (v,u) has a reverse (u,v): check via degree-sum parity
	// on a sample of vertices.
	adj := map[[2]int32]int{}
	for v := 0; v < g.N; v++ {
		for _, u := range g.Neighbors(int32(v)) {
			adj[[2]int32{int32(v), u}]++
		}
	}
	for k, c := range adj {
		if adj[[2]int32{k[1], k[0]}] != c {
			t.Fatalf("asymmetric edge %v", k)
		}
	}
}

func TestBFSCorrectness(t *testing.T) {
	g := genSmall(t)
	rt := testRT(t, 4)
	b := Bind(rt, g, 64)
	parent, res := b.BFS(0)
	if parent[0] != 0 {
		t.Fatal("root not its own parent")
	}
	if res.WorkEdges == 0 || res.Makespan <= 0 {
		t.Errorf("degenerate result: %+v", res)
	}
	// Verify levels: every reached vertex's parent is reached and adjacent.
	for v := int32(0); int(v) < g.N; v++ {
		p := parent[v]
		if p == -1 || v == 0 {
			continue
		}
		found := false
		for _, u := range g.Neighbors(v) {
			if u == p {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("vertex %d's parent %d is not a neighbor", v, p)
		}
	}
	// Reachability must match a sequential BFS.
	seq := seqReach(g, 0)
	for v := 0; v < g.N; v++ {
		if (parent[v] != -1) != seq[v] {
			t.Fatalf("vertex %d reachability mismatch", v)
		}
	}
}

func seqReach(g *CSR, root int32) []bool {
	seen := make([]bool, g.N)
	seen[root] = true
	queue := []int32{root}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range g.Neighbors(v) {
			if !seen[u] {
				seen[u] = true
				queue = append(queue, u)
			}
		}
	}
	return seen
}

func TestPageRankConverges(t *testing.T) {
	g := genSmall(t)
	rt := testRT(t, 4)
	b := Bind(rt, g, 64)
	rank, res := b.PageRank(5)
	if res.Rounds != 5 {
		t.Errorf("rounds = %d, want 5", res.Rounds)
	}
	var sum float64
	for _, r := range rank {
		if r < 0 {
			t.Fatal("negative rank")
		}
		sum += r
	}
	// Rank mass stays near 1 (dangling mass may leak slightly).
	if sum < 0.5 || sum > 1.5 {
		t.Errorf("rank sum = %f, want ~1", sum)
	}
}

func TestCCCorrectness(t *testing.T) {
	g := genSmall(t)
	rt := testRT(t, 4)
	b := Bind(rt, g, 64)
	label, res := b.CC()
	if res.Rounds == 0 {
		t.Error("no rounds")
	}
	// Fixed point: every vertex's label equals the min over its closed
	// neighborhood.
	for v := 0; v < g.N; v++ {
		for _, u := range g.Neighbors(int32(v)) {
			if label[u] != label[v] {
				t.Fatalf("edge (%d,%d) spans components %d,%d", v, u, label[v], label[u])
			}
		}
	}
}

func TestSSSPCorrectness(t *testing.T) {
	g := Kronecker(GenConfig{LogVertices: 8, EdgeFactor: 6, Seed: 5})
	rt := testRT(t, 4)
	b := Bind(rt, g, 64)
	dist, res := b.SSSP(0)
	if res.WorkEdges == 0 {
		t.Error("no edges relaxed")
	}
	// Triangle inequality at fixed point: dist[u] <= dist[v] + w(v,u).
	for v := int32(0); int(v) < g.N; v++ {
		dv := dist[v]
		if dv >= 1<<62 {
			continue
		}
		ws := g.WeightsOf(v)
		for k, u := range g.Neighbors(v) {
			if dist[u] > dv+int64(ws[k]) {
				t.Fatalf("edge (%d,%d): dist[%d]=%d > %d+%d", v, u, u, dist[u], dv, ws[k])
			}
		}
	}
	// Dijkstra cross-check on this small graph.
	want := seqDijkstra(g, 0)
	for v := 0; v < g.N; v++ {
		if dist[v] != want[v] {
			t.Fatalf("dist[%d] = %d, want %d", v, dist[v], want[v])
		}
	}
}

func seqDijkstra(g *CSR, root int32) []int64 {
	const inf = int64(1) << 62
	dist := make([]int64, g.N)
	done := make([]bool, g.N)
	for i := range dist {
		dist[i] = inf
	}
	dist[root] = 0
	for {
		v, best := int32(-1), inf
		for i := 0; i < g.N; i++ {
			if !done[i] && dist[i] < best {
				v, best = int32(i), dist[i]
			}
		}
		if v == -1 {
			return dist
		}
		done[v] = true
		ws := g.WeightsOf(v)
		for k, u := range g.Neighbors(v) {
			if nd := dist[v] + int64(ws[k]); nd < dist[u] {
				dist[u] = nd
			}
		}
	}
}

func TestGraph500Kernel(t *testing.T) {
	g := genSmall(t)
	rt := testRT(t, 4)
	b := Bind(rt, g, 64)
	res := b.Graph500(2)
	if res.WorkEdges == 0 || res.TEPS() <= 0 {
		t.Errorf("degenerate graph500 result: %+v", res)
	}
}

func TestBindFree(t *testing.T) {
	g := genSmall(t)
	rt := testRT(t, 2)
	b := Bind(rt, g, 64)
	b.Free()
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := genSmall(t)
	g.Edges[0] = int32(g.N) // out of range
	if err := g.Validate(); err == nil {
		t.Error("expected validation error")
	}
}

func TestKroneckerPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Kronecker(GenConfig{LogVertices: 0})
}

func TestResultTEPSProperty(t *testing.T) {
	f := func(edges uint32, ns uint32) bool {
		r := Result{WorkEdges: int64(edges), Makespan: int64(ns)}
		teps := r.TEPS()
		if ns == 0 {
			return teps == 0
		}
		return teps >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValidateBFS(t *testing.T) {
	g := genSmall(t)
	rt := testRT(t, 4)
	b := Bind(rt, g, 64)
	parent, _ := b.BFS(0)
	if err := ValidateBFS(g, 0, parent); err != nil {
		t.Fatalf("valid BFS rejected: %v", err)
	}
	// Corrupt the parent of a reached non-root vertex: must be rejected.
	for v := 1; v < g.N; v++ {
		if parent[v] == -1 {
			continue
		}
		bad := make([]int32, len(parent))
		copy(bad, parent)
		bad[v] = int32(v) // self-parent (cycle of length 1, non-root)
		if err := ValidateBFS(g, 0, bad); err == nil {
			t.Fatalf("self-parent at %d accepted", v)
		}
		break
	}
	// Wrong array length.
	if err := ValidateBFS(g, 0, parent[:g.N-1]); err == nil {
		t.Error("short parent array accepted")
	}
	// Root without self-parent.
	bad := make([]int32, len(parent))
	copy(bad, parent)
	bad[0] = -1
	if err := ValidateBFS(g, 0, bad); err == nil {
		t.Error("rootless tree accepted")
	}
}

func TestValidateBFSRejectsNonNeighborParent(t *testing.T) {
	g := genSmall(t)
	rt := testRT(t, 2)
	b := Bind(rt, g, 64)
	parent, _ := b.BFS(0)
	for v := int32(1); int(v) < g.N; v++ {
		if parent[v] == -1 {
			continue
		}
		// Find a vertex that is NOT a neighbor of v.
		nb := map[int32]bool{}
		for _, u := range g.Neighbors(v) {
			nb[u] = true
		}
		for cand := int32(0); int(cand) < g.N; cand++ {
			if cand != v && !nb[cand] {
				bad := make([]int32, len(parent))
				copy(bad, parent)
				bad[v] = cand
				if err := ValidateBFS(g, 0, bad); err == nil {
					t.Fatal("non-neighbor parent accepted")
				}
				return
			}
		}
	}
	t.Skip("no suitable vertex found")
}
