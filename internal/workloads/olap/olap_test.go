package olap

import (
	"math"
	"testing"

	"charm"
)

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

func smallEngine(t *testing.T, workers int) *Engine {
	rt := testRT(t, workers)
	tb := Generate(rt, Config{LineitemRows: 8000, Seed: 11})
	return NewEngine(rt, tb, 512)
}

func TestGenerateShapes(t *testing.T) {
	rt := testRT(t, 2)
	tb := Generate(rt, Config{LineitemRows: 4000, Seed: 1})
	if tb.ORows != 1000 || tb.CRows != 100 || tb.PRows != 133 || tb.SRows != 6 {
		t.Errorf("table ratios wrong: O=%d C=%d P=%d S=%d", tb.ORows, tb.CRows, tb.PRows, tb.SRows)
	}
	for i, k := range tb.LOrderkey {
		if k < 0 || int(k) >= tb.ORows {
			t.Fatalf("row %d: orderkey %d out of range", i, k)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown column must panic")
		}
	}()
	tb.Col("nope")
}

func TestGenerateValidation(t *testing.T) {
	rt := testRT(t, 1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Generate(rt, Config{})
}

func TestAllQueriesRunAndAreDeterministic(t *testing.T) {
	e1 := smallEngine(t, 4)
	e2 := smallEngine(t, 2) // different parallelism, same data
	for q := 1; q <= 22; q++ {
		r1 := e1.RunQuery(q)
		r2 := e2.RunQuery(q)
		if r1.Makespan <= 0 {
			t.Errorf("Q%d: non-positive makespan", q)
		}
		if !closeEnough(r1.Value, r2.Value) {
			t.Errorf("Q%d: value differs across parallelism: %.6f vs %.6f", q, r1.Value, r2.Value)
		}
	}
}

// closeEnough tolerates float summation-order differences.
func closeEnough(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	m := a
	if m < 0 {
		m = -m
	}
	if m < 1 {
		m = 1
	}
	return d/m < 1e-6
}

func TestUnknownQueryPanics(t *testing.T) {
	e := smallEngine(t, 1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	e.RunQuery(23)
}

func TestSelectivity(t *testing.T) {
	e := smallEngine(t, 2)
	tb := e.T
	all := e.Select(tb.LRows, []string{"l_shipdate"}, func(i int) bool { return true })
	if len(all) != tb.LRows {
		t.Fatalf("full select = %d rows", len(all))
	}
	none := e.Select(tb.LRows, []string{"l_shipdate"}, func(i int) bool { return false })
	if len(none) != 0 {
		t.Fatalf("empty select = %d rows", len(none))
	}
	half := e.Select(tb.LRows, []string{"l_shipdate"}, func(i int) bool { return tb.LShipdate[i] < 1278 })
	frac := float64(len(half)) / float64(tb.LRows)
	if frac < 0.4 || frac > 0.6 {
		t.Errorf("uniform date filter selected %.2f, want ~0.5", frac)
	}
}

func TestHashTableBuildProbe(t *testing.T) {
	e := smallEngine(t, 2)
	ids := []int32{5, 17, 99}
	ht := e.Build(ids, func(i int32) int64 { return int64(i) * 10 })
	defer ht.Free()
	e.RT.Run(func(ctx *charm.Ctx) {
		for _, id := range ids {
			v, ok := ht.probe(ctx, int64(id)*10)
			if !ok || v != id {
				t.Errorf("probe(%d) = (%d,%v)", id*10, v, ok)
			}
		}
		if _, ok := ht.probe(ctx, 123456); ok {
			t.Error("phantom key found")
		}
	})
	if int64(len(ht.keys))*slotBytes <= 0 {
		t.Error("non-positive sim size")
	}
}

func TestGroupSumCounts(t *testing.T) {
	e := smallEngine(t, 4)
	tb := e.T
	g := e.GroupSum(tb.ORows, []string{"o_custkey"},
		func(i int) bool { return true },
		func(i int) int64 { return int64(tb.OCustkey[i]) },
		func(i int) float64 { return 1 },
		tb.CRows)
	defer g.Free()
	total, _ := g.SumWhere(func(s float64) bool { return s > 0 })
	if int(total) != tb.ORows {
		t.Errorf("group counts sum to %d, want %d", int(total), tb.ORows)
	}
}

func TestJoinQueryTouchesHashRegion(t *testing.T) {
	rt := testRT(t, 4)
	tb := Generate(rt, Config{LineitemRows: 8000, Seed: 11})
	e := NewEngine(rt, tb, 512)
	before := rt.Counter(charm.BytesRead)
	e.RunQuery(3)
	if rt.Counter(charm.BytesRead) <= before {
		t.Error("Q3 charged no simulated reads")
	}
}

func TestTopK(t *testing.T) {
	e := smallEngine(t, 2)
	tb := e.T
	g := e.GroupSum(tb.ORows, []string{"o_custkey"},
		func(i int) bool { return true },
		func(i int) int64 { return int64(tb.OCustkey[i]) },
		func(i int) float64 { return tb.OTotal[i] },
		tb.CRows)
	defer g.Free()
	top := g.TopK(5)
	if len(top) != 5 {
		t.Fatalf("TopK(5) returned %d", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i].Sum > top[i-1].Sum {
			t.Fatalf("TopK not descending at %d: %v", i, top)
		}
	}
	// Cross-check the max against a host-side fold.
	sums := map[int64]float64{}
	for i := 0; i < tb.ORows; i++ {
		sums[int64(tb.OCustkey[i])] += tb.OTotal[i]
	}
	var best float64
	for _, s := range sums {
		if s > best {
			best = s
		}
	}
	// The two workers add a group's rows in the order the schedule
	// interleaves them; the fold adds them in row order. Both are valid
	// float sums of the same terms, so compare to 1e-9 relative.
	if math.Abs(top[0].Sum-best) > 1e-9*math.Abs(best) {
		t.Errorf("TopK max %.6f != fold max %.6f", top[0].Sum, best)
	}
	// Edge cases.
	if g.TopK(0) != nil {
		t.Error("TopK(0) must be nil")
	}
	if got := len(g.TopK(1 << 20)); got != len(sums) {
		t.Errorf("TopK(huge) returned %d groups, want %d", got, len(sums))
	}
}
