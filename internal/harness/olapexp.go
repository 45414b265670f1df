package harness

import (
	"fmt"

	"charm"
	"charm/internal/workloads/olap"
)

// olapRows returns the lineitem scale under the options.
func (o Options) olapRows() int {
	if o.Full {
		return 6_000_000 // ~SF1 shape; the paper uses SF100 on a testbed
	}
	return 1 << (o.GraphScale + 4)
}

// Fig13 regenerates the TPC-H comparison: each query analog on 8 cores
// (one chiplet's worth), DuckDB-default scheduling (static chiplet-
// oblivious scatter) vs DuckDB+CHARM (adaptive controller).
func (o Options) Fig13() *Table {
	t := &Table{
		ID:     "fig13",
		Title:  "TPC-H query analogs on 8 cores: DuckDB vs DuckDB+CHARM (virtual ms)",
		Header: []string{"query", "duckdb ms", "duckdb+charm ms", "speedup"},
		Notes:  "all queries benefit; join-heavy queries (Q3,4,5,7,9,10,21) gain 1.2-1.5x; Q18's hash group-by gains least",
	}
	run := func(sys charm.System) []float64 {
		rt := o.start(charm.Config{
			Topology:   o.amd(),
			CacheScale: o.CacheScale,
			Workers:    8,
			// DuckDB default: OS-scattered threads across sockets and
			// chiplets with no task affinity (naive); DuckDB+CHARM:
			// the adaptive controller.
			System:         sys,
			SampleShift:    o.SampleShift,
			SchedulerTimer: o.SchedulerTimer / 4,
		})
		defer rt.Finalize()
		tb := olap.Generate(rt, olap.Config{LineitemRows: o.olapRows(), Seed: 3})
		e := olap.NewEngine(rt, tb, 1024)
		out := make([]float64, 22)
		for q := 1; q <= 22; q++ {
			// Warm run lets the adaptive controller settle (the paper
			// reports steady-state query times), then measure.
			e.RunQuery(q)
			out[q-1] = float64(e.RunQuery(q).Makespan) / 1e6
		}
		return out
	}
	duck := run(charm.SystemNaive)
	withCharm := run(charm.SystemCHARM)
	for q := 0; q < 22; q++ {
		t.Rows = append(t.Rows, []string{fmt.Sprintf("Q%d", q+1),
			f2(duck[q]), f2(withCharm[q]), f2(duck[q] / withCharm[q])})
	}
	return t
}
