package harness

import (
	"charm"
	"charm/internal/workloads/olap"
)

// Granularity regenerates the §5.6 task-granularity discussion as an
// experiment: sweeping the morsel size (rows per task) for a join-heavy
// (Q3) and a scan-heavy (Q6) query on 8 cores under CHARM. Too-fine
// morsels pay scheduling overhead; too-coarse ones defeat load balancing
// and the profiler's yield points.
func (o Options) Granularity() *Table {
	t := &Table{
		ID:     "gran",
		Title:  "Task granularity sweep on 8 cores (virtual ms)",
		Header: []string{"grain rows", "q3 ms", "q6 ms"},
		Notes:  "a broad optimum in the middle; extremes degrade (paper: 2-4 MB morsels work well, no strict lower bound)",
	}
	rt := o.start(charm.Config{
		Topology:       o.amd(),
		CacheScale:     o.CacheScale,
		Workers:        8,
		SampleShift:    o.SampleShift,
		SchedulerTimer: o.SchedulerTimer / 4,
	})
	defer rt.Finalize()
	tb := olap.Generate(rt, olap.Config{LineitemRows: o.olapRows(), Seed: 3})
	for _, grain := range []int{64, 256, 1024, 4096, 16384, 65536} {
		e := olap.NewEngine(rt, tb, grain)
		// Warm run, then measure.
		e.RunQuery(3)
		q3 := float64(e.RunQuery(3).Makespan) / 1e6
		e.RunQuery(6)
		q6 := float64(e.RunQuery(6).Makespan) / 1e6
		t.Rows = append(t.Rows, []string{i64(int64(grain)), f2(q3), f2(q6)})
	}
	return t
}
