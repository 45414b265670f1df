package harness

import (
	"reflect"
	"sync/atomic"

	"charm"
	"charm/internal/topology"
)

// The chaos experiment measures graceful degradation: a fixed workload runs
// on every system while the fault plan offlines 2 of 16 chiplets partway
// through. A runtime survives when it completes every task anyway; it
// degrades gracefully when the makespan grows roughly in proportion to the
// lost compute capacity rather than collapsing or deadlocking. A second
// scenario gives the machine spare cores, where CHARM's self-healing
// re-homing keeps the lost capacity near zero while static placements run
// the rest of the workload short-handed.

// chaosResult is one measured run of the chaos workload.
type chaosResult struct {
	makespan  int64
	tasks     int64
	completed int64
	rehomes   float64
	parks     float64
	reenq     float64
	pmu       any // pmu.Snapshot, compared via reflect for reproducibility
}

// chaosWorkload runs the fixed three-phase workload and returns the summed
// makespan and task stats plus the self-counted completions.
func chaosWorkload(rt *charm.Runtime) chaosResult {
	const phases, items = 3, 96
	data := rt.Alloc(64 << 10)
	var completed atomic.Int64
	var r chaosResult
	for p := 0; p < phases; p++ {
		st := rt.ParallelFor(0, items, 1, func(ctx *charm.Ctx, i0, i1 int) {
			ctx.Read(data+charm.Addr((i0%63)*1024), 1024)
			ctx.Compute(20_000)
			completed.Add(1)
		})
		r.makespan += st.Makespan
		r.tasks += st.Tasks
	}
	r.completed = completed.Load()
	snap := rt.MetricsSnapshot()
	if s := snap.Find("charm_fault_migrations_total", nil); s != nil {
		r.rehomes = s.Value
	}
	if s := snap.Find("charm_fault_parks_total", nil); s != nil {
		r.parks = s.Value
	}
	if s := snap.Find("charm_fault_reenqueues_total", nil); s != nil {
		r.reenq = s.Value
	}
	r.pmu = rt.Machine().PMU.Snapshot()
	return r
}

// chaosRun builds a runtime for sys on topo and runs the workload under the
// given fault schedule (nil = healthy machine).
func (o Options) chaosRun(topo *charm.Topology, sys charm.System, workers int, sched *charm.FaultSchedule) chaosResult {
	rt := o.start(charm.Config{
		Topology:       topo,
		Workers:        workers,
		System:         sys,
		SchedulerTimer: o.SchedulerTimer,
		Faults:         sched,
	})
	rt.EnableMetrics(true)
	defer rt.Finalize()
	return chaosWorkload(rt)
}

// chaosExpected is the per-phase task count × phases of chaosWorkload.
const chaosExpected = 3 * 96

// Chaos regenerates the fault-injection survival experiment. Scenario A
// (rows "<system>"): 16 workers fill a 16-chiplet machine; chiplets 3 and
// 11 go offline at 25% of each system's healthy makespan and never return.
// Scenario B (rows "spare-<system>"): 8 workers on a 32-core machine with
// idle chiplets; CHARM re-homes the offlined workers onto spare cores while
// a static placement parks them. The repro column re-runs CHARM's faulty
// scenario and compares Stats and full PMU state byte for byte.
func (o Options) Chaos() *Table {
	o.Faults = "" // the scenarios below are the schedules
	tab := &Table{
		ID:    "chaos",
		Title: "Fault injection: 2/16 chiplets offline mid-run, CHARM vs baselines",
		Header: []string{"system", "healthy_us", "faulty_us", "ratio",
			"completed", "lost", "rehomes", "parks", "reenq", "repro"},
		Notes: "every system completes all tasks; makespan grows ~proportionally " +
			"to lost capacity (16→14 cores ≈ 1.1x); with spare cores CHARM's " +
			"re-homing stays near 1x while static placements lose the workers; " +
			"identical seeds reproduce byte-for-byte",
	}

	systems := []charm.System{
		charm.SystemCHARM, charm.SystemRING, charm.SystemSHOAL,
		charm.SystemAsymSched, charm.SystemSAM,
	}

	// Scenario A: no spare capacity (16 workers on 16 single-core chiplets).
	topoA := func() *charm.Topology { return topology.Synthetic(16, 1) }
	for _, sys := range systems {
		healthy := o.chaosRun(topoA(), sys, 16, nil)
		sched := chaosSchedule(healthy.makespan / 4)
		faulty := o.chaosRun(topoA(), sys, 16, sched)
		repro := "-"
		if sys == charm.SystemCHARM {
			again := o.chaosRun(topoA(), sys, 16, sched)
			repro = "no"
			if again.makespan == faulty.makespan && again.tasks == faulty.tasks &&
				reflect.DeepEqual(again.pmu, faulty.pmu) {
				repro = "yes"
			}
		}
		tab.Rows = append(tab.Rows, chaosRow(string(sys), healthy, faulty, repro))
	}

	// Scenario B: spare capacity (8 workers, 16 chiplets × 2 cores).
	topoB := func() *charm.Topology { return topology.Synthetic(16, 2) }
	for _, sys := range []charm.System{charm.SystemCHARM, charm.SystemRING} {
		healthy := o.chaosRun(topoB(), sys, 8, nil)
		sched := chaosSchedule(healthy.makespan / 4)
		faulty := o.chaosRun(topoB(), sys, 8, sched)
		tab.Rows = append(tab.Rows, chaosRow("spare-"+string(sys), healthy, faulty, "-"))
	}
	return tab
}

// chaosSchedule offlines chiplets 3 and 11 from `from` onward, forever.
func chaosSchedule(from int64) *charm.FaultSchedule {
	if from < 1 {
		from = 1
	}
	return charm.NewFaultSchedule("chaos-2of16", 1).
		OfflineChiplet(3, from, 0).
		OfflineChiplet(11, from, 0)
}

func chaosRow(name string, healthy, faulty chaosResult, repro string) []string {
	ratio := float64(faulty.makespan) / float64(healthy.makespan)
	return []string{
		name,
		f1(float64(healthy.makespan) / 1000),
		f1(float64(faulty.makespan) / 1000),
		f2(ratio) + "x",
		i64(faulty.completed),
		i64(chaosExpected - faulty.completed),
		i64(int64(faulty.rehomes)),
		i64(int64(faulty.parks)),
		i64(int64(faulty.reenq)),
		repro,
	}
}
