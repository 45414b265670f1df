package core

import (
	"reflect"
	"sync/atomic"
	"testing"

	"charm/internal/fault"
	"charm/internal/mem"
	"charm/internal/obs"
	"charm/internal/pmu"
	"charm/internal/sim"
	"charm/internal/topology"
)

// compilePlan builds a fault plan for topo, failing the test on error.
func compilePlan(t *testing.T, s *fault.Schedule, topo *topology.Topology) *fault.Plan {
	t.Helper()
	p, err := s.Compile(topo)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return p
}

// faultActions returns how many fault-handling instants of each kind the
// tracer recorded.
func faultActions(rt *Runtime) map[obs.SpanKind]int {
	out := make(map[obs.SpanKind]int)
	for _, s := range faultSpans(rt.Tracer().Spans()) {
		out[s.Kind]++
	}
	return out
}

// TestOfflineRehome: CHARM workers whose chiplet is offlined must drain
// their queues, migrate to live cores, and finish every task.
func TestOfflineRehome(t *testing.T) {
	topo := topology.Synthetic(4, 2)
	m := sim.New(sim.Config{Topo: topo})
	plan := compilePlan(t, fault.New("rehome", 1).
		OfflineChiplet(0, 20_000, fault.Forever), topo)
	rt := NewRuntime(m, Options{Workers: 4, SchedulerTimer: 50_000, Faults: plan, Deterministic: true})
	rt.Start()
	defer rt.Stop()
	rt.EnableProfiler(true)

	var n atomic.Int64
	st := rt.ParallelFor(0, 64, 1, func(ctx *Ctx, i0, i1 int) {
		ctx.Compute(5_000)
		n.Add(1)
	})
	if n.Load() != 64 {
		t.Fatalf("completed %d of 64 tasks", n.Load())
	}
	if st.Tasks != 64 {
		t.Errorf("Stats.Tasks = %d, want 64", st.Tasks)
	}
	acts := faultActions(rt)
	if acts[obs.SpanRehome] == 0 {
		t.Errorf("no SpanRehome recorded; actions = %v", acts)
	}
	// The re-homed workers must sit on live cores.
	now := rt.MaxWorkerClock()
	for _, w := range rt.workers {
		if plan.CoreDown(w.Core(), now) {
			t.Errorf("worker %d still on dead core %d", w.id, w.Core())
		}
	}
}

// TestOfflineParkAndResume: a policy without Rehomer parks the offlined
// worker and resumes it when the core revives; no task is lost either way.
// The run is Deterministic: free-running, the host could let the three live
// workers finish the phase before virtual time reached the revival at
// 150 µs, and no fcResume was recorded.
func TestOfflineParkAndResume(t *testing.T) {
	topo := topology.Synthetic(2, 2)
	m := sim.New(sim.Config{Topo: topo})
	plan := compilePlan(t, fault.New("park", 1).
		OfflineCore(0, 20_000, 150_000), topo)
	rt := NewRuntime(m, Options{
		Workers: 4, SchedulerTimer: 50_000, Faults: plan,
		Policy: NewStaticPolicy(Compact), Deterministic: true,
	})
	rt.Start()
	defer rt.Stop()
	rt.EnableProfiler(true)

	var n atomic.Int64
	rt.ParallelFor(0, 128, 1, func(ctx *Ctx, i0, i1 int) {
		ctx.Compute(5_000)
		n.Add(1)
	})
	if n.Load() != 128 {
		t.Fatalf("completed %d of 128 tasks", n.Load())
	}
	acts := faultActions(rt)
	if acts[obs.SpanPark] == 0 {
		t.Errorf("no SpanPark recorded; actions = %v", acts)
	}
	if acts[obs.SpanResume] == 0 {
		t.Errorf("no SpanResume recorded; actions = %v", acts)
	}
	if acts[obs.SpanRehome] != 0 {
		t.Errorf("static policy must not re-home; actions = %v", acts)
	}
}

// TestSubmitReroutesAroundDeadCores: work submitted while a worker's core
// is offline lands on live workers instead of queueing on a parked one.
func TestSubmitReroutesAroundDeadCores(t *testing.T) {
	topo := topology.Synthetic(2, 2)
	m := sim.New(sim.Config{Topo: topo})
	plan := compilePlan(t, fault.New("reroute", 1).
		OfflineCore(0, 0, fault.Forever), topo)
	rt := NewRuntime(m, Options{
		Workers: 4, SchedulerTimer: 50_000, Faults: plan,
		Policy:        NewStaticPolicy(Compact),
		Deterministic: true,
	})
	rt.Start()
	defer rt.Stop()
	var n atomic.Int64
	rt.ParallelFor(0, 32, 1, func(ctx *Ctx, i0, i1 int) {
		if ctx.CoreID() == 0 {
			t.Error("task executed on the dead core")
		}
		n.Add(1)
	})
	if n.Load() != 32 {
		t.Fatalf("completed %d of 32 tasks", n.Load())
	}
}

// faultDetRun executes one deterministic run under a seeded fault schedule
// and returns its observable outputs for bit-identical comparison.
func faultDetRun(t *testing.T) (Stats, pmu.Snapshot) {
	topo := topology.Synthetic(4, 2)
	m := sim.New(sim.Config{Topo: topo})
	sched := fault.New("det", 7).
		OfflineChiplet(1, 30_000, 400_000).
		LinkBrownout(2, 10_000, 500_000, 8).
		MemBrownout(0, 0, fault.Forever, 2).
		ThermalThrottle(3, 50_000, 300_000, 3)
	plan := compilePlan(t, sched, topo)
	rt := NewRuntime(m, Options{
		Workers: 8, SchedulerTimer: 50_000,
		Faults: plan, Deterministic: true,
	})
	rt.Start()
	defer rt.Stop()

	// Background stress: concurrent observers exercising the same atomics
	// the workers write, so -race sees the cross-thread traffic (the PR 2
	// access-stress pattern). Observers never mutate state, so they cannot
	// perturb the schedule.
	stop := make(chan struct{})
	obsDone := make(chan struct{})
	go func() {
		defer close(obsDone)
		for {
			select {
			case <-stop:
				return
			default:
				_ = rt.MaxWorkerClock()
				_ = rt.LiveTasks()
				_ = rt.M.PMU.Total(pmu.TaskRun)
				yieldHost()
			}
		}
	}()

	addr := rt.Alloc(1<<16, 0)
	var total Stats
	for phase := 0; phase < 3; phase++ {
		st := rt.ParallelFor(0, 48, 2, func(ctx *Ctx, i0, i1 int) {
			for i := i0; i < i1; i++ {
				ctx.Read(addr+mem.Addr(i%256)*256, 256)
				ctx.Compute(2_000)
				ctx.Write(addr+mem.Addr(i%256)*256, 64)
			}
		})
		total.Makespan += st.Makespan
		total.Tasks += st.Tasks
		total.Steals += st.Steals
		total.RemoteSteals += st.RemoteSteals
		total.Migrations += st.Migrations
	}
	close(stop)
	<-obsDone
	return total, rt.M.PMU.Snapshot()
}

// TestFaultDeterminism: the same seed and fault schedule must produce
// bit-identical Stats and PMU counters across independent runs (run under
// -race by make verify).
func TestFaultDeterminism(t *testing.T) {
	st1, pm1 := faultDetRun(t)
	st2, pm2 := faultDetRun(t)
	if st1 != st2 {
		t.Errorf("Stats differ across identical runs:\n  run1 %+v\n  run2 %+v", st1, st2)
	}
	if !reflect.DeepEqual(pm1, pm2) {
		t.Error("PMU counters differ across identical runs")
	}
	if st1.Tasks != 3*24 {
		t.Errorf("Stats.Tasks = %d, want 72", st1.Tasks)
	}
}
