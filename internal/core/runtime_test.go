package core

import (
	"sync/atomic"
	"testing"

	"charm/internal/mem"
	"charm/internal/pmu"
	"charm/internal/sim"
	"charm/internal/topology"
)

func newTestRT(t *testing.T, workers int, opts ...func(*Options)) *Runtime {
	t.Helper()
	m := sim.New(sim.Config{Topo: topology.SyntheticDual(2, 4)})
	o := Options{Workers: workers, SchedulerTimer: 50_000}
	for _, f := range opts {
		f(&o)
	}
	o.Deterministic = true
	rt := NewRuntime(m, o)
	rt.Start()
	t.Cleanup(rt.Stop)
	return rt
}

func TestRunExecutesRoot(t *testing.T) {
	rt := newTestRT(t, 4)
	var ran atomic.Bool
	st := rt.Run(func(ctx *Ctx) {
		ctx.Compute(1000)
		ran.Store(true)
	})
	if !ran.Load() {
		t.Fatal("root task did not run")
	}
	if st.Makespan < 1000 {
		t.Errorf("makespan = %d, want >= 1000", st.Makespan)
	}
	if st.Tasks != 1 {
		t.Errorf("tasks = %d, want 1", st.Tasks)
	}
}

func TestNewRuntimeValidation(t *testing.T) {
	m := sim.New(sim.Config{Topo: topology.Synthetic(2, 2)})
	mustPanic(t, "zero workers", func() { NewRuntime(m, Options{Workers: 0, Deterministic: true}) })
	mustPanic(t, "too many workers", func() { NewRuntime(m, Options{Workers: 100, Deterministic: true}) })
	// Oversubscribe lifts the cap.
	rt := NewRuntime(m, Options{Workers: 100, Oversubscribe: true, Deterministic: true})
	if rt.Workers() != 100 {
		t.Errorf("Workers = %d, want 100", rt.Workers())
	}
	mustPanic(t, "double start", func() {
		rt2 := NewRuntime(m, Options{Workers: 1, Deterministic: true})
		rt2.Start()
		defer rt2.Stop()
		rt2.Start()
	})
}

func TestSubmitBeforeStartPanics(t *testing.T) {
	m := sim.New(sim.Config{Topo: topology.Synthetic(2, 2)})
	rt := NewRuntime(m, Options{Workers: 2, Deterministic: true})
	mustPanic(t, "run before start", func() { rt.Run(func(*Ctx) {}) })
}

func TestAllDoRunsOncePerWorker(t *testing.T) {
	rt := newTestRT(t, 6)
	var hits [8]atomic.Int64
	st := rt.AllDo(func(ctx *Ctx) {
		hits[ctx.Worker()].Add(1)
		ctx.Compute(100)
	})
	if st.Tasks != 6 {
		t.Errorf("tasks = %d, want 6", st.Tasks)
	}
	for i := 0; i < 6; i++ {
		if hits[i].Load() != 1 {
			t.Errorf("worker %d ran %d times, want 1", i, hits[i].Load())
		}
	}
}

func TestParallelForCoversRange(t *testing.T) {
	rt := newTestRT(t, 4)
	var covered [1000]atomic.Int32
	rt.ParallelFor(0, 1000, 7, func(ctx *Ctx, i0, i1 int) {
		for i := i0; i < i1; i++ {
			covered[i].Add(1)
		}
		ctx.Compute(10)
	})
	for i := range covered {
		if covered[i].Load() != 1 {
			t.Fatalf("index %d covered %d times", i, covered[i].Load())
		}
	}
}

func TestParallelForEmptyAndGrainClamp(t *testing.T) {
	rt := newTestRT(t, 2)
	st := rt.ParallelFor(5, 5, 10, func(ctx *Ctx, i0, i1 int) {
		t.Error("body must not run for empty range")
	})
	if st.Tasks != 0 {
		t.Errorf("tasks = %d, want 0", st.Tasks)
	}
	var n atomic.Int64
	rt.ParallelFor(0, 3, 0, func(ctx *Ctx, i0, i1 int) { n.Add(int64(i1 - i0)) })
	if n.Load() != 3 {
		t.Errorf("grain 0 covered %d, want 3", n.Load())
	}
}

func TestSpawnRecursive(t *testing.T) {
	rt := newTestRT(t, 4)
	var count atomic.Int64
	rt.Run(func(ctx *Ctx) {
		for i := 0; i < 10; i++ {
			ctx.Spawn(func(c2 *Ctx) {
				count.Add(1)
				c2.Spawn(func(c3 *Ctx) { count.Add(1) })
			})
		}
	})
	if count.Load() != 20 {
		t.Errorf("spawned tasks = %d, want 20", count.Load())
	}
}

func TestWorkStealingDistributes(t *testing.T) {
	rt := newTestRT(t, 4)
	var perWorker [4]atomic.Int64
	// All tasks spawn from the root on one worker; stealing must spread
	// them.
	rt.Run(func(ctx *Ctx) {
		for i := 0; i < 200; i++ {
			ctx.Spawn(func(c *Ctx) {
				perWorker[c.Worker()].Add(1)
				c.Compute(10_000)
			})
		}
	})
	busy := 0
	for i := range perWorker {
		if perWorker[i].Load() > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Errorf("only %d workers participated; stealing failed", busy)
	}
	if got := rt.M.PMU.Total(pmu.TaskSteal); got == 0 {
		t.Error("no steals recorded")
	}
}

func TestVirtualTimeAdvances(t *testing.T) {
	rt := newTestRT(t, 2)
	st1 := rt.Run(func(ctx *Ctx) { ctx.Compute(5000) })
	start2 := rt.Now()
	if start2 < 5000 {
		t.Errorf("phase clock = %d, want >= 5000", start2)
	}
	st2 := rt.Run(func(ctx *Ctx) { ctx.Compute(700) })
	if st2.Makespan < 700 {
		t.Errorf("second phase makespan = %d", st2.Makespan)
	}
	_ = st1
}

func TestMemoryAccessChargesClock(t *testing.T) {
	rt := newTestRT(t, 1)
	a := rt.Alloc(1<<16, 0)
	st := rt.Run(func(ctx *Ctx) {
		ctx.Read(a, 1<<16)
	})
	// 1024 lines of cold DRAM reads pipeline with MLP=8 but still cost
	// far more than L2 hits.
	if st.Makespan < 1024*rt.M.Topo.Cost.DRAMLocal/16 {
		t.Errorf("makespan = %d, too cheap for cold reads", st.Makespan)
	}
	if st.Makespan > 1024*rt.M.Topo.Cost.DRAMLocal*2 {
		t.Errorf("makespan = %d, streaming reads failed to pipeline", st.Makespan)
	}
}

func TestCtxAllocBindsToWorkerNode(t *testing.T) {
	rt := newTestRT(t, 8) // 8 workers over 2 sockets (4 cores each)
	var addrs [8]mem.Addr
	rt.AllDo(func(ctx *Ctx) {
		addrs[ctx.Worker()] = ctx.Alloc(mem.PageSize)
	})
	for w := 0; w < 8; w++ {
		wantNode := rt.M.Topo.NodeOfCore(rt.CoreOfWorker(w))
		if got := rt.M.Space.HomeOf(addrs[w], 0); got != wantNode {
			t.Errorf("worker %d alloc homed on %d, want %d", w, got, wantNode)
		}
	}
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	rt := newTestRT(t, 4)
	b := rt.NewBarrier(4)
	var after [4]int64
	rt.AllDo(func(ctx *Ctx) {
		// Unequal work before the barrier.
		ctx.Compute(int64(ctx.Worker()+1) * 10_000)
		ctx.Barrier(b)
		after[ctx.Worker()] = ctx.Now()
	})
	for w := 1; w < 4; w++ {
		if after[w] != after[0] {
			t.Errorf("worker %d left barrier at %d, worker 0 at %d", w, after[w], after[0])
		}
	}
	if after[0] < 40_000 {
		t.Errorf("barrier release %d < slowest worker's 40000", after[0])
	}
}

func TestBarrierValidation(t *testing.T) {
	rt := newTestRT(t, 2)
	mustPanic(t, "zero parties", func() { rt.NewBarrier(0) })
}

func TestCallAsyncRunsOnTarget(t *testing.T) {
	rt := newTestRT(t, 4)
	var ranOn atomic.Int64
	ranOn.Store(-1)
	rt.Run(func(ctx *Ctx) {
		ctx.CallAsync(3, func(c *Ctx) {
			ranOn.Store(int64(c.Worker()))
		})
	})
	if ranOn.Load() != 3 {
		t.Errorf("CallAsync ran on worker %d, want 3", ranOn.Load())
	}
}

func TestCallSyncAdvancesCallerClock(t *testing.T) {
	rt := newTestRT(t, 4)
	var callerAfter int64
	rt.Run(func(ctx *Ctx) {
		before := ctx.Now()
		ctx.Call(2, func(c *Ctx) { c.Compute(50_000) })
		callerAfter = ctx.Now() - before
	})
	if callerAfter < 50_000 {
		t.Errorf("caller advanced %d, want >= callee's 50000", callerAfter)
	}
}

func TestCallSelfRunsInline(t *testing.T) {
	rt := newTestRT(t, 2)
	var ok atomic.Bool
	rt.Run(func(ctx *Ctx) {
		self := ctx.Worker()
		ctx.Call(self, func(c *Ctx) { ok.Store(c.Worker() == self) })
	})
	if !ok.Load() {
		t.Error("self Call must run inline on the same worker")
	}
}

func TestCallValidation(t *testing.T) {
	rt := newTestRT(t, 2)
	rt.Run(func(ctx *Ctx) {
		mustPanic(t, "bad target", func() { ctx.Call(99, func(*Ctx) {}) })
		mustPanic(t, "bad async target", func() { ctx.CallAsync(-1, func(*Ctx) {}) })
	})
}

func TestCoroutineYieldAndResume(t *testing.T) {
	rt := newTestRT(t, 2)
	var order []int
	st := rt.submitWait([]func(*Ctx){func(ctx *Ctx) {
		order = append(order, 1)
		ctx.Yield()
		order = append(order, 2)
		ctx.Yield()
		order = append(order, 3)
	}}, false, true)
	if len(order) != 3 || order[0] != 1 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if st.Tasks != 1 {
		t.Errorf("tasks = %d, want 1", st.Tasks)
	}
	if got := rt.M.PMU.Total(pmu.CtxSwitch); got < 3 {
		t.Errorf("ctx switches = %d, want >= 3 (start + 2 resumes)", got)
	}
}

func TestCoroutineMigratesAcrossWorkers(t *testing.T) {
	rt := newTestRT(t, 4)
	// One coroutine yields many times while other workers are idle and
	// hungry; it should eventually be stolen and resumed elsewhere.
	seen := map[int]bool{}
	rt.submitWait([]func(*Ctx){func(ctx *Ctx) {
		for i := 0; i < 400; i++ {
			seen[ctx.Worker()] = true
			ctx.Compute(100)
			ctx.Yield()
		}
	}}, false, true)
	if len(seen) < 2 {
		t.Logf("coroutine stayed on one worker (valid but unexpected under idle thieves): %v", seen)
	}
}

func TestLightTaskYieldIsTickPoint(t *testing.T) {
	rt := newTestRT(t, 1)
	rt.Run(func(ctx *Ctx) {
		ctx.Compute(200_000) // well past the 50µs timer
		ctx.Yield()          // must trigger the policy timer, not suspend
	})
	// CHARM policy ran at least once: profiler would have data if enabled;
	// instead check the decision state advanced.
	w := rt.Worker(0)
	if w.lastDecision == 0 {
		t.Error("light-task Yield did not run the scheduler timer")
	}
}

func TestOversubscriptionInflatesCost(t *testing.T) {
	m := sim.New(sim.Config{Topo: topology.Synthetic(1, 2)})
	// 6 workers on 2 cores: occupancy 3 per core.
	rt := NewRuntime(m, Options{Workers: 6, Oversubscribe: true, SchedulerTimer: 1 << 60,
		Policy: NewStaticPolicy(Compact), Deterministic: true})
	rt.Start()
	defer rt.Stop()
	st := rt.AllDo(func(ctx *Ctx) { ctx.Compute(1000) })
	if st.Makespan < 3000 {
		t.Errorf("makespan = %d, want >= 3000 under 3x occupancy", st.Makespan)
	}
}

func TestRunStatsCounts(t *testing.T) {
	rt := newTestRT(t, 2)
	st := rt.ParallelFor(0, 100, 1, func(ctx *Ctx, i0, i1 int) { ctx.Compute(10) })
	if st.Tasks != 100 {
		t.Errorf("tasks = %d, want 100", st.Tasks)
	}
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}

func TestUseSMTAllowsSiblings(t *testing.T) {
	m := sim.New(sim.Config{Topo: func() *topology.Topology {
		tp := topology.Synthetic(2, 2) // 4 physical cores
		tp.SMTWays = 2
		return tp
	}()})
	mustPanic(t, "8 workers without SMT", func() {
		NewRuntime(m, Options{Workers: 8, Deterministic: true})
	})
	rt := NewRuntime(m, Options{Workers: 8, UseSMT: true,
		Policy: NewStaticPolicy(Compact), SchedulerTimer: 1 << 60, Deterministic: true})
	rt.Start()
	defer rt.Stop()
	// 8 workers on 4 cores: SMT siblings each run ~1.4x slower, so the
	// makespan of per-worker compute sits between the dedicated-core time
	// and full serialization.
	st := rt.AllDo(func(ctx *Ctx) { ctx.Compute(10_000) })
	if st.Makespan < 14_000 {
		t.Errorf("SMT makespan %d, want >= 14000 (1.4x contention)", st.Makespan)
	}
	if st.Makespan > 20_000*2 {
		t.Errorf("SMT makespan %d, want < 40000 (not fully serialized)", st.Makespan)
	}
}

func TestSMTSiblingsShareL2(t *testing.T) {
	// Each worker streams its own 6 KiB block through an 8 KiB L2.
	// With dedicated cores the block fits and re-reads hit L2; with two
	// SMT siblings per core 12 KiB contend for 8 KiB, so the L2 hit
	// fraction must drop.
	l2Fraction := func(workers int, smt bool) float64 {
		tp := topology.Synthetic(1, 2) // 2 cores, 8 KiB L2 each
		tp.SMTWays = 2
		m := sim.New(sim.Config{Topo: tp})
		rt := NewRuntime(m, Options{Workers: workers, UseSMT: smt,
			Policy: NewStaticPolicy(Compact), SchedulerTimer: 1 << 60, Deterministic: true})
		rt.Start()
		defer rt.Stop()
		blocks := make([]mem.Addr, workers)
		for i := range blocks {
			blocks[i] = rt.Alloc(6<<10, 0)
		}
		rt.AllDo(func(ctx *Ctx) {
			for r := 0; r < 20; r++ {
				ctx.Read(blocks[ctx.Worker()], 6<<10)
				ctx.Yield()
			}
		})
		l2 := float64(m.PMU.Total(pmu.FillL2))
		l3 := float64(m.PMU.Total(pmu.FillL3Local))
		return l2 / (l2 + l3 + 1)
	}
	dedicated := l2Fraction(2, false)
	shared := l2Fraction(4, true)
	if shared >= dedicated {
		t.Errorf("shared-L2 hit fraction %.3f must be below dedicated %.3f", shared, dedicated)
	}
}

func TestCallAsyncChargesSender(t *testing.T) {
	rt := newTestRT(t, 4)
	var delta int64
	rt.Run(func(ctx *Ctx) {
		before := ctx.Now()
		for i := 0; i < 10; i++ {
			ctx.CallAsync(3, func(*Ctx) {})
		}
		delta = ctx.Now() - before
	})
	want := 10 * rt.M.Topo.Cost.StealPenalty
	if delta < want {
		t.Errorf("sender advanced %d, want >= %d (message issue cost)", delta, want)
	}
}
