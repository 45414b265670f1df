package core

import (
	"reflect"
	"sync/atomic"
	"testing"

	"charm/internal/fault"
	"charm/internal/mem"
	"charm/internal/pmu"
	"charm/internal/sim"
	"charm/internal/topology"
)

// Tests for the engine fast path (fastpath.go): the placement cache and
// access batching must be invisible in every simulated observable, and the
// task/coroutine pools must never leak state across recycled structs.

// fastRun executes one deterministic run with the given fast-path knobs and
// returns its observable outputs. The workload is built to cross every
// fast-path boundary: long same-line repeat runs (batching) that straddle
// thermal step-function edges (the replay fallback), oversubscribed workers
// (occupancy inflation, cached), steals (placement-epoch invalidation),
// coroutine yields, barriers, clock reads, and delegation
// (every flush-point flavor).
func fastRun(t *testing.T, workers int, oversub, noBatch, noPool bool) (Stats, pmu.Snapshot, int64) {
	t.Helper()
	topo := topology.Synthetic(4, 2)
	m := sim.New(sim.Config{Topo: topo})
	sched := fault.New("fastpath", 3).
		ThermalThrottle(0, 40_000, 900_000, 2.5).
		ThermalThrottle(2, 120_000, 600_000, 4)
	plan := compilePlan(t, sched, topo)
	rt := NewRuntime(m, Options{
		Workers: workers, Oversubscribe: oversub, Deterministic: true,
		SchedulerTimer: 50_000, Faults: plan,
	})
	rt.batch, rt.pool = !noBatch, !noPool
	rt.Start()
	defer rt.Stop()

	addr := rt.Alloc(1<<16, 0)
	var total Stats
	add := func(st Stats) {
		total.Makespan += st.Makespan
		total.Tasks += st.Tasks
		total.Steals += st.Steals
		total.RemoteSteals += st.RemoteSteals
		total.Migrations += st.Migrations
	}

	// Phase 1: repeat-heavy plain tasks. The line stride keeps both sampled
	// and unsampled lines in play.
	add(rt.ParallelFor(0, 64, 2, func(ctx *Ctx, i0, i1 int) {
		for i := i0; i < i1; i++ {
			a := addr + mem.Addr(i%32)*64
			for r := 0; r < 200; r++ {
				ctx.Read(a, 64)
			}
			ctx.Compute(2_000)
			for r := 0; r < 100; r++ {
				ctx.Write(a, 8)
			}
			_ = ctx.Now() // clock read mid-run: forces a flush
		}
	}))

	// Phase 2: coroutines interleaving repeats with yields (suspension and
	// steal points between pending batches).
	add(rt.AllDoCo(func(ctx *Ctx) {
		a := addr + mem.Addr(ctx.CoreID())*64
		for round := 0; round < 4; round++ {
			for r := 0; r < 64; r++ {
				ctx.Read(a, 64)
			}
			ctx.Yield()
			for r := 0; r < 32; r++ {
				ctx.Write(a, 64)
			}
		}
	}))

	// Phase 2b: a barrier mid-repeat-run (barrier flush on plain tasks).
	bar := rt.NewBarrier(workers)
	add(rt.AllDo(func(ctx *Ctx) {
		a := addr + mem.Addr(ctx.CoreID())*64
		for round := 0; round < 3; round++ {
			for r := 0; r < 40; r++ {
				ctx.Read(a, 64)
			}
			ctx.Barrier(bar)
		}
	}))

	// Phase 3: spawn storm from one worker — the other eleven steal, so
	// pooled structs and pending batches cross placement changes.
	add(rt.Run(func(ctx *Ctx) {
		for i := 0; i < 96; i++ {
			i := i
			ctx.Spawn(func(c *Ctx) {
				a := addr + mem.Addr(i%32)*64
				for r := 0; r < 64; r++ {
					c.Read(a, 64)
				}
				c.Compute(1_500)
			})
		}
	}))

	// Phase 4: delegation — the RPC send is a flush point on the sender and
	// the delegated body batches on the owner.
	add(rt.Run(func(ctx *Ctx) {
		for i := 0; i < 16; i++ {
			ctx.Delegate(addr+mem.Addr(i)*mem.PageSize%(1<<16), func(c *Ctx) {
				for r := 0; r < 50; r++ {
					c.Read(addr, 64)
				}
			})
		}
	}))

	return total, rt.M.PMU.Snapshot(), rt.MaxWorkerClock()
}

// TestBatchingReplayBitIdentical: the acceptance gate for the fast path.
// Runs with batching and pooling disabled in every combination must be
// bit-identical to the fast-path run — Stats, all PMU counters on all
// cores, and the final worker clocks. Two machine shapes: "balanced"
// exercises steals and retries; "oversubscribed" exercises the cached
// occupancy-inflation factors (two workers timesharing some cores).
func TestBatchingReplayBitIdentical(t *testing.T) {
	configs := []struct {
		name    string
		workers int
		oversub bool
	}{
		{"balanced", 8, false},
		{"oversubscribed", 12, true},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			base, basePMU, baseClk := fastRun(t, cfg.workers, cfg.oversub, false, false)
			if base.Tasks == 0 {
				t.Fatalf("workload too tame to be a gate: %+v", base)
			}
			if !cfg.oversub && base.Steals == 0 {
				t.Fatalf("balanced workload recorded no steals: %+v", base)
			}
			for _, tc := range []struct {
				name            string
				noBatch, noPool bool
			}{
				{"nobatch", true, false},
				{"nopool", false, true},
				{"nobatch-nopool", true, true},
			} {
				st, pm, clk := fastRun(t, cfg.workers, cfg.oversub, tc.noBatch, tc.noPool)
				if st != base {
					t.Errorf("%s: Stats diverge:\n  fast %+v\n  %s %+v", tc.name, base, tc.name, st)
				}
				if !reflect.DeepEqual(pm, basePMU) {
					t.Errorf("%s: PMU counters diverge", tc.name)
				}
				if clk != baseClk {
					t.Errorf("%s: final clock %d, fast path %d", tc.name, clk, baseClk)
				}
			}
		})
	}
}

// TestBatchFlushOnThermalEdge: a repeat run deliberately started just
// before a thermal step must charge exactly the unbatched cost — the
// replay-fallback path — not the flat pre-step cost for the whole batch.
func TestBatchFlushOnThermalEdge(t *testing.T) {
	run := func(noBatch bool) int64 {
		topo := topology.Synthetic(1, 1)
		m := sim.New(sim.Config{Topo: topo})
		sched := fault.New("edge", 1).ThermalThrottle(0, 500, fault.Forever, 3)
		plan := compilePlan(t, sched, topo)
		rt := NewRuntime(m, Options{
			Workers: 1, Deterministic: true, SchedulerTimer: 1 << 60,
			Faults: plan,
		})
		rt.batch = !noBatch
		rt.Start()
		defer rt.Stop()
		a := rt.Alloc(64, 0)
		rt.Run(func(ctx *Ctx) {
			// The seed access lands before t=500; the 300 repeats cross it.
			for r := 0; r < 301; r++ {
				ctx.Read(a, 64)
			}
		})
		return rt.MaxWorkerClock()
	}
	fast, slow := run(false), run(true)
	if fast != slow {
		t.Fatalf("clock across thermal edge: batched %d, unbatched %d", fast, slow)
	}
}

// TestPooledReuseStress hammers task-struct and coroutine-stack recycling
// under the adversarial lifecycle mix — cross-worker steals of pooled
// structs and job cancellation unwinding suspended coroutines — in
// parallel (non-lockstep) mode. make verify runs
// this under -race, which is the actual assertion: any stale pointer or
// unsynchronized recycle shows up as a race or a torn task.
func TestPooledReuseStress(t *testing.T) {
	topo := topology.Synthetic(4, 2)
	m := sim.New(sim.Config{Topo: topo})
	rt := NewRuntime(m, Options{Workers: 8, Deterministic: true})
	rt.Start()
	defer rt.Stop()
	addr := rt.Alloc(1<<12, 0)

	for round := 0; round < 4; round++ {
		// Steal storm: all tasks spawned from one worker, so seven thieves
		// pull recycled structs out of a foreign pool.
		var ran atomic.Int64
		rt.Run(func(ctx *Ctx) {
			for i := 0; i < 256; i++ {
				i := i
				ctx.Spawn(func(c *Ctx) {
					c.Read(addr+mem.Addr(i%16)*64, 64)
					c.Compute(500)
					ran.Add(1)
				})
			}
		})
		if got := ran.Load(); got != 256 {
			t.Fatalf("round %d: %d of 256 spawned tasks ran", round, got)
		}

		// Cancellation storm: coroutine jobs cancelled mid-flight must
		// unwind at Yield and recycle their stacks while the surviving
		// jobs keep completing from the same pools.
		jobs := make([]*Job, 8)
		for i := range jobs {
			stage := make(JobStage, 8)
			for k := range stage {
				stage[k] = func(c *Ctx) {
					for y := 0; y < 4; y++ {
						c.Compute(300)
						c.Yield()
					}
				}
			}
			j, err := rt.SubmitJob(JobSpec{Coro: true, Stages: []JobStage{stage}})
			if err != nil {
				t.Fatal(err)
			}
			jobs[i] = j
			if i%2 == 1 {
				j.Cancel()
			}
		}
		for i, j := range jobs {
			<-j.Done()
			st := j.State()
			if i%2 == 1 {
				if st != JobCancelled && st != JobCompleted {
					t.Fatalf("round %d: cancelled job %d ended %v", round, i, st)
				}
			} else if st != JobCompleted {
				t.Fatalf("round %d: job %d ended %v, want completed", round, i, st)
			}
		}
	}
}

// TestPoolRecycleZeroed: a recycled task struct must carry nothing over
// from its previous life — run a first wave that sets every optional field
// (pinned delegated tasks and coroutine tasks), then a second wave of
// plain tasks from the same pools and check their observable behavior.
func TestPoolRecycleZeroed(t *testing.T) {
	topo := topology.Synthetic(2, 2)
	m := sim.New(sim.Config{Topo: topo})
	rt := NewRuntime(m, Options{Workers: 4, Deterministic: true})
	rt.Start()
	defer rt.Stop()
	addr := rt.Alloc(1<<12, 0)

	// Wave 1: delegated work (pinned, hops, delegated flags) and
	// coroutines (stacks).
	rt.Run(func(ctx *Ctx) {
		for i := 0; i < 32; i++ {
			ctx.DelegateAsync(addr+mem.Addr(i%8)*mem.PageSize%(1<<12), func(c *Ctx) {
				c.Compute(200)
			})
		}
	})
	rt.AllDoCo(func(ctx *Ctx) { ctx.Yield(); ctx.Compute(100) })

	// Wave 2: plain spawns drawing from the now-populated pools. Any field
	// leaking from wave 1 (a stale group, a stale coroutine pointer, a
	// pinned or delegated flag) breaks completion or steal accounting.
	var ran atomic.Int64
	st := rt.ParallelFor(0, 64, 1, func(ctx *Ctx, i0, i1 int) {
		ctx.Read(addr, 64)
		ran.Add(1)
	})
	if ran.Load() != 64 || st.Tasks != 64 {
		t.Fatalf("wave 2: ran %d tasks, stats %+v", ran.Load(), st)
	}
}
