package core

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"charm/internal/admit"
	"charm/internal/power"
	"charm/internal/sim"
	"charm/internal/topology"
)

// BenchmarkEngine gates the engine fast path (fastpath.go): each pair runs
// the identical workload with the optimization on and off, so the recorded
// BENCH_engine.json carries its own before/after. The access pair is the
// per-access microbench the PR's >=1.5x target applies to; the task and
// coro pairs are about allocs/op (run with -benchmem). The turn rows are
// the lockstep baton's ns/turn record.
func BenchmarkEngine(b *testing.B) {
	// engineRT starts a runtime after applying setup, which may turn the
	// access fast path or pooling off to run the reference models.
	engineRT := func(b *testing.B, workers int, opts Options, setup ...func(*Runtime)) *Runtime {
		b.Helper()
		opts.Workers = workers
		opts.SchedulerTimer = 1 << 60
		m := sim.New(sim.Config{Topo: topology.AMDMilan7713x2().Scaled(256)})
		rt := NewRuntime(m, opts)
		for _, f := range setup {
			f(rt)
		}
		rt.Start()
		b.Cleanup(rt.Stop)
		return rt
	}

	// Hot-line reads on one worker: with batching each repeat is a compare
	// and an increment; without it each repeat walks the full machine
	// access path (placement lookup, cache probe, PMU, EWMA).
	access := func(b *testing.B, noBatch bool) {
		rt := engineRT(b, 1, Options{}, func(rt *Runtime) { rt.batch = !noBatch })
		a := rt.M.Space.AllocLocal(64, 0)
		rt.Run(func(ctx *Ctx) { ctx.Read(a, 64) }) // warm the line
		b.ResetTimer()
		rt.Run(func(ctx *Ctx) {
			for i := 0; i < b.N; i++ {
				ctx.Read(a, 64)
			}
		})
	}
	b.Run("access/batch", func(b *testing.B) { access(b, false) })
	b.Run("access/nobatch", func(b *testing.B) { access(b, true) })

	// Task lifecycle: spawn-execute-finish in rounds of 64 on one worker,
	// so every round after the first draws its task structs from the
	// free list a prior round refilled (the steady state of a spawn-heavy
	// workload). Pooling turns the per-task allocation into a list pop.
	task := func(b *testing.B, noPool bool) {
		rt := engineRT(b, 1, Options{}, func(rt *Runtime) { rt.pool = !noPool })
		rt.Run(func(ctx *Ctx) { // warm the pool
			for i := 0; i < 64; i++ {
				ctx.Spawn(func(c *Ctx) {})
			}
		})
		b.ResetTimer()
		for done := 0; done < b.N; done += 64 {
			n := 64
			if rest := b.N - done; rest < n {
				n = rest
			}
			rt.Run(func(ctx *Ctx) {
				for i := 0; i < n; i++ {
					ctx.Spawn(func(c *Ctx) {})
				}
			})
		}
	}
	b.Run("task/pool", func(b *testing.B) { task(b, false) })
	b.Run("task/nopool", func(b *testing.B) { task(b, true) })

	// Coroutine lifecycle: each op is one suspendable task (stack
	// dispatch, one yield-resume, terminal recycle). Pooling keeps the
	// stack suspended between tasks instead of creating one per task.
	coro := func(b *testing.B, noPool bool) {
		rt := engineRT(b, 1, Options{}, func(rt *Runtime) { rt.pool = !noPool })
		fns := make([]func(*Ctx), 256)
		for i := range fns {
			fns[i] = func(ctx *Ctx) {
				ctx.Compute(100)
				ctx.Yield()
			}
		}
		b.ResetTimer()
		for done := 0; done < b.N; done += len(fns) {
			n := len(fns)
			if rest := b.N - done; rest < n {
				n = rest
			}
			rt.submitWait(fns[:n], false, true)
		}
	}
	b.Run("coro/pool", func(b *testing.B) { coro(b, false) })
	b.Run("coro/nopool", func(b *testing.B) { coro(b, true) })

	// Lockstep baton: one op is one turn (ns/op = host ns per handoff).
	// Every worker yields in a loop, so each turn ends with the kernel
	// resuming another worker's coroutine.
	turn := func(b *testing.B, workers int) {
		rt := engineRT(b, workers, Options{Deterministic: true})
		per := (b.N + workers - 1) / workers
		b.ResetTimer()
		rt.AllDo(func(ctx *Ctx) {
			for i := 0; i < per; i++ {
				ctx.Yield()
			}
		})
	}
	b.Run("turn/16", func(b *testing.B) { turn(b, 16) })
	b.Run("turn/32", func(b *testing.B) { turn(b, 32) })

	// The same turns with host work between them, the way a workload takes
	// them: spin steps of plain arithmetic (1.25 ns each on the reference
	// host) before every Yield, on two Ps whatever -cpu says. Back-to-back yields keep a
	// second thread spinning in the Go scheduler, so a wake that goes
	// through it looks cheap in turn/16; with work between the yields that
	// thread has gone to sleep and every such wake is a futex. ns/op
	// includes the work.
	turnWork := func(b *testing.B, spin int) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
		const workers = 16
		rt := engineRT(b, workers, Options{Deterministic: true})
		per := (b.N + workers - 1) / workers
		var sink atomic.Uint64
		b.ResetTimer()
		rt.AllDo(func(ctx *Ctx) {
			x := uint64(ctx.Worker())
			for i := 0; i < per; i++ {
				for k := 0; k < spin; k++ {
					x = x*6364136223846793005 + 1442695040888963407
				}
				ctx.Yield()
			}
			sink.Add(x)
		})
	}
	b.Run("turn/16/work/2.5us", func(b *testing.B) { turnWork(b, 2_000) })
	b.Run("turn/16/work/10us", func(b *testing.B) { turnWork(b, 8_000) })

	// The no-wakeup path: fifteen of sixteen workers sit in a barrier, so
	// every grant scans the fleet, consults their predicates, and hands
	// the turn straight back to the one worker that yields.
	b.Run("turn/self", func(b *testing.B) {
		const workers = 16
		rt := engineRT(b, workers, Options{Deterministic: true})
		bar := rt.NewBarrier(workers)
		b.ResetTimer()
		rt.AllDo(func(ctx *Ctx) {
			if ctx.Worker() == 0 {
				for i := 0; i < b.N; i++ {
					ctx.Yield()
				}
			}
			ctx.Barrier(bar)
		})
	})

	// The idle stretch: a fleet with empty queues drifts toward an arrival
	// an hour of virtual time ahead, so every turn is an idle turn, played
	// inside an idle run (lockstep.idleRun). The power plane ticks every
	// 50 µs (25 rounds of 2 µs drifts), because with no boundary ahead the
	// closed form skips the whole hour at once: the run stops at each tick,
	// plays the rounds around it and skips the steady rounds between ticks.
	// The fleet paces itself; ns/op is the elapsed time over the turns
	// TurnStats counted, played and skipped alike. turn/idle/tick has eight
	// workers; turn/idle/tick/32 shows how the fleet size moves it.
	idle := func(b *testing.B, workers int) {
		rt := engineRT(b, workers, Options{Deterministic: true, Power: &power.Config{}})
		rt.ls.pause()
		_, err := rt.ServeJobs(JobServiceOptions{Source: &SpecSource{
			Arrivals: admit.NewTrace([]int64{3_600_000_000_000}),
			Gen:      func(int) JobSpec { return JobSpec{} },
		}})
		rt.ls.resume()
		if err != nil {
			b.Fatal(err)
		}
		turns := func() int64 { st := rt.TurnStats(); return st.Handoff + st.Inline + st.Self }
		start, t0 := turns(), time.Now()
		for turns()-start < int64(b.N) {
			yieldHost()
		}
		b.ReportMetric(float64(time.Since(t0).Nanoseconds())/float64(turns()-start), "ns/op")
	}
	b.Run("turn/idle/tick", func(b *testing.B) { idle(b, 8) })
	b.Run("turn/idle/tick/32", func(b *testing.B) { idle(b, 32) })
}
