package core

import (
	"testing"

	"charm/internal/mem"
	"charm/internal/obs"
	"charm/internal/sim"
	"charm/internal/topology"
)

// Microbenchmarks of the runtime primitives: these report both host ns/op
// (simulator efficiency) and the primitive's virtual cost as a custom
// metric (cost-model validation).

func benchRT(b *testing.B, workers int) *Runtime {
	b.Helper()
	m := sim.New(sim.Config{Topo: topology.AMDMilan7713x2().Scaled(256)})
	rt := NewRuntime(m, Options{Workers: workers, SchedulerTimer: 1 << 60})
	rt.Start()
	b.Cleanup(rt.Stop)
	return rt
}

func BenchmarkTaskSpawnExecute(b *testing.B) {
	rt := benchRT(b, 8)
	start := rt.Now()
	b.ResetTimer()
	rt.ParallelFor(0, b.N, 64, func(ctx *Ctx, i0, i1 int) {})
	b.StopTimer()
	tasks := float64((b.N + 63) / 64)
	// Fleet-parallel: makespan covers tasks/8 per worker.
	b.ReportMetric(float64(rt.Now()-start)/tasks*8, "virtual_ns/task")
}

// BenchmarkTaskSpawnExecuteMetrics measures the instrumentation overhead
// on the core task-throughput path: "off" is the always-on counter cost
// (registry disabled), "on" adds histogram observes, span recording, and
// periodic sampling. Compare against BenchmarkTaskSpawnExecute's ns/op.
func BenchmarkTaskSpawnExecuteMetrics(b *testing.B) {
	run := func(b *testing.B, metrics, profiler bool) {
		rt := benchRT(b, 8)
		rt.EnableMetrics(metrics)
		rt.EnableProfiler(profiler)
		b.ResetTimer()
		rt.ParallelFor(0, b.N, 64, func(ctx *Ctx, i0, i1 int) {})
	}
	b.Run("off", func(b *testing.B) { run(b, false, false) })
	b.Run("on", func(b *testing.B) { run(b, true, false) })
	b.Run("on+spans", func(b *testing.B) { run(b, true, true) })
}

// BenchmarkTracing measures causal-job-tracing overhead on the job
// admission/dispatch path: "off" is the cost of the disabled tracer (one
// atomic load per would-be span), "on" records admit-queue, stage, and
// per-task spans for every job. "emit" isolates the raw span-append cost.
func BenchmarkTracing(b *testing.B) {
	run := func(b *testing.B, on bool) {
		rt := benchRT(b, 8)
		rt.EnableTracing(on)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j, err := rt.SubmitJob(computeJob(4, 1_000, nil))
			if err != nil {
				b.Fatal(err)
			}
			<-j.Done()
		}
	}
	b.Run("off", func(b *testing.B) { run(b, false) })
	b.Run("on", func(b *testing.B) { run(b, true) })
	b.Run("emit", func(b *testing.B) {
		tr := obs.NewTracer(1, 1<<30)
		tr.SetEnabled(true)
		s := obs.Span{Trace: 1, Kind: obs.SpanTask, Start: 1, End: 2}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Start = int64(i)
			tr.Emit(0, s)
		}
	})
}

func BenchmarkCoroutineSwitch(b *testing.B) {
	rt := benchRT(b, 1)
	w := rt.Worker(0)
	before := w.Clock().Now()
	b.ResetTimer()
	rt.submitWait([]func(*Ctx){func(ctx *Ctx) {
		for i := 0; i < b.N; i++ {
			ctx.Yield()
		}
	}}, false, true)
	b.StopTimer()
	b.ReportMetric(float64(w.Clock().Now()-before)/float64(b.N), "virtual_ns/switch")
}

func BenchmarkMemoryReadCached(b *testing.B) {
	rt := benchRT(b, 1)
	a := rt.M.Space.AllocLocal(1<<12, 0)
	w := rt.Worker(0)
	rt.Run(func(ctx *Ctx) { ctx.Read(a, 1<<12) }) // warm
	before := w.Clock().Now()
	b.ResetTimer()
	rt.Run(func(ctx *Ctx) {
		for i := 0; i < b.N; i++ {
			ctx.Read(a, 64)
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(w.Clock().Now()-before)/float64(b.N), "virtual_ns/line")
}

func BenchmarkRMWContended(b *testing.B) {
	rt := benchRT(b, 8)
	a := rt.M.Space.AllocLocal(64, 0)
	start := rt.Now()
	b.ResetTimer()
	rt.AllDo(func(ctx *Ctx) {
		for i := 0; i < b.N/8+1; i++ {
			ctx.RMW(a, 8)
			ctx.Yield()
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(rt.Now()-start)/float64(b.N/8+1), "virtual_ns/rmw")
}

func BenchmarkBarrier(b *testing.B) {
	rt := benchRT(b, 8)
	bar := rt.NewBarrier(8)
	start := rt.Now()
	b.ResetTimer()
	rt.AllDo(func(ctx *Ctx) {
		for i := 0; i < b.N/8+1; i++ {
			ctx.Barrier(bar)
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(rt.Now()-start)/float64(b.N/8+1), "virtual_ns/barrier")
}

func BenchmarkDelegateAsync(b *testing.B) {
	rt := benchRT(b, 8)
	a := rt.M.Space.AllocLocal(mem.PageSize, 0)
	w := rt.Worker(0)
	var ownerClockDelta int64
	b.ResetTimer()
	rt.Run(func(ctx *Ctx) {
		before := w.Clock().Now()
		for i := 0; i < b.N; i++ {
			ctx.DelegateAsync(a, func(c *Ctx) {})
		}
		ownerClockDelta = w.Clock().Now() - before
	})
	b.StopTimer()
	// The submitting worker's clock advance per delegation (message
	// construction + fabric charge on the send side).
	b.ReportMetric(float64(ownerClockDelta)/float64(b.N), "virtual_ns/send")
}

func BenchmarkStealThroughput(b *testing.B) {
	// All work spawned on one worker; seven thieves drain it.
	rt := benchRT(b, 8)
	start := rt.Now()
	b.ResetTimer()
	rt.Run(func(ctx *Ctx) {
		for i := 0; i < b.N; i++ {
			ctx.Spawn(func(c *Ctx) { c.Compute(500) })
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(rt.Now()-start)/float64(b.N), "virtual_ns/task")
}
