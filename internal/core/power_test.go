package core

import (
	"reflect"
	"testing"

	"charm/internal/fault"
	"charm/internal/mem"
	"charm/internal/pmu"
	"charm/internal/power"
	"charm/internal/sim"
	"charm/internal/topology"
)

// Tests for the closed-loop power plane wired into the engine: with the
// plane enabled, a Deterministic run must stay byte-identical across
// replays and across every fast-path knob, and the governor must actually
// exercise its tiers during the gate workload (a quiet run proves nothing).

// hotPowerConfig tunes the plane so the replay workload drives the
// governor through every tier. The heterogeneous two-model table maps the
// hot model to chiplets 0/2 and the cool one to 1/3 (Models cycle by
// chiplet index): hot chiplets run to their park setpoint under full
// compute load, cool chiplets only brush the soft tier — so one run
// exercises soft throttle, hard throttle, emergency park, park expiry,
// and the rehome path of evicted workers.
func hotPowerConfig() *power.Config {
	hot := power.DefaultModel()
	hot.Name = "hot"
	hot.CThermal = 2e-6 // tau = 10 µs: temperature chases power within a tick
	cool := hot
	cool.Name = "cool"
	cool.EnergyPJ[pmu.ComputeNS] = 800
	return &power.Config{
		TDPWatts: 40,
		SoftC:    55, HardC: 60, ParkC: 66,
		TickNS: 10_000, ParkNS: 150_000,
		Models: []power.Model{hot, cool},
	}
}

// powerRun executes one deterministic run with the closed-loop plane
// enabled and returns every observable the gate compares: scheduler
// stats, the full PMU snapshot, the final worker clock, and the plane's
// published thermal/energy snapshot (final temperatures, ledgers, and
// tier event counts). The workload mixes compute-heavy phases (heating),
// yields and barriers (governor claims from many workers), and a
// near-idle tail (decay and park expiry through the idle-drift hook).
func powerRun(t *testing.T, workers int, noBatch, noPool bool) (Stats, pmu.Snapshot, int64, power.Snapshot) {
	t.Helper()
	topo := topology.Synthetic(4, 2)
	m := sim.New(sim.Config{Topo: topo})
	rt := NewRuntime(m, Options{
		Workers: workers, Deterministic: true,
		SchedulerTimer: 50_000, Power: hotPowerConfig(),
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

	// Phase 1: compute-heavy tasks with repeat runs. The sustained Compute
	// drives hot chiplets through soft, hard, and park.
	add(rt.ParallelFor(0, 64, 2, func(ctx *Ctx, i0, i1 int) {
		for i := i0; i < i1; i++ {
			a := addr + mem.Addr(i%32)*64
			for r := 0; r < 100; r++ {
				ctx.Read(a, 64)
			}
			ctx.Compute(30_000)
			for r := 0; r < 50; r++ {
				ctx.Write(a, 8)
			}
		}
	}))

	// Phase 2: coroutines interleaving compute with yields — governor
	// claims land at suspension points on every worker.
	add(rt.AllDoCo(func(ctx *Ctx) {
		a := addr + mem.Addr(ctx.CoreID())*64
		for round := 0; round < 4; round++ {
			ctx.Compute(8_000)
			for r := 0; r < 32; r++ {
				ctx.Read(a, 64)
			}
			ctx.Yield()
		}
	}))

	// Phase 2b: a barrier between heating bursts (claims while workers
	// block, then a synchronized resume).
	bar := rt.NewBarrier(workers)
	add(rt.AllDo(func(ctx *Ctx) {
		for round := 0; round < 3; round++ {
			ctx.Compute(12_000)
			ctx.Barrier(bar)
		}
	}))

	// Phase 3: spawn storm from one worker — thieves pull hot work onto
	// every chiplet while parks come and go.
	add(rt.Run(func(ctx *Ctx) {
		for i := 0; i < 96; i++ {
			i := i
			ctx.Spawn(func(c *Ctx) {
				a := addr + mem.Addr(i%32)*64
				for r := 0; r < 32; r++ {
					c.Read(a, 64)
				}
				c.Compute(6_000)
			})
		}
	}))

	// Phase 4: near-idle tail. One worker computes; the rest idle-drift
	// across many governor windows, so decay and park expiry run through
	// the idle hook rather than the reload hook.
	add(rt.Run(func(ctx *Ctx) { ctx.Compute(400_000) }))

	// Run returns while the idle workers are still drifting up to the
	// computing worker's clock, ticking the governor as they go.
	lsSettle(rt)
	return total, rt.M.PMU.Snapshot(), rt.MaxWorkerClock(), *rt.Power().Stats()
}

func sum64(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}

// TestPowerReplayBitIdentical: the acceptance gate for the closed-loop
// plane. Two Deterministic runs of the hot workload must produce
// byte-identical Stats, PMU counters, final worker clocks, and final
// plane state (temperatures, energy ledgers, tier event counts); the
// fast-path knobs (batching, pooling) must stay invisible with the plane
// enabled. The guard assertions make the gate non-vacuous: the governor
// must have fired every tier during the base run.
func TestPowerReplayBitIdentical(t *testing.T) {
	const workers = 8
	base, basePMU, baseClk, basePW := powerRun(t, workers, false, false)
	if base.Tasks == 0 {
		t.Fatalf("workload too tame to be a gate: %+v", base)
	}
	if n := sum64(basePW.SoftEvents); n == 0 {
		t.Fatalf("governor never entered the soft tier: %+v", basePW)
	}
	if n := sum64(basePW.HardEvents); n == 0 {
		t.Fatalf("governor never entered the hard tier: %+v", basePW)
	}
	if n := sum64(basePW.ParkEvents); n == 0 {
		t.Fatalf("governor never parked a chiplet: %+v", basePW)
	}
	if max := sum64(basePW.EnergyPJ); max == 0 {
		t.Fatal("energy ledger empty after a compute-heavy run")
	}
	if basePW.MaxTempMilliC <= 45_000 {
		t.Fatalf("no chiplet warmed above ambient: max %d milli°C", basePW.MaxTempMilliC)
	}

	for _, tc := range []struct {
		name            string
		noBatch, noPool bool
	}{
		{"replay", false, false},
		{"nobatch", true, false},
		{"nopool", false, true},
		{"nobatch-nopool", true, true},
	} {
		st, pm, clk, pw := powerRun(t, workers, tc.noBatch, tc.noPool)
		if st != base {
			t.Errorf("%s: Stats diverge:\n  base %+v\n  %s %+v", tc.name, base, tc.name, st)
		}
		if !reflect.DeepEqual(pm, basePMU) {
			t.Errorf("%s: PMU counters diverge", tc.name)
		}
		if clk != baseClk {
			t.Errorf("%s: final clock %d, base %d", tc.name, clk, baseClk)
		}
		if !reflect.DeepEqual(pw, basePW) {
			t.Errorf("%s: plane state diverges:\n  base %+v\n  %s %+v", tc.name, basePW, tc.name, pw)
		}
	}
}

// TestPowerPlaneOffUnchanged: enabling-then-disabling must be a pure
// no-op — a run without Options.Power must match the seed behavior
// (rt.Power() nil, no overlay attached, no thermal factors anywhere).
func TestPowerPlaneOffUnchanged(t *testing.T) {
	topo := topology.Synthetic(4, 2)
	m := sim.New(sim.Config{Topo: topo})
	rt := NewRuntime(m, Options{Workers: 4, Deterministic: true})
	rt.Start()
	defer rt.Stop()
	if rt.Power() != nil {
		t.Fatal("Power() non-nil without Options.Power")
	}
	st := rt.ParallelFor(0, 16, 1, func(ctx *Ctx, i0, i1 int) { ctx.Compute(1_000) })
	if st.Tasks != 16 {
		t.Fatalf("Tasks = %d, want 16", st.Tasks)
	}
}

// BenchmarkPower gates the plane's cost claims, recorded in
// BENCH_power.json by make bench:
//
//   - access/off vs access/on: the per-access fast path with the plane
//     absent (one nil pointer check at each hook site) and present but
//     between governor windows (one extra atomic load of the claim gate).
//   - tick: one full governor window per op — PMU delta, RC integration,
//     and tier decision for every chiplet.
func BenchmarkPower(b *testing.B) {
	access := func(b *testing.B, pcfg *power.Config) {
		m := sim.New(sim.Config{Topo: topology.AMDMilan7713x2().Scaled(256)})
		rt := NewRuntime(m, Options{Workers: 1, SchedulerTimer: 1 << 60, Power: pcfg})
		rt.Start()
		b.Cleanup(rt.Stop)
		a := rt.M.Space.AllocLocal(64, 0)
		rt.Run(func(ctx *Ctx) { ctx.Read(a, 64) }) // warm the line
		b.ResetTimer()
		rt.Run(func(ctx *Ctx) {
			for i := 0; i < b.N; i++ {
				ctx.Read(a, 64)
			}
		})
	}
	b.Run("access/off", func(b *testing.B) { access(b, nil) })
	b.Run("access/on", func(b *testing.B) {
		// A huge tick keeps the governor idle for the whole run, so the
		// measured delta over access/off is the steady-state overhead:
		// the nextAt gate load on each placement-cache reload.
		access(b, &power.Config{TickNS: 1 << 50})
	})

	b.Run("tick", func(b *testing.B) {
		topo := topology.Synthetic(4, 2)
		pm := pmu.New(topo.NumCores())
		plan, err := (*fault.Schedule)(nil).Compile(topo)
		if err != nil {
			b.Fatal(err)
		}
		pl, err := power.NewPlane(topo, pm, plan, power.Config{TickNS: 1000})
		if err != nil {
			b.Fatal(err)
		}
		for c := 0; c < topo.NumCores(); c++ {
			pm.Add(c, pmu.ComputeNS, 500)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Advance exactly one window per op; top up the PMU so each
			// window sees a fresh energy delta.
			pl.MaybeTick(int64(i+1) * 1000)
			pm.Add(i%topo.NumCores(), pmu.ComputeNS, 100)
		}
	})
}
