package charm

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"
)

func TestInitValidation(t *testing.T) {
	badTopo := SmallTopology()
	badTopo.Sockets = 0
	zeroCore := SmallTopology()
	zeroCore.CoresPerChiplet = 0
	small := SmallTopology()
	// SmallTopology has 4 chiplets; offlining all of them forever leaves
	// zero live cores, which the plan compiler must refuse.
	allDead := NewFaultSchedule("dead", 1)
	for ch := 0; ch < 4; ch++ {
		allDead.OfflineChiplet(ChipletID(ch), 0, 0)
	}
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"zero workers", Config{}, false},
		{"negative workers", Config{Workers: -1, Topology: small}, false},
		{"too many workers", Config{Workers: 10_000}, false},
		{"invalid topology", Config{Workers: 2, Topology: badTopo}, false},
		{"zero-core topology", Config{Workers: 2, Topology: zeroCore}, false},
		{"plan offlines every core", Config{Workers: 2, Topology: small, Faults: allDead}, false},
		{"negative cache scale", Config{Workers: 2, Topology: small, CacheScale: -2}, false},
		{"negative scheduler timer", Config{Workers: 2, Topology: small, SchedulerTimer: -1}, false},
		{"negative remote fill threshold", Config{Workers: 2, Topology: small, RemoteFillThreshold: -5}, false},
		{"negative MLP", Config{Workers: 2, Topology: small, MLP: -1}, false},
		{"absurd sample shift", Config{Workers: 2, Topology: small, SampleShift: 40}, false},
		{"unknown system", Config{Workers: 2, Topology: small, System: "bogus"}, false},
		{"NaN fault factor", Config{Workers: 2, Topology: small,
			Faults: NewFaultSchedule("nan", 1).LinkBrownout(0, 0, 1000, math.NaN())}, false},
		{"infinite fault factor", Config{Workers: 2, Topology: small,
			Faults: NewFaultSchedule("inf", 1).MemBrownout(0, 0, 1000, math.Inf(1))}, false},
		{"sub-unity fault factor", Config{Workers: 2, Topology: small,
			Faults: NewFaultSchedule("sub", 1).ThermalThrottle(0, 0, 1000, 0.5)}, false},
		{"fault unit out of range", Config{Workers: 2, Topology: small,
			Faults: NewFaultSchedule("oob", 1).OfflineCore(CoreID(small.NumCores()), 0, 1000)}, false},
		{"inverted fault window", Config{Workers: 2, Topology: small,
			Faults: NewFaultSchedule("inv", 1).OfflineCore(0, 2000, 1000)}, false},
		{"NaN power TDP", Config{Workers: 2, Topology: small,
			Power: &PowerConfig{TDPWatts: math.NaN()}}, false},
		{"negative power TDP", Config{Workers: 2, Topology: small,
			Power: &PowerConfig{TDPWatts: -5}}, false},
		{"disordered power setpoints", Config{Workers: 2, Topology: small,
			Power: &PowerConfig{SoftC: 90, HardC: 80}}, false},
		{"power ambient above soft", Config{Workers: 2, Topology: small,
			Power: &PowerConfig{SoftC: 40}}, false},
		{"negative power RC resistance", Config{Workers: 2, Topology: small,
			Power: &PowerConfig{Models: []PowerModel{{RThermal: -1, CThermal: 0.001}}}}, false},
		{"infinite power energy entry", Config{Workers: 2, Topology: small,
			Power: &PowerConfig{Models: []PowerModel{func() PowerModel {
				m := DefaultPowerModel()
				m.EnergyPJ[ComputeNS] = math.Inf(1)
				return m
			}()}}}, false},
		{"negative power tick", Config{Workers: 2, Topology: small,
			Power: &PowerConfig{TickNS: -1}}, false},
		{"power and static thermal event", Config{Workers: 2, Topology: small,
			Power:  &PowerConfig{},
			Faults: NewFaultSchedule("clash", 1).ThermalThrottle(0, 0, 1000, 2)}, false},
		{"valid minimal", Config{Workers: 2, Topology: SmallTopology()}, true},
		{"valid with power", Config{Workers: 2, Topology: SmallTopology(),
			Power: &PowerConfig{}}, true},
		{"valid power with brownout faults", Config{Workers: 2, Topology: SmallTopology(),
			Power:  &PowerConfig{},
			Faults: NewFaultSchedule("mix", 1).LinkBrownout(0, 0, 1000, 2)}, true},
		{"valid with faults", Config{Workers: 2, Topology: SmallTopology(),
			Faults: NewFaultSchedule("ok", 1).LinkBrownout(0, 0, 1000, 2)}, true},
		{"valid with spec", Config{Workers: 2, Topology: SmallTopology(), Faults: mustParse(t, "chaos:seed=3")}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Init panicked instead of returning an error: %v", r)
				}
			}()
			cfg := tc.cfg
			cfg.Deterministic = true
			rt, err := Init(cfg)
			if tc.ok && err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("expected an error")
			}
			if rt != nil {
				rt.Finalize()
			}
		})
	}
}

// mustParse parses a fault-scenario spec against SmallTopology.
func mustParse(t *testing.T, spec string) *FaultSchedule {
	t.Helper()
	s, err := ParseFaultSpec(spec, SmallTopology())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestFaultInjectionPublicAPI(t *testing.T) {
	sched := NewFaultSchedule("api", 1).
		OfflineChiplet(0, 10_000, 200_000).
		LinkBrownout(1, 0, 100_000, 4)
	rt, err := Init(Config{
		Workers: 8, Topology: SmallTopology(), Faults: sched,
		Deterministic: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Finalize()
	var n atomic.Int64
	st := rt.ParallelFor(0, 64, 1, func(ctx *Ctx, i0, i1 int) {
		ctx.Compute(5_000)
		n.Add(1)
	})
	if n.Load() != 64 || st.Tasks != 64 {
		t.Fatalf("completed %d tasks (stats %d), want 64", n.Load(), st.Tasks)
	}
}

// TestPowerPublicAPI: the closed-loop plane end to end through the
// facade — Init with Config.Power, a compute-heavy run warming the
// chiplets, and the plane's snapshot visible via Runtime.Power(). Also
// pins the typed conflict error for static-thermal + plane.
func TestPowerPublicAPI(t *testing.T) {
	rt, err := Init(Config{
		Workers: 4, Topology: SmallTopology(), Deterministic: true,
		Power: &PowerConfig{SoftC: 55, HardC: 65, ParkC: 75, TickNS: 10_000,
			Models: []PowerModel{func() PowerModel {
				m := DefaultPowerModel()
				m.CThermal = 2e-6
				return m
			}()}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Finalize()
	pw := rt.Power()
	if pw == nil {
		t.Fatal("Runtime.Power() nil with Config.Power set")
	}
	rt.ParallelFor(0, 32, 1, func(ctx *Ctx, i0, i1 int) { ctx.Compute(30_000) })
	snap := pw.Stats()
	if snap.At == 0 {
		t.Fatal("governor never ticked during a compute-heavy run")
	}
	if snap.MaxTempMilliC <= 45_000 {
		t.Fatalf("no chiplet warmed above ambient: max %d milli°C", snap.MaxTempMilliC)
	}
	var energy int64
	for _, pj := range snap.EnergyPJ {
		energy += pj
	}
	if energy == 0 {
		t.Fatal("energy ledger empty after a compute-heavy run")
	}

	_, err = Init(Config{
		Workers: 2, Topology: SmallTopology(), Power: &PowerConfig{},
		Faults:        NewFaultSchedule("clash", 1).ThermalThrottle(0, 0, 1000, 2),
		Deterministic: true,
	})
	if !errors.Is(err, ErrThermalConflict) {
		t.Fatalf("static thermal + plane: err = %v, want ErrThermalConflict", err)
	}
}

func TestQuickstartFlow(t *testing.T) {
	rt, err := Init(Config{Workers: 4, Topology: SmallTopology(), Deterministic: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Finalize()

	data := rt.Alloc(64 << 10)
	var touched atomic.Int64
	st := rt.AllDo(func(ctx *Ctx) {
		ctx.Read(data, 64<<10)
		touched.Add(1)
		ctx.Yield()
	})
	if touched.Load() != 4 {
		t.Errorf("AllDo ran %d times, want 4", touched.Load())
	}
	if st.Makespan <= 0 {
		t.Error("makespan must be positive")
	}
	if rt.Counter(BytesRead) < 4*(64<<10) {
		t.Errorf("BytesRead = %d, want >= %d", rt.Counter(BytesRead), 4*(64<<10))
	}
}

func TestSystemsRunSameWorkload(t *testing.T) {
	for _, s := range []System{SystemCHARM, SystemRING, SystemSHOAL, SystemAsymSched, SystemSAM,
		SystemOSAsync, SystemNaive, SystemStaticCompact, SystemCHARMSeqSteal} {
		rt, err := Init(Config{Workers: 4, Topology: SmallTopology(), System: s, Deterministic: true})
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		var n atomic.Int64
		st := rt.ParallelFor(0, 64, 4, func(ctx *Ctx, i0, i1 int) {
			n.Add(int64(i1 - i0))
			ctx.Compute(100)
		})
		rt.Finalize()
		if n.Load() != 64 {
			t.Errorf("%s: covered %d iterations, want 64", s, n.Load())
		}
		if st.Makespan <= 0 {
			t.Errorf("%s: non-positive makespan", s)
		}
	}
}

func TestStaticCompactKeepsPlacement(t *testing.T) {
	rt, err := Init(Config{Workers: 2, Topology: SmallTopology(), System: SystemStaticCompact, SchedulerTimer: 10_000, Deterministic: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Finalize()
	before := rt.CoreOfWorker(0)
	big := rt.Alloc(8 << 20)
	rt.AllDo(func(ctx *Ctx) {
		for i := 0; i < 10; i++ {
			ctx.Read(big, 8<<20)
			ctx.Yield()
		}
	})
	if got := rt.CoreOfWorker(0); got != before {
		t.Errorf("static-compact migrated worker 0 from %d to %d", before, got)
	}
	if rt.Counter(Migration) != 0 {
		t.Errorf("static-compact recorded %d migrations", rt.Counter(Migration))
	}
}

func TestCacheScale(t *testing.T) {
	rt, err := Init(Config{Workers: 1, CacheScale: 1024, Deterministic: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Finalize()
	if got := rt.Topology().L3PerChiplet; got != (32<<20)/1024 {
		t.Errorf("scaled L3 = %d, want %d", got, (32<<20)/1024)
	}
}

func TestAllocPolicyAndFree(t *testing.T) {
	rt, err := Init(Config{Workers: 1, Topology: SmallTopology(), Deterministic: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Finalize()
	a := rt.AllocPolicy(1<<16, Interleave, 0)
	rt.Run(func(ctx *Ctx) { ctx.Read(a, 1<<16) })
	rt.Free(a)
}

func TestBarrierAPI(t *testing.T) {
	rt, err := Init(Config{Workers: 3, Topology: SmallTopology(), Deterministic: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Finalize()
	b := rt.NewBarrier(3)
	var phase1 atomic.Int64
	var ordered atomic.Bool
	ordered.Store(true)
	rt.AllDo(func(ctx *Ctx) {
		phase1.Add(1)
		ctx.Barrier(b)
		if phase1.Load() != 3 {
			ordered.Store(false)
		}
	})
	if !ordered.Load() {
		t.Error("work after the barrier observed incomplete phase 1")
	}
}

func TestSpreadRateVisible(t *testing.T) {
	rt, err := Init(Config{Workers: 2, Topology: SmallTopology(), SchedulerTimer: 20_000, Deterministic: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Finalize()
	if got := rt.SpreadRate(0); got != 1 {
		t.Errorf("initial spread rate = %d, want 1", got)
	}
}

// ExampleInit demonstrates the paper's API surface end to end.
func ExampleInit() {
	rt, err := Init(Config{Workers: 4, Topology: SmallTopology(), Deterministic: true})
	if err != nil {
		panic(err)
	}
	defer rt.Finalize()

	data := rt.Alloc(1 << 16)
	rt.AllDo(func(ctx *Ctx) {
		ctx.Read(data, 1<<16)
		ctx.Yield()
	})
	fmt.Println("workers:", rt.Workers())
	fmt.Println("chiplets:", rt.Topology().NumChiplets())
	// Output:
	// workers: 4
	// chiplets: 4
}

func TestConfigKnobs(t *testing.T) {
	// Each ablation/config knob must produce a working runtime.
	knobs := []Config{
		{Workers: 4, Topology: SmallTopology(), MLP: 1},
		{Workers: 8, Topology: smtSmall(), UseSMT: true},
	}
	for i, cfg := range knobs {
		cfg.Deterministic = true
		rt, err := Init(cfg)
		if err != nil {
			t.Fatalf("knob %d: %v", i, err)
		}
		var n atomic.Int64
		rt.ParallelFor(0, 32, 4, func(ctx *Ctx, i0, i1 int) {
			n.Add(int64(i1 - i0))
			ctx.Compute(100)
		})
		rt.Finalize()
		if n.Load() != 32 {
			t.Errorf("knob %d: covered %d", i, n.Load())
		}
	}
}

func smtSmall() *Topology {
	tp := SmallTopology()
	tp.SMTWays = 2
	return tp
}

func TestUseSMTWorkerLimit(t *testing.T) {
	// Without UseSMT 32 workers exceed the 16 cores; with it they fit.
	if _, err := Init(Config{Workers: 32, Topology: smtSmall(), Deterministic: true}); err == nil {
		t.Error("32 workers on 16 cores must error without UseSMT")
	}
	rt, err := Init(Config{Workers: 32, Topology: smtSmall(), UseSMT: true, Deterministic: true})
	if err != nil {
		t.Fatalf("UseSMT: %v", err)
	}
	rt.Finalize()
}

func TestAllDoCo(t *testing.T) {
	rt, err := Init(Config{Workers: 3, Topology: SmallTopology(), Deterministic: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Finalize()
	var yields atomic.Int64
	st := rt.AllDoCo(func(ctx *Ctx) {
		for i := 0; i < 5; i++ {
			ctx.Yield()
			yields.Add(1)
		}
	})
	if st.Tasks != 3 || yields.Load() != 15 {
		t.Errorf("tasks=%d yields=%d", st.Tasks, yields.Load())
	}
}

func TestOwnerOfAndDelegatePublic(t *testing.T) {
	rt, err := Init(Config{Workers: 4, Topology: SmallTopology(), Deterministic: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Finalize()
	a := rt.Alloc(4096)
	owner := rt.OwnerOf(a)
	if owner < 0 || owner >= 4 {
		t.Fatalf("owner %d", owner)
	}
	var ran atomic.Int64
	ran.Store(-1)
	rt.Run(func(ctx *Ctx) {
		ctx.Delegate(a, func(c *Ctx) { ran.Store(int64(c.Worker())) })
	})
	if int(ran.Load()) != owner {
		t.Errorf("delegate ran on %d, want %d", ran.Load(), owner)
	}
}

func TestCounterOfAndProfilerPublic(t *testing.T) {
	rt, err := Init(Config{Workers: 2, Topology: SmallTopology(), SchedulerTimer: 10_000, Deterministic: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Finalize()
	rt.EnableProfiler(true)
	a := rt.AllocOn(1<<16, 0)
	rt.AllDo(func(ctx *Ctx) {
		for i := 0; i < 50; i++ {
			ctx.Read(a, 1<<16)
			ctx.Yield()
		}
	})
	var total int64
	for c := 0; c < rt.Topology().NumCores(); c++ {
		total += rt.CounterOf(CoreID(c), BytesRead)
	}
	if total != rt.Counter(BytesRead) {
		t.Errorf("per-core sum %d != total %d", total, rt.Counter(BytesRead))
	}
	if rt.LiveTasks() != 0 {
		t.Errorf("live tasks after completion = %d", rt.LiveTasks())
	}
}

// TestJobServicePublicAPI drives the open-loop job service through the
// public surface: Poisson arrivals, deadline-aware shedding, stats, and
// typed errors after Finalize.
func TestJobServicePublicAPI(t *testing.T) {
	rt, err := Init(Config{Workers: 4, Topology: SmallTopology(), Deterministic: true})
	if err != nil {
		t.Fatal(err)
	}
	const jobs = 25
	var ran atomic.Int64
	svc, err := rt.ServeJobsFromTask(JobServiceOptions{
		Policy: AdmitShed,
		Source: &SpecSource{
			Arrivals: NewPoissonArrivals(3, 10_000, jobs),
			Gen: func(i int) JobSpec {
				return JobSpec{
					Name:     fmt.Sprintf("job-%d", i),
					Priority: i % 2,
					Deadline: 5_000_000,
					Cost:     20_000,
					Stages: []JobStage{{
						func(ctx *Ctx) { ctx.Compute(5_000); ran.Add(1) },
						func(ctx *Ctx) { ctx.Compute(5_000); ran.Add(1) },
					}},
				}
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rt.JobServer() != svc {
		t.Fatal("JobServer does not return the installed service")
	}
	svc.Drain()
	st := svc.Stats()
	if st.Submitted != jobs || st.Completed != jobs {
		t.Fatalf("stats = %+v, want %d submitted and completed", st, jobs)
	}
	if ran.Load() != jobs*2 {
		t.Fatalf("tasks ran = %d, want %d", ran.Load(), jobs*2)
	}

	rt.Finalize()
	rt.Finalize() // idempotent
	if _, err := rt.SubmitJob(JobSpec{}); !errors.Is(err, ErrFinalized) {
		t.Fatalf("SubmitJob after Finalize: %v, want ErrFinalized", err)
	}
}
