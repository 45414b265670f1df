package main

import (
	"fmt"
	"runtime"
	"time"

	"charm"
	"charm/internal/admit"
	"charm/internal/cache"
	"charm/internal/fabric"
	"charm/internal/fault"
	"charm/internal/mem"
	"charm/internal/obs"
	"charm/internal/place"
	"charm/internal/pmu"
	"charm/internal/power"
	"charm/internal/sim"
	"charm/internal/task"
	"charm/internal/tenant"
	"charm/internal/topology"
)

// probe times one hot public function of one layer, outside any workload.
// prepare builds the state and returns the operation loop: op(n) performs n
// operations and returns the time that counts (set-up inside op is left
// out). per divides the result for probes whose operation covers several
// units (turns per yield, jobs per report).
type probe struct {
	name    string
	prepare func(p *probeRun) (op func(n int) time.Duration, per float64)
}

// probeRun collects what probes report besides their time: extra metrics
// and path checks (a probe that names a path proves it took it).
type probeRun struct {
	extra  map[string]float64
	checks int
	fails  []string
	done   []func() // teardown of the probe being run
}

// initRuntime builds a runtime that is finalized when its probe is over.
func (p *probeRun) initRuntime(cfg charm.Config) *charm.Runtime {
	rt := mustInit(cfg)
	p.done = append(p.done, rt.Finalize)
	return rt
}

func (p *probeRun) check(ok bool, format string, args ...any) {
	p.checks++
	if !ok {
		p.fails = append(p.fails, fmt.Sprintf(format, args...))
	}
}

// sink keeps results live so the compiler cannot drop a probed call.
var sink int64

// timed wraps a plain loop as an op whose whole run counts.
func timed(loop func(n int)) func(n int) time.Duration {
	return func(n int) time.Duration {
		t0 := time.Now()
		loop(n)
		return time.Since(t0)
	}
}

// nsPerOp grows n until one op(n) call lasts at least d and returns that
// call's time per operation.
func nsPerOp(d time.Duration, op func(n int) time.Duration) float64 {
	for n := 16; ; {
		t := op(n)
		if t >= d || n >= 1<<30 {
			return float64(t.Nanoseconds()) / float64(n)
		}
		grow := 2.0
		if t > 0 {
			grow = 1.2 * float64(d) / float64(t)
		}
		if grow < 2 {
			grow = 2
		}
		if grow > 100 {
			grow = 100
		}
		n = int(float64(n) * grow)
	}
}

// runProbes times every probe as the median of rounds rounds of at least d
// each and files the results into pl. It returns the path checks made and
// the ones that failed.
func runProbes(rounds int, d time.Duration, pl map[string]float64) (checks int, fails []string) {
	run := &probeRun{extra: pl}
	for _, p := range probes {
		op, per := p.prepare(run)
		ns := make([]float64, rounds)
		for i := range ns {
			ns[i] = nsPerOp(d, op) / per
		}
		pl[p.name] = median(ns)
		for _, done := range run.done {
			done()
		}
		run.done = nil
	}
	return run.checks, run.fails
}

func probeSpecs() []metricSpec {
	specs := make([]metricSpec, 0, len(probes)+1)
	for _, p := range probes {
		specs = append(specs, metricSpec{p.name, "ns"})
	}
	return append(specs, metricSpec{"core.job_allocs", "count"})
}

// Milan geometry the sim probes rely on: core 0 sits on chiplet 0 and core
// 8 on chiplet 1 of the same NUMA node.
const (
	probeCoreA   = topology.CoreID(0)
	probeCoreB   = topology.CoreID(8)
	probeLines   = 256 // lines ping-ponged between two chiplets; fits the scaled L2
	probeLineLen = 64
)

// probeCacheScale divides Milan's caches for the sim and core probes (2 MiB
// L3 per chiplet, 32 KiB L2): tag arrays of the size the workloads run with,
// and cheap enough to build once per probe.
const probeCacheScale = 16

// probeMachine is the scaled Milan machine, simulated exactly.
func probeMachine() *sim.Machine {
	return sim.New(sim.Config{Topo: topology.AMDMilan7713x2().Scaled(probeCacheScale)})
}

// sharedLines ping-pongs probeLines lines between two chiplets: core A
// writes them (invalidating B's copies), core B reads them (a fill from A's
// L3). It times the writes or the reads and checks the PMU saw the reads as
// remote-L3 fills.
func sharedLines(p *probeRun, name string, timeWrites bool) func(n int) time.Duration {
	m := probeMachine()
	base := m.Space.Alloc(probeLines*probeLineLen, mem.Bind, 0)
	var now int64
	var reads int64
	sweep := func(core topology.CoreID, write bool, lines int) time.Duration {
		t0 := time.Now()
		for i := 0; i < lines; i++ {
			now += m.Access(core, now, base+mem.Addr(i*probeLineLen), 8, write)
		}
		return time.Since(t0)
	}
	return func(n int) time.Duration {
		var d time.Duration
		for left := n; left > 0; left -= probeLines {
			lines := probeLines
			if left < lines {
				lines = left
			}
			w := sweep(probeCoreA, true, lines)
			r := sweep(probeCoreB, false, lines)
			reads += int64(lines)
			if timeWrites {
				d += w
			} else {
				d += r
			}
		}
		remote := m.PMU.Read(int(probeCoreB), pmu.FillL3RemoteNear) + m.PMU.Read(int(probeCoreB), pmu.FillL3RemoteFar)
		p.check(remote == reads, "%s: %d of %d reads were remote-L3 fills", name, remote, reads)
		return d
	}
}

// coreProbe runs body(ctx, n) as the root task of the probe's own runtime
// and times the whole submission.
func coreProbe(p *probeRun, cfg charm.Config, body func(rt *charm.Runtime) func(ctx *charm.Ctx, n int)) func(n int) time.Duration {
	rt := p.initRuntime(cfg)
	fn := body(rt)
	return timed(func(n int) { rt.Run(func(ctx *charm.Ctx) { fn(ctx, n) }) })
}

var probes = []probe{
	{"sim.read_hit_ns", func(p *probeRun) (func(int) time.Duration, float64) {
		m := probeMachine()
		a := m.Space.Alloc(4096, mem.Bind, 0)
		var now, ops int64
		return timed(func(n int) {
			for i := 0; i < n; i++ {
				now += m.Read(probeCoreA, now, a, 8)
			}
			ops += int64(n)
			hits := m.PMU.Read(int(probeCoreA), pmu.FillL2)
			p.check(hits >= ops-1, "sim.read_hit_ns: %d of %d reads hit the L2", hits, ops)
		}), 1
	}},
	{"sim.read_l3_remote_ns", func(p *probeRun) (func(int) time.Duration, float64) {
		return sharedLines(p, "sim.read_l3_remote_ns", false), 1
	}},
	{"sim.read_dram_ns", func(p *probeRun) (func(int) time.Duration, float64) {
		// A sequential sweep over twice the chiplet's L3: every line was
		// evicted before the sweep returns to it.
		m := probeMachine()
		size := 2 * m.Topo.L3PerChiplet
		a := m.Space.Alloc(size, mem.Bind, 0)
		var now, off, ops int64
		return timed(func(n int) {
			for i := 0; i < n; i++ {
				now += m.Read(probeCoreA, now, a+mem.Addr(off), 8)
				if off += probeLineLen; off >= size {
					off = 0
				}
			}
			ops += int64(n)
			fills := m.PMU.Read(int(probeCoreA), pmu.FillDRAMLocal)
			p.check(fills == ops, "sim.read_dram_ns: %d of %d reads were DRAM fills", fills, ops)
		}), 1
	}},
	{"sim.write_shared_ns", func(p *probeRun) (func(int) time.Duration, float64) {
		return sharedLines(p, "sim.write_shared_ns", true), 1
	}},
	{"cache.lookup_ns", func(*probeRun) (func(int) time.Duration, float64) {
		c := cache.New(1<<20, 8, 0)
		resident := uint64(c.Capacity() / 2)
		for l := uint64(0); l < resident; l++ {
			c.Insert(l, 0)
		}
		var now int64
		return timed(func(n int) {
			for i := 0; i < n; i++ {
				now++
				if c.Lookup(uint64(i)%resident, now) {
					sink++
				}
			}
		}), 1
	}},
	{"cache.insert_evict_ns", func(*probeRun) (func(int) time.Duration, float64) {
		c := cache.New(1<<20, 8, 0)
		var line uint64
		var now int64
		return timed(func(n int) {
			for i := 0; i < n; i++ {
				line++
				now++
				c.Insert(line, now)
			}
		}), 1
	}},
	{"topology.l3_latency_ns", func(*probeRun) (func(int) time.Duration, float64) {
		topo := topology.AMDMilan7713x2()
		cores, chiplets := topo.NumCores(), topo.NumChiplets()
		return timed(func(n int) {
			for i := 0; i < n; i++ {
				sink += topo.L3HitLatency(topology.CoreID(i%cores), topology.ChipletID((i*7)%chiplets))
			}
		}), 1
	}},
	{"mem.bucket_charge_ns", func(*probeRun) (func(int) time.Duration, float64) {
		b := mem.NewTokenBucket(25.6, 10_000)
		var now int64
		return timed(func(n int) {
			for i := 0; i < n; i++ {
				now += 3
				sink += b.Charge(now, probeLineLen)
			}
		}), 1
	}},
	{"fabric.star_charge_ns", fabricProbe("star")},
	{"fabric.mesh_charge_ns", fabricProbe("mesh")},
	{"fabric.ring_charge_ns", fabricProbe("ring")},
	{"pmu.add_ns", func(*probeRun) (func(int) time.Duration, float64) {
		p := pmu.New(8)
		return timed(func(n int) {
			for i := 0; i < n; i++ {
				p.Add(i&7, pmu.FillL2, 1)
			}
		}), 1
	}},
	{"core.ctx_read_hot_ns", func(p *probeRun) (func(int) time.Duration, float64) {
		return coreProbe(p, charm.Config{Workers: 1, CacheScale: probeCacheScale}, func(rt *charm.Runtime) func(*charm.Ctx, int) {
			a := rt.Alloc(4096)
			return func(ctx *charm.Ctx, n int) {
				for i := 0; i < n; i++ {
					ctx.Read(a, 8)
				}
			}
		}), 1
	}},
	{"core.ctx_read_stride_ns", func(p *probeRun) (func(int) time.Duration, float64) {
		return coreProbe(p, charm.Config{Workers: 1, CacheScale: probeCacheScale}, func(rt *charm.Runtime) func(*charm.Ctx, int) {
			const size = 1 << 20 // beyond the scaled L2, inside the L3
			a := rt.Alloc(size)
			return func(ctx *charm.Ctx, n int) {
				for i := 0; i < n; i++ {
					ctx.Read(a+charm.Addr(i*probeLineLen%size), 8)
				}
			}
		}), 1
	}},
	{"core.spawn_ns", func(p *probeRun) (func(int) time.Duration, float64) {
		return coreProbe(p, charm.Config{Workers: 4, CacheScale: probeCacheScale}, func(*charm.Runtime) func(*charm.Ctx, int) {
			return func(ctx *charm.Ctx, n int) {
				for i := 0; i < n; i++ {
					ctx.Spawn(func(*charm.Ctx) {})
				}
			}
		}), 1
	}},
	{"core.coro_yield_ns", func(p *probeRun) (func(int) time.Duration, float64) {
		return coreProbe(p, charm.Config{Workers: 1, CacheScale: probeCacheScale}, func(*charm.Runtime) func(*charm.Ctx, int) {
			return func(ctx *charm.Ctx, n int) {
				ctx.SpawnCo(func(co *charm.Ctx) {
					for i := 0; i < n; i++ {
						co.Yield()
					}
				})
			}
		}), 1
	}},
	{"core.turn_ns", func(p *probeRun) (func(int) time.Duration, float64) {
		// Sixteen lockstep workers each yield n times: every yield hands
		// the baton on, so one op is sixteen turns.
		const workers = 16
		rt := p.initRuntime(charm.Config{Workers: workers, CacheScale: probeCacheScale, Deterministic: true})
		return timed(func(n int) {
			rt.AllDo(func(ctx *charm.Ctx) {
				for i := 0; i < n; i++ {
					ctx.Yield()
				}
			})
		}), workers
	}},
	{"core.job_ns", func(p *probeRun) (func(int) time.Duration, float64) {
		// Empty one-task jobs through ServeJobs on the svc-tenants
		// machine, lockstep on; a runtime serves one job service, so each
		// round builds its own outside the timed region.
		var before, after runtime.MemStats
		return func(n int) time.Duration {
			rt := mustInit(charm.Config{Topology: topology.Synthetic(4, 2), Workers: tnWorkers, Deterministic: true})
			defer rt.Finalize()
			runtime.ReadMemStats(&before)
			t0 := time.Now()
			svc, err := rt.ServeJobs(charm.JobServiceOptions{
				Source: &charm.SpecSource{
					Arrivals: charm.NewPoissonArrivals(1, 1_000, n),
					Gen: func(int) charm.JobSpec {
						return charm.JobSpec{Stages: []charm.JobStage{{func(*charm.Ctx) {}}}}
					},
				},
			})
			if err != nil {
				panic(fmt.Sprintf("bench: core.job_ns: %v", err))
			}
			svc.Drain()
			d := time.Since(t0)
			runtime.ReadMemStats(&after)
			p.extra["core.job_allocs"] = float64(after.Mallocs-before.Mallocs) / float64(n)
			st := svc.Stats()
			p.check(st.Completed == int64(n), "core.job_ns: %d of %d jobs completed", st.Completed, n)
			return d
		}, 1
	}},
	{"place.view_build_ns", func(*probeRun) (func(int) time.Duration, float64) {
		ranks, snap := placeProbeInputs()
		return timed(func(n int) {
			for i := 0; i < n; i++ {
				sink += place.NewView(ranks, int64(i), snap).Now()
			}
		}), 1
	}},
	{"place.select_ns", func(*probeRun) (func(int) time.Duration, float64) {
		ranks, snap := placeProbeInputs()
		v := place.NewView(ranks, 0, snap)
		return timed(func(n int) {
			for i := 0; i < n; i++ {
				c, _ := v.Select(place.LeastLoaded())
				sink += int64(c)
			}
		}), 1
	}},
	{"admit.offer_pop_ns", func(*probeRun) (func(int) time.Duration, float64) {
		q := admit.NewQueue(1024, admit.Shed)
		var seq uint64
		offer := func(now int64) {
			seq++
			// Deadlines far out: nothing is hopeless, nothing sheds.
			if _, err := q.Offer(now, admit.Entry{Seq: seq, Arrival: now, Deadline: now + 1<<40 + int64(seq%97), Est: 1}); err != nil {
				panic(fmt.Sprintf("bench: admit.offer_pop_ns: %v", err))
			}
		}
		for i := 0; i < 512; i++ {
			offer(0)
		}
		return timed(func(n int) {
			for i := 0; i < n; i++ {
				offer(int64(i))
				q.Pop()
			}
		}), 1
	}},
	{"tenant.drr_next_ns", func(*probeRun) (func(int) time.Duration, float64) {
		d := tenant.NewDRR([]int64{1, 2, 3, 4})
		backlogged := func(int) bool { return true }
		return timed(func(n int) {
			for i := 0; i < n; i++ {
				sink += int64(d.Next(backlogged))
			}
		}), 1
	}},
	{"tenant.bucket_take_ns", func(*probeRun) (func(int) time.Duration, float64) {
		b := tenant.NewBucket(10, 4)
		var now int64
		return timed(func(n int) {
			for i := 0; i < n; i++ {
				now += 7
				if b.Take(now) {
					sink++
				}
			}
		}), 1
	}},
	{"power.tick_ns", func(*probeRun) (func(int) time.Duration, float64) {
		topo := topology.Synthetic(4, 2)
		plan, err := fault.New("probe", 1).Compile(topo)
		if err != nil {
			panic(fmt.Sprintf("bench: power.tick_ns: %v", err))
		}
		pl, err := power.NewPlane(topo, pmu.New(topo.NumCores()), plan, power.Config{})
		if err != nil {
			panic(fmt.Sprintf("bench: power.tick_ns: %v", err))
		}
		var now int64
		return timed(func(n int) {
			for i := 0; i < n; i++ {
				now += pl.Tick()
				pl.MaybeTick(now)
			}
		}), 1
	}},
	{"obs.counter_inc_ns", func(*probeRun) (func(int) time.Duration, float64) {
		reg := obs.NewRegistry(4)
		reg.SetEnabled(true)
		c := reg.Counter("bench_probe_total", "Probe counter.", nil)
		return timed(func(n int) {
			for i := 0; i < n; i++ {
				c.Inc(0)
			}
		}), 1
	}},
	{"obs.span_emit_ns", func(p *probeRun) (func(int) time.Duration, float64) {
		return func(n int) time.Duration {
			tr := obs.NewTracer(1, n)
			tr.SetEnabled(true)
			t0 := time.Now()
			for i := 0; i < n; i++ {
				tr.Emit(0, obs.Span{Trace: obs.TraceID(i), Kind: obs.SpanTask, Start: int64(i), End: int64(i) + 1})
			}
			d := time.Since(t0)
			p.check(tr.DroppedSpans() == 0, "obs.span_emit_ns: tracer dropped %d spans", tr.DroppedSpans())
			return d
		}, 1
	}},
	{"obs.report_ns_per_job", func(p *probeRun) (func(int) time.Duration, float64) {
		// One small svc-tenants pass leaves a tracer full of real job
		// traces; the probe rebuilds the critical-path report over it.
		rt := p.initRuntime(charm.Config{Topology: topology.Synthetic(4, 2), Workers: tnWorkers, Deterministic: true})
		rt.EnableTracing(true)
		const jobs = 2000
		svc, err := rt.ServeJobs(charm.JobServiceOptions{
			Source: &charm.SpecSource{
				Arrivals: charm.NewPoissonArrivals(1, tnAGap, jobs),
				Gen:      tenantGen("probe"),
			},
		})
		if err != nil {
			panic(fmt.Sprintf("bench: obs.report_ns_per_job: %v", err))
		}
		svc.Drain()
		traced := len(charm.BuildCritPathReport(rt.Tracer()).Jobs)
		p.check(traced == jobs, "obs.report_ns_per_job: report covers %d of %d jobs", traced, jobs)
		return timed(func(n int) {
			for i := 0; i < n; i++ {
				sink += charm.BuildCritPathReport(rt.Tracer()).TotalNS
			}
		}), jobs
	}},
	{"task.deque_push_pop_ns", func(*probeRun) (func(int) time.Duration, float64) {
		d := task.NewDeque[int64](64)
		v := new(int64)
		return timed(func(n int) {
			for i := 0; i < n; i++ {
				d.Push(v)
				sink += *d.Pop()
			}
		}), 1
	}},
	{"host.calib_ns", func(*probeRun) (func(int) time.Duration, float64) {
		// A fixed integer recurrence: numbers from different hosts can be
		// normalised by it.
		return timed(func(n int) {
			x := uint64(sink) | 1
			for i := 0; i < n; i++ {
				x = x*6364136223846793005 + 1442695040888963407
			}
			sink = int64(x >> 1)
		}), 1
	}},
}

// fabricProbe charges cross-chiplet line transfers on one fabric of the
// topo-fabrics machine shape.
func fabricProbe(kind string) func(*probeRun) (func(int) time.Duration, float64) {
	return func(*probeRun) (func(int) time.Duration, float64) {
		spec, err := topology.ParseTopoSpec(kind + ":4x2")
		if err != nil {
			panic(fmt.Sprintf("bench: fabric probe: %v", err))
		}
		topo, err := spec.Build()
		if err != nil {
			panic(fmt.Sprintf("bench: fabric probe: %v", err))
		}
		k, err := fabric.ParseKind(kind)
		if err != nil {
			panic(fmt.Sprintf("bench: fabric probe: %v", err))
		}
		f := fabric.Build(k, topo, 10_000)
		chiplets := topo.NumChiplets()
		var now int64
		return timed(func(n int) {
			for i := 0; i < n; i++ {
				now += 3
				src := topology.ChipletID(i % chiplets)
				dst := topology.ChipletID((i*3 + 1) % chiplets)
				sink += f.ChargeTransfer(src, dst, now, probeLineLen)
			}
		}), 1
	}
}

// placeProbeInputs is a 32-worker compact placement on Milan with uneven
// queue depths, the view the job service builds per dispatch.
func placeProbeInputs() (*place.Ranks, place.Snapshot) {
	topo := topology.AMDMilan7713x2()
	ranks := place.NewRanks(topo)
	snap := place.Snapshot{
		Occ:        make([]int32, topo.NumCores()),
		WorkerOn:   make([]int32, topo.NumCores()),
		WorkerCore: make([]topology.CoreID, grWorkers),
		QueueDepth: make([]int64, grWorkers),
	}
	for c := range snap.WorkerOn {
		snap.WorkerOn[c] = -1
	}
	for w := range snap.WorkerCore {
		c := place.CompactCore(w, topo)
		snap.WorkerCore[w] = c
		snap.Occ[c]++
		snap.WorkerOn[c] = int32(w)
		snap.QueueDepth[w] = int64(w * 5 % 7)
	}
	return ranks, snap
}
