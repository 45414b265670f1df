// Package core implements the CHARM runtime (§4 of the paper): worker
// threads pinned to simulated cores, per-core lock-free task deques with
// chiplet-first work stealing, coroutine-based fine-grained parallelism,
// the decentralized chiplet scheduling policy (Alg. 1) with its
// collision-free location update (Alg. 2), and the performance profiler
// the adaptive controller feeds on.
//
// Baseline runtimes (RING, SHOAL, AsymSched, SAM, std::async) reuse this
// engine through the Policy interface: they differ in placement, stealing
// order, adaptation, and task-switch costs, exactly the axes the paper
// evaluates.
package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"charm/internal/fault"
	"charm/internal/mem"
	"charm/internal/obs"
	"charm/internal/place"
	"charm/internal/pmu"
	"charm/internal/power"
	"charm/internal/sim"
	"charm/internal/task"
	"charm/internal/topology"
	"charm/internal/vtime"
)

// Default tuning constants; see §4.6 of the paper. The virtual-time
// defaults are calibrated for the simulator's scaled workloads — the paper
// uses 500 ms wall-clock on full-size inputs; DESIGN.md discusses the
// scaling relation.
const (
	// DefaultSchedulerTimer is the Alg. 1 decision interval in virtual ns.
	DefaultSchedulerTimer = 500_000 // 500 µs virtual
	// throttleWindow bounds how far (in virtual ns) a free-running
	// worker's clock may run ahead of the slowest unblocked worker before
	// it pauses to let virtual laggards take work. It caps the virtual-time
	// skew introduced by host scheduling.
	throttleWindow = 5_000
	// idleQuantum is the virtual time an idle worker drifts forward per
	// fruitless steal round.
	idleQuantum = 2_000
	// hysteresis divides RemoteFillThreshold for Alg. 1's consolidation
	// decision: spread_rate decrements only when the rate falls below
	// threshold/hysteresis, which keeps workers whose rate sits near the
	// threshold from flip-flopping (each flip is a migration). 1 would
	// reproduce Alg. 1 literally.
	hysteresis = 4
)

// TaskOverheads models the concurrency substrate a runtime uses for tasks.
// CHARM uses user-level coroutines; the std::async baseline uses OS threads.
type TaskOverheads struct {
	// Spawn is charged when a task is created.
	Spawn int64
	// Switch is charged on every suspend/resume pair.
	Switch int64
}

// Options configure a Runtime.
type Options struct {
	// Workers is the number of worker threads; the engine dedicates one
	// simulated core per worker (§4.6). Required, must be positive and at
	// most the machine's core count unless Oversubscribe is set.
	Workers int
	// Policy selects placement/scheduling; nil selects NewCharmPolicy().
	Policy Policy
	// SchedulerTimer and RemoteFillThreshold parameterize Alg. 1;
	// zero selects the defaults.
	SchedulerTimer      int64
	RemoteFillThreshold int64
	// Overheads selects the task substrate costs; zero values select the
	// topology's coroutine costs.
	Overheads TaskOverheads
	// Oversubscribe permits more workers than cores (used by the
	// std::async baseline to model thread floods).
	Oversubscribe bool
	// UseSMT permits up to SMTWays workers per physical core (hardware
	// threads). CHARM itself never co-schedules hyperthread siblings
	// (§4.6); this knob exists for baselines and ablations.
	UseSMT bool
	// Faults is a compiled fault plan (see internal/fault). The runtime
	// arms it on the machine's fabric and memory channels and handles
	// core-offline windows itself: offline workers drain their queues to
	// live workers and either re-home (Rehomer policies) or park. Nil
	// runs a permanently healthy machine.
	Faults *fault.Plan
	// Power enables the closed-loop thermal/energy plane (internal/power):
	// per-chiplet energy accounting from the PMU counters, an RC thermal
	// model advanced in virtual time, and a governor that feeds throttle
	// and park decisions back through the fault plan's dynamic overlay.
	// The plan in Faults hosts the overlay; when Faults is nil an empty
	// plan is compiled to carry it. Nil disables the plane entirely (the
	// hot paths then pay a single nil check).
	Power *power.Config
	// Deterministic serializes workers in virtual-clock lockstep (see
	// lockstep.go): runs become bit-identical across repetitions at the
	// price of host parallelism. Only bench's graph-free workload, the
	// smoke test that mirrors it and the recorded benchmarks leave it off
	// (TestTestsRunLockstep keeps it so); the free-running engine goes
	// with them (ROADMAP 1(d)).
	Deterministic bool
}

// Stats summarizes one phase or run.
type Stats struct {
	// Makespan is the virtual time at which the last task of the run
	// finished, relative to the run's start.
	Makespan int64
	// Tasks is the number of tasks executed.
	Tasks int64
	// Steals counts successful steals; RemoteSteals those that crossed a
	// chiplet boundary.
	Steals       int64
	RemoteSteals int64
	// Migrations counts Alg. 2 enactments.
	Migrations int64
}

// Runtime executes tasks on a simulated machine.
type Runtime struct {
	M    *sim.Machine
	opts Options
	// barrierCost is the virtual cost of one barrier release.
	barrierCost int64

	workers []*Worker
	// workerOnCore[c] holds the worker ID currently pinned to core c,
	// or -1. Multiple workers can transiently share a core while their
	// spread rates diverge; coreOcc tracks the multiplicity.
	workerOnCore []atomic.Int32
	coreOcc      []atomic.Int32

	// ranks precomputes the topological distance ordering every placement
	// view shares (steal-victim ordering, fault re-homing).
	ranks *place.Ranks

	phase      atomic.Int64 // virtual start time of the next submission
	placeEpoch atomic.Int64 // bumped on every placement change
	stop       atomic.Bool
	// lifecycle moves lcNew → lcStarted → lcStopped exactly once each;
	// activeSubmits counts in-flight submissions so Stop can wait out a
	// racing Run/SubmitJob instead of abandoning its tasks mid-air.
	lifecycle     atomic.Int32
	activeSubmits atomic.Int64
	wg            sync.WaitGroup

	// svc is the open-loop job service (nil until ServeJobs/SubmitJob).
	svc atomic.Pointer[JobService]

	taskSeq  atomic.Uint64
	phaseSeq atomic.Uint64

	// liveTasks tracks currently executing or suspended tasks (LiveTasks,
	// the charm_live_tasks gauge).
	liveTasks atomic.Int64

	met *rtMetrics
	// tracer is the runtime's one event record: one shard per worker plus
	// one for the job service's lock-serialized emissions. Both of its
	// gates (EnableTracing, EnableProfiler) are off by default.
	tracer *obs.Tracer

	// power is the closed-loop thermal/energy governor (nil when the plane
	// is disabled — hot paths check the pointer once).
	power *power.Plane

	// ls serializes workers when Options.Deterministic is set (else nil).
	ls *lockstep

	// batch enables the epoch-batched access fast path (fastpath.go) and
	// pool task-struct and coroutine-stack recycling. Both are always on;
	// in-package tests turn them off before Start to run the per-access
	// and unpooled reference models, which must produce identical
	// simulated results.
	batch bool
	pool  bool
}

// NewRuntime builds a runtime on machine m. It panics on invalid options
// (a configuration programming error).
func NewRuntime(m *sim.Machine, opts Options) *Runtime {
	if opts.Workers <= 0 {
		panic(fmt.Sprintf("core: Workers must be positive, got %d", opts.Workers))
	}
	if !opts.Oversubscribe {
		limit := m.Topo.NumCores()
		unit := "cores"
		if opts.UseSMT {
			limit = m.Topo.NumThreads()
			unit = "hardware threads"
		}
		if opts.Workers > limit {
			panic(fmt.Sprintf("core: %d workers exceed %d %s", opts.Workers, limit, unit))
		}
	}
	if opts.Policy == nil {
		opts.Policy = NewCharmPolicy()
	}
	if opts.SchedulerTimer <= 0 {
		opts.SchedulerTimer = DefaultSchedulerTimer
	}
	if opts.RemoteFillThreshold <= 0 {
		// One fill-from-system per 500 ns marks a worker as
		// remote-traffic bound: comfortably above the residual rate of a
		// cache-resident worker (~0) and below a DRAM-bound worker's
		// (one per ~105-200 ns). Expressed per timer interval, matching
		// Alg. 1's RMT_CHIP_ACCESS_RATE semantics; the paper's absolute
		// constant (300 per 500 ms) is specific to its hardware PMU.
		opts.RemoteFillThreshold = opts.SchedulerTimer / 500
		if opts.RemoteFillThreshold < 1 {
			opts.RemoteFillThreshold = 1
		}
	}
	if opts.Overheads.Switch == 0 {
		opts.Overheads.Switch = m.Topo.Cost.CoroutineSwitch
	}
	if opts.Faults != nil && opts.Faults.Empty() && opts.Power == nil {
		opts.Faults = nil // an empty plan is a healthy machine; skip the hooks
	}
	var pw *power.Plane
	if opts.Power != nil {
		// The plane rides on the fault plan's dynamic overlay; compile an
		// empty plan to host it when no static faults were configured.
		if opts.Faults == nil {
			pl, err := (*fault.Schedule)(nil).Compile(m.Topo)
			if err != nil {
				panic(fmt.Sprintf("core: empty fault plan: %v", err))
			}
			opts.Faults = pl
		}
		var err error
		pw, err = power.NewPlane(m.Topo, m.PMU, opts.Faults, *opts.Power)
		if err != nil {
			panic(fmt.Sprintf("core: power plane: %v", err))
		}
	}

	rt := &Runtime{
		M:            m,
		opts:         opts,
		workerOnCore: make([]atomic.Int32, m.Topo.NumCores()),
		coreOcc:      make([]atomic.Int32, m.Topo.NumCores()),
		ranks:        place.NewRanks(m.Topo),
		power:        pw,
		batch:        true,
		pool:         true,
		// Barrier release wakes every party: the cost grows with the
		// worker count, which is what erodes fine-grained parallel
		// regions at high core counts (§5.4's fragmentation effect).
		barrierCost: 500 + 20*int64(opts.Workers),
	}
	// The observability layer: a per-worker-sharded registry covering the
	// runtime and the whole simulated machine, and the event record.
	rt.met = newRTMetrics(rt, opts.Workers)
	m.Instrument(rt.met.reg)
	if rt.power != nil {
		rt.power.Instrument(rt.met.reg)
	}
	rt.tracer = obs.NewTracer(opts.Workers+1, 0)
	for i := range rt.workerOnCore {
		rt.workerOnCore[i].Store(-1)
	}
	rt.workers = make([]*Worker, opts.Workers)
	for i := range rt.workers {
		rt.workers[i] = newWorker(rt, i)
	}
	for _, w := range rt.workers {
		core := opts.Policy.InitialCore(w.id, opts.Workers, m.Topo)
		w.placeOn(core)
	}
	if opts.Faults != nil {
		// One wiring point for the whole stack: fabric links and memory
		// channels read the same plan the scheduler does.
		m.SetFaultPlan(opts.Faults)
	}
	if opts.Deterministic {
		rt.ls = newLockstep(rt, opts.Workers)
	}
	return rt
}

// Runtime lifecycle states.
const (
	lcNew int32 = iota
	lcStarted
	lcStopped
)

// ErrFinalized is returned (SubmitJob) or panicked (Run and friends) by
// submissions that race or follow Stop/Finalize.
var ErrFinalized = errors.New("core: runtime finalized")

// Start launches the worker goroutines (under Deterministic, the one kernel
// goroutine that runs them as coroutines). Call it once, before any submission.
func (rt *Runtime) Start() {
	if !rt.lifecycle.CompareAndSwap(lcNew, lcStarted) {
		panic("core: Start called twice")
	}
	if rt.ls != nil {
		rt.ls.spawn()
		rt.wg.Add(1)
		go rt.ls.kernel()
		return
	}
	for _, w := range rt.workers {
		rt.wg.Add(1)
		go w.loop()
	}
}

// Stop terminates the workers. Pending tasks are abandoned; call only when
// the last submission has completed. Stop is idempotent, and a Stop racing
// an in-flight submission waits for that submission's tasks to drain
// before tearing the fleet down; later submissions fail with ErrFinalized.
func (rt *Runtime) Stop() {
	if !rt.lifecycle.CompareAndSwap(lcStarted, lcStopped) {
		// Never started: just mark stopped so submissions fail typed.
		// Already stopped: idempotent no-op.
		rt.lifecycle.CompareAndSwap(lcNew, lcStopped)
		return
	}
	for rt.activeSubmits.Load() > 0 {
		yieldHost()
	}
	if ls := rt.ls; ls != nil {
		// The kernel (like a pauser) may be waiting on cond; woken, it sees
		// stop and runs every loop to its end. Stop is set under mu, so a
		// wake either grants before it or sees it (wake).
		ls.mu.Lock()
		rt.stop.Store(true)
		ls.cond.Broadcast()
		ls.mu.Unlock()
	} else {
		rt.stop.Store(true)
	}
	rt.wg.Wait()
}

// submitBegin registers an in-flight submission. It fails once the
// lifecycle reached stopped; the registration order against Stop's CAS
// decides whether Stop waits for this submission or refuses it.
func (rt *Runtime) submitBegin() bool {
	rt.activeSubmits.Add(1)
	if rt.lifecycle.Load() == lcStopped {
		rt.activeSubmits.Add(-1)
		return false
	}
	return true
}

func (rt *Runtime) submitEnd() { rt.activeSubmits.Add(-1) }

// Workers returns the number of workers.
func (rt *Runtime) Workers() int { return len(rt.workers) }

// Worker returns worker i (for policies and tests).
func (rt *Runtime) Worker(i int) *Worker { return rt.workers[i] }

// Power returns the closed-loop thermal/energy plane, or nil when the
// plane is disabled.
func (rt *Runtime) Power() *power.Plane { return rt.power }

// Tracer returns the runtime's event record (both gates off by default;
// see EnableTracing and EnableProfiler).
func (rt *Runtime) Tracer() *obs.Tracer { return rt.tracer }

// EnableTracing turns causal job tracing on or off. With it and the
// profiler off, every span emission point costs at most two atomic loads.
func (rt *Runtime) EnableTracing(on bool) { rt.tracer.SetEnabled(on) }

// trShard is the tracer shard index for service-side emissions (the
// extra shard past the per-worker ones, serialized by svc.mu).
func (rt *Runtime) trShard() int { return len(rt.workers) }

// Now returns the current phase clock: the virtual time up to which all
// submitted phases have completed.
func (rt *Runtime) Now() int64 { return rt.phase.Load() }

// MaxWorkerClock returns the maximum clock over all workers.
func (rt *Runtime) MaxWorkerClock() int64 {
	var m int64
	for _, w := range rt.workers {
		if t := w.clock.Now(); t > m {
			m = t
		}
	}
	return m
}

// minUnblockedClock returns the minimum clock over workers not blocked in a
// barrier or synchronous call, or MaxInt64 when all are blocked.
func (rt *Runtime) minUnblockedClock() int64 {
	min := int64(1<<63 - 1)
	for _, w := range rt.workers {
		if w.blocked.Load() {
			continue
		}
		if t := w.clock.Now(); t < min {
			min = t
		}
	}
	return min
}

// group tracks the outstanding tasks of one submission.
type group struct {
	pending atomic.Int64
	bar     vtime.Barrier
	// done wakes a phase submitter once every task has finished; nil on a
	// job stage group, whose last task advances the job instead.
	done chan struct{}
	// panicked holds the first task failure of the group (nil when clean);
	// submitWait re-panics it on the submitter so a failing task behaves
	// like a failing function call instead of killing a worker.
	panicked atomic.Pointer[TaskError]
	// job links a stage group back to its open-loop job: the last task to
	// finish advances the job instead of waking a submitter.
	job *Job
}

func newGroup() *group {
	return &group{done: make(chan struct{})}
}

func (g *group) add(n int64) { g.pending.Add(n) }

// taskDone counts one finished task of g at virtual time t on worker w.
func (g *group) taskDone(w *Worker, t int64) {
	g.bar.Enter(t)
	if g.pending.Add(-1) == 0 {
		if g.job != nil {
			g.job.svc.stageDone(w, g.job, g)
		} else {
			close(g.done)
		}
	}
}

func (g *group) fail(e *TaskError) {
	g.panicked.CompareAndSwap(nil, e)
}

// Task is one schedulable unit of work.
type Task struct {
	// Node links the task into one worker inbox at a time, so enqueueing
	// it allocates nothing.
	task.Node[*Task]

	id    uint64
	fn    func(*Ctx)
	grp   *group
	stamp int64 // virtual time before which the task cannot start
	coro  bool  // run as a suspendable coroutine
	co    *coroutine
	// pinned prevents stealing-based migration (used by AllDo).
	pinned bool
	home   int // worker the task was submitted to
	// onDone signals a synchronous Call's completion (nil otherwise).
	onDone *callGroup

	// Lifecycle-span state (read into the task span at completion). startT
	// is the virtual time of the first execution (-1 until then);
	// stealCount/remoteStolen record steal provenance; delegated/hops
	// record the delegation chain depth.
	startT       int64
	stealCount   int32
	remoteStolen bool
	delegated    bool
	hops         int32

	// Fault-tolerance state: spawned marks the first execution's
	// accounting as done (so a resumed coroutine is not double-counted);
	// err carries a coroutine failure from the coroutine's stack back to
	// the worker (ordered by the switch back).
	spawned bool
	err     *TaskError

	// job links the task to its open-loop job (nil for phase submissions);
	// workers poll its cancellation flag at discard and yield points.
	job *Job
	// stage is the job stage index the task belongs to (trace spans);
	// stallNS accumulates the task's simulated memory/fabric access time,
	// the stall half of its execution window. Worker-owned.
	stage   int32
	stallNS int64
}

// trace is the TraceID of the task's job, 0 (the runtime scope) outside
// any job.
func (t *Task) trace() obs.TraceID {
	if t.job == nil {
		return 0
	}
	return obs.TraceID(t.job.id)
}

func (rt *Runtime) newTask(fn func(*Ctx), g *group, stamp int64, coro bool, home int) *Task {
	return &Task{
		id:     rt.taskSeq.Add(1),
		fn:     fn,
		grp:    g,
		stamp:  stamp,
		coro:   coro,
		home:   home,
		startT: -1,
	}
}

// Run executes fn as a single root task on worker 0 and waits for it and
// every task it spawned (transitively) to finish. It returns the phase
// statistics.
func (rt *Runtime) Run(fn func(*Ctx)) Stats {
	return rt.submitWait([]func(*Ctx){fn}, false, false)
}

// AllDo runs fn once per worker, pinned (not stealable), and waits for all
// instances — the all_do() primitive of the CHARM API. Tasks may call
// ctx.Barrier to phase-synchronize.
func (rt *Runtime) AllDo(fn func(*Ctx)) Stats {
	fns := make([]func(*Ctx), len(rt.workers))
	for i := range fns {
		fns[i] = fn
	}
	return rt.submitWait(fns, true, false)
}

// AllDoCo is AllDo with coroutine tasks (suspendable via ctx.Yield).
func (rt *Runtime) AllDoCo(fn func(*Ctx)) Stats {
	fns := make([]func(*Ctx), len(rt.workers))
	for i := range fns {
		fns[i] = fn
	}
	return rt.submitWait(fns, true, true)
}

// ParallelFor splits [lo, hi) into chunks of at most grain iterations and
// executes body(ctx, i0, i1) over them, distributing chunks round-robin and
// letting work stealing balance the rest. It waits for completion.
func (rt *Runtime) ParallelFor(lo, hi, grain int, body func(ctx *Ctx, i0, i1 int)) Stats {
	if grain <= 0 {
		grain = 1
	}
	var fns []func(*Ctx)
	for s := lo; s < hi; s += grain {
		e := s + grain
		if e > hi {
			e = hi
		}
		s, e := s, e
		fns = append(fns, func(ctx *Ctx) { body(ctx, s, e) })
	}
	if len(fns) == 0 {
		return Stats{}
	}
	return rt.submitWait(fns, false, false)
}

// submitWait distributes one task per fns entry (round-robin over workers;
// pinned tasks go to their same-index worker), waits for the group, and
// advances the phase clock.
func (rt *Runtime) submitWait(fns []func(*Ctx), pinned, coro bool) Stats {
	if rt.lifecycle.Load() == lcNew {
		panic("core: runtime not started")
	}
	if !rt.submitBegin() {
		panic(ErrFinalized)
	}
	defer rt.submitEnd()
	start := rt.phase.Load()
	seq := rt.phaseSeq.Add(1)
	g := newGroup()
	g.add(int64(len(fns)))
	s0 := rt.snapshotCounters()
	if rt.ls != nil {
		rt.ls.pause()
	}
	for i, fn := range fns {
		var wid int
		pin := pinned
		if pinned {
			// AllDo: instance i belongs to worker i by construction.
			wid = i % len(rt.workers)
		} else {
			wid = rt.opts.Policy.AssignWorker(i, seq, len(rt.workers))
		}
		if rt.opts.Faults != nil && rt.opts.Faults.CoreDown(rt.workers[wid].Core(), start) {
			// The assigned worker's core is offline at phase start: route
			// to a live worker instead of queueing work on a parked one.
			// The rerouted instance loses its pin — its home is gone, so
			// any live worker may run it. Keeping the pin would strand it
			// in the replacement's deque if that worker blocks inside a
			// barrier the instance is itself a party of (thieves bounce
			// pinned tasks back to their home).
			wid = rt.nextLiveWorker(wid, start)
			pin = false
		}
		w := rt.workers[wid]
		t := rt.newTask(fn, g, start, coro, w.id)
		t.pinned = pin
		w.inbox.Put(t)
	}
	if rt.ls != nil {
		rt.ls.resume()
	}
	<-g.done
	if p := g.panicked.Load(); p != nil {
		// Propagate the first task failure to the submitter as a typed
		// error, carrying the original stack and attribution.
		panic(p)
	}
	end := g.bar.Release(rt.barrierCost)
	rt.phase.Store(end)
	s1 := rt.snapshotCounters()
	return Stats{
		Makespan:     end - start,
		Tasks:        s1[0] - s0[0],
		Steals:       s1[1] - s0[1],
		RemoteSteals: s1[2] - s0[2],
		Migrations:   s1[3] - s0[3],
	}
}

func (rt *Runtime) snapshotCounters() [4]int64 {
	p := rt.M.PMU
	return [4]int64{
		p.Total(pmu.TaskRun), p.Total(pmu.TaskSteal),
		p.Total(pmu.StealRemoteChiplet), p.Total(pmu.Migration),
	}
}

// Alloc reserves simulated memory bound to the given NUMA node.
func (rt *Runtime) Alloc(size int64, node topology.NodeID) mem.Addr {
	return rt.M.Space.AllocLocal(size, node)
}

// AllocPolicy reserves simulated memory under an explicit policy.
func (rt *Runtime) AllocPolicy(size int64, p mem.Policy, node topology.NodeID) mem.Addr {
	return rt.M.Space.Alloc(size, p, node)
}

// LiveTasks returns the number of currently executing or suspended tasks
// (the "thread concurrency" the Fig. 12 trace samples).
func (rt *Runtime) LiveTasks() int64 { return rt.liveTasks.Load() }

// yieldHost cooperatively yields the host goroutine while polling.
func yieldHost() { runtime.Gosched() }
