package core

import (
	"math"
	"sync/atomic"

	"charm/internal/mem"
	"charm/internal/obs"
	"charm/internal/pmu"
	"charm/internal/task"
	"charm/internal/topology"
	"charm/internal/vtime"
)

// Worker is one runtime worker thread, dedicated to one simulated core
// (§4.6: one physical core per worker to prevent contention). Each worker
// owns a local task deque, an RPC/submission inbox, its virtual clock, and
// the decentralized scheduling state of Alg. 1 (spread_rate, decision
// timer, PMU snapshot).
type Worker struct {
	id int
	rt *Runtime

	core  atomic.Int32 // current simulated core
	clock vtime.Clock
	// blocked marks the worker as waiting on a barrier or synchronous
	// call; blocked workers are excluded from the throttle gate's
	// minimum so waiters cannot deadlock the fleet.
	blocked atomic.Bool

	deque *task.Deque[Task]
	inbox *task.Inbox[*Task]

	// Alg. 1 state (worker-private).
	spreadRate   int
	lastDecision int64
	lastFills    int64
	// lowStreak counts consecutive below-watermark intervals; the policy
	// consolidates only after two, debouncing borderline rates.
	lowStreak int

	// allocNode is the NUMA node new allocations bind to (set_mempolicy
	// analog, updated by Alg. 2).
	allocNode topology.NodeID
	// ownAllocs records this worker's Ctx.Alloc regions so
	// memory-migrating policies (AsymSched) can move them with the
	// worker. Owner-goroutine access only.
	ownAllocs []mem.Addr

	// Steal-order cache (stealorder.go), invalidated by the placement epoch.
	soCache []int
	soKind  orderKind
	soEpoch int64

	// lastThrottleOK caches the last virtual time the throttle gate
	// passed, to keep fine-grained Yield points cheap.
	lastThrottleOK int64
	// lastSample is worker 0's last scheduler tick (see markSample).
	lastSample int64

	// settleUntil suppresses scheduling decisions for a short period
	// after a migration, so the cold-cache refill burst is not mistaken
	// for workload-driven remote traffic (the oscillation damper behind
	// §4.3's "only when significant inefficiency is detected").
	settleUntil int64

	// fast caches the per-placement cost factors Ctx.advance needs
	// (fastpath.go). Owner-goroutine access only.
	fast placeFast

	// runCtx is the reused execution context for run-to-completion tasks:
	// one worker executes at most one such task at a time, so the Ctx never
	// needs to outlive execute().
	runCtx Ctx

	// taskPool and coPool recycle finished Task structs and idle coroutine
	// stacks (pull-coroutine + Ctx). Owner-goroutine access only;
	// recycled objects are fully re-zeroed before reuse.
	taskPool []*Task
	coPool   []*coroutine
}

// taskPoolCap and coPoolCap bound the per-worker free lists so a spiky
// phase cannot pin an unbounded object graph.
const (
	taskPoolCap = 256
	coPoolCap   = 64
)

func newWorker(rt *Runtime, id int) *Worker {
	w := &Worker{
		id:         id,
		rt:         rt,
		deque:      task.NewDeque[Task](256),
		inbox:      task.NewInbox[*Task](),
		spreadRate: 1,
	}
	w.fast.epoch = -1 // force the first placement-cache load
	return w
}

// newTask is Runtime.newTask fed from the worker's free list. Task IDs
// still come from the runtime-global sequence, so pooling never perturbs
// deterministic-mode identities.
func (w *Worker) newTask(fn func(*Ctx), g *group, stamp int64, coro bool, home int) *Task {
	if n := len(w.taskPool); n > 0 {
		t := w.taskPool[n-1]
		w.taskPool[n-1] = nil
		w.taskPool = w.taskPool[:n-1]
		*t = Task{id: w.rt.taskSeq.Add(1), fn: fn, grp: g, stamp: stamp, coro: coro, home: home, startT: -1}
		return t
	}
	return w.rt.newTask(fn, g, stamp, coro, home)
}

// freeTask returns a terminal task (finished, failed or discarded) to the
// free list, fully re-zeroed so no lifecycle
// state can leak into its next incarnation. Tasks still bound to a
// coroutine are never freed here: the coroutine path detaches the stack
// first.
func (w *Worker) freeTask(t *Task) {
	if !w.rt.pool || t.co != nil || len(w.taskPool) >= taskPoolCap {
		return
	}
	*t = Task{}
	w.taskPool = append(w.taskPool, t)
}

// ID returns the worker's unique ID (Alg. 2's unique_worker_ID).
func (w *Worker) ID() int { return w.id }

// Core returns the simulated core the worker currently runs on.
func (w *Worker) Core() topology.CoreID { return topology.CoreID(w.core.Load()) }

// Runtime returns the owning runtime.
func (w *Worker) Runtime() *Runtime { return w.rt }

// Clock returns the worker's virtual clock.
func (w *Worker) Clock() *vtime.Clock { return &w.clock }

// SpreadRate returns the worker's current Alg. 1 spread_rate.
func (w *Worker) SpreadRate() int { return w.spreadRate }

// SetSpreadRate overrides spread_rate (static policies and tests).
func (w *Worker) SetSpreadRate(r int) { w.spreadRate = r }

// placeOn pins the worker to core c, updating occupancy accounting and the
// memory policy. Initial placement; does not charge migration costs.
func (w *Worker) placeOn(c topology.CoreID) {
	w.core.Store(int32(c))
	w.rt.coreOcc[c].Add(1)
	w.rt.workerOnCore[c].Store(int32(w.id))
	w.allocNode = w.rt.M.Topo.NodeOfCore(c)
	w.rt.placeEpoch.Add(1)
}

// Migrate moves the worker to core c at virtual time now, charging the
// thread-switch cost and binding memory policy to c's NUMA node (the
// set_thread_affinity + set_mempolicy pair of Alg. 2).
func (w *Worker) Migrate(c topology.CoreID) {
	old := topology.CoreID(w.core.Load())
	if old == c {
		return
	}
	w.rt.coreOcc[old].Add(-1)
	w.rt.workerOnCore[old].CompareAndSwap(int32(w.id), -1)
	w.core.Store(int32(c))
	w.rt.coreOcc[c].Add(1)
	w.rt.workerOnCore[c].Store(int32(w.id))
	w.allocNode = w.rt.M.Topo.NodeOfCore(c)
	w.clock.Advance(w.rt.M.Topo.Cost.ThreadSwitch)
	w.rt.M.PMU.Add(int(c), pmu.Migration, 1)
	w.rt.met.migrations.Inc(w.id)
	w.rt.placeEpoch.Add(1)
	w.settleUntil = w.clock.Now() + 2*w.rt.opts.SchedulerTimer
	w.instant(obs.SpanMigration, w.clock.Now(), int64(c))
}

// instant records a profile instant (or Alg. 1 sample) of kind on the
// worker's track at virtual time t.
func (w *Worker) instant(kind obs.SpanKind, t, arg int64) {
	w.rt.tracer.Emit(w.id, obs.Span{Kind: kind, Start: t, End: t, Worker: int32(w.id),
		Chiplet: int32(w.rt.M.Topo.ChipletOf(w.Core())), Arg: arg})
}

// RebindAllocs moves the worker's own allocations to node (AsymSched's
// memory migration), charging the copy time against the worker's clock at
// the inter-socket transfer rate. It returns the bytes moved. Freed or
// non-Bind regions are skipped.
func (w *Worker) RebindAllocs(node topology.NodeID) int64 {
	var moved int64
	for _, a := range w.ownAllocs {
		n, ok := w.rt.M.Space.TryRebind(a, node)
		if ok {
			moved += n
		}
	}
	if moved > 0 {
		bw := w.rt.M.Topo.Cost.SocketBandwidth
		if bw > 0 {
			w.clock.Advance(int64(float64(moved) / bw))
		}
	}
	return moved
}

// FillsSinceDecision returns the fills-from-system delta since the last
// Alg. 1 decision (getEventCounter + reset semantics are handled by
// maybeTick).
func (w *Worker) FillsSinceDecision() int64 {
	return w.rt.M.PMU.FillsFromSystem(int(w.Core())) - w.lastFills
}

// loop is the worker's main scheduling loop. Under deterministic lockstep
// each iteration is one turn; otherwise the handoffs are no-ops.
func (w *Worker) loop() {
	ls := w.rt.ls
	defer w.rt.wg.Done()
	defer ls.handoff(w.id, lsDone, false, nil)
	defer w.closeCoPool()
	idle := 0
	ls.handoff(w.id, lsWaiting, true, nil) // check in and wait for the first turn
	for !w.rt.stop.Load() {
		w.step(&idle)
		if !ls.handoff(w.id, lsWaiting, true, nil) && idle > 16 {
			// Idle and nobody else took a turn (always so when free-running).
			yieldHost()
		}
	}
}

// step runs one scheduling iteration: handle a faulted core, then run the
// first available task (inbox, own deque, steal), else drift idle.
func (w *Worker) step(idle *int) {
	if w.checkFault() {
		*idle = 0
		return
	}
	w.throttle()
	if w.pumpJobs() {
		// The open-loop job service had due work (arrivals, breaker
		// evaluation, dispatch); the tasks it enqueued run on later steps.
		*idle = 0
		return
	}
	if t := w.drainInbox(); t != nil {
		w.execute(t)
		*idle = 0
		return
	}
	if t := w.deque.Pop(); t != nil {
		w.execute(t)
		*idle = 0
		return
	}
	if t := w.steal(); t != nil {
		w.execute(t)
		*idle = 0
		return
	}
	// Nothing runnable: drift the idle clock forward (capped at the
	// global maximum) so this worker does not pin the throttle gate,
	// and give the host scheduler room.
	w.idleDrift()
	*idle++
}

// idleTurn reports whether a step() of w now is certain to be idleDrift and
// nothing else: its core is up at its clock, the job service has nothing due
// by then, and every deque and inbox of the fleet is empty, so the drain,
// the pop and every steal probe find nothing (and no steal order is built).
// It may refuse a step that would idle, never accept one that would not.
// Lockstep only: other workers' queues hold still only on a quiescent fleet.
func (w *Worker) idleTurn() bool {
	rt, now := w.rt, w.clock.Now()
	if s := rt.svc.Load(); s != nil && s.nextWork.Load() <= now ||
		rt.opts.Faults.CoreDown(w.Core(), now) {
		return false
	}
	return rt.queuesEmpty()
}

// queuesEmpty reports whether every deque and inbox of the fleet is empty.
func (rt *Runtime) queuesEmpty() bool {
	for _, v := range rt.workers {
		if !v.deque.Empty() || !v.inbox.Empty() {
			return false
		}
	}
	return true
}

// throttle pauses the worker while its virtual clock runs more than the
// throttle window ahead of the slowest unblocked worker. This couples real
// execution order to virtual time: a virtually-idle worker gets real time
// to steal queued work before a fast host thread burns through it, keeping
// the simulated makespan honest regardless of host scheduling.
//
// A passed check is cached for a quarter window of virtual time so that
// fine-grained Yield points stay cheap.
func (w *Worker) throttle() {
	if w.rt.ls != nil {
		// Deterministic lockstep already serializes workers in virtual-
		// clock order; the wall-clock gate would deadlock against it.
		return
	}
	const window = throttleWindow
	now := w.clock.Now()
	if now-w.lastThrottleOK < window/4 {
		return
	}
	for !w.rt.stop.Load() {
		min := w.rt.minUnblockedClock()
		if now = w.clock.Now(); now <= min+window {
			w.lastThrottleOK = now
			return
		}
		yieldHost()
	}
}

// idleDrift advances an idle worker's clock by the idle quantum, capped at
// the fleet maximum, modeling time spent waiting for stealable work.
func (w *Worker) idleDrift() {
	t := w.clock.Now() + idleQuantum
	gm := w.rt.MaxWorkerClock()
	if s := w.rt.svc.Load(); s != nil {
		// Open loop: an all-idle fleet must keep virtual time moving toward
		// the next arrival or breaker evaluation, or the run deadlocks
		// before the next job lands. An exhausted source (MaxInt64) leaves
		// the fleet-maximum cap in force so idle clocks cannot run away.
		if nw := s.nextWork.Load(); nw > gm && nw != math.MaxInt64 {
			gm = nw
		}
	}
	if t > gm {
		t = gm
	}
	w.clock.SyncTo(t)
	if pw := w.rt.power; pw != nil {
		// Idle fleets still cross governor boundaries: temperatures must
		// keep decaying (and parks expiring) while no task runs.
		pw.MaybeTick(t)
	}
	// Keep the metrics history alive even when this worker has no tasks of
	// its own.
	if t-w.lastSample >= w.rt.opts.SchedulerTimer {
		w.markSample(t)
		w.rt.met.reg.MaybeSample(t)
	}
}

// markSample records worker 0's scheduler ticks, which pace its idle-turn
// metric samples; other workers offer one on every idle turn.
func (w *Worker) markSample(now int64) {
	if w.id == 0 {
		w.lastSample = now
	}
}

// drainInbox moves all but one inbox task to the deque and returns the
// first for immediate execution.
func (w *Worker) drainInbox() *Task {
	first := w.inbox.Take()
	if first == nil {
		return nil
	}
	for {
		t := w.inbox.Take()
		if t == nil {
			return first
		}
		w.deque.Push(t)
	}
}

// steal probes victims in the policy's preference order: the paper's
// strategy tries cores on the same chiplet before other chiplets (§4.4).
func (w *Worker) steal() *Task {
	self := w.Core()
	topo := w.rt.M.Topo
	selfCh := topo.ChipletOf(self)
	importOK := true
	if plan := w.rt.opts.Faults; plan != nil {
		// A thermally throttled chiplet never imports work: a stolen task
		// would execute here at the throttle multiplier while the victim —
		// or any cool die — runs it at full speed, and the imported heat
		// only deepens the throttle (the closed-loop governor's positive
		// feedback). Same-chiplet steals stay allowed; that work is
		// already committed to this die's queues. The one exception is a
		// *blocked* victim (parked, or waiting inside a barrier/call):
		// its queue cannot drain itself, so refusing it can starve the
		// fleet — a hot slow rescue beats a deadlock.
		importOK = plan.ThermalMilli(selfCh, w.clock.Now()) <= 1000
	}
	for _, victim := range w.rt.opts.Policy.StealOrder(w) {
		v := w.rt.workers[victim]
		vc := v.Core()
		if !importOK && topo.ChipletOf(vc) != selfCh && !v.blocked.Load() {
			continue
		}
		t := v.deque.Steal()
		if t == nil {
			continue
		}
		// Multi-tenant lease fence: don't import another tenant's task onto
		// a chiplet leased away from it — a bursting tenant's backlog must
		// drain on its own lease, not ride stealing across the fence. A
		// blocked victim is exempt (its queue cannot drain itself).
		if svc := w.rt.svc.Load(); svc != nil && !v.blocked.Load() &&
			!svc.stealAllowed(int(selfCh), t) {
			v.inbox.Put(t)
			continue
		}
		if t.pinned {
			if hw := w.rt.workers[t.home]; !hw.blocked.Load() {
				// Pinned tasks must run on their home worker; return it.
				v.inbox.Put(t)
				continue
			}
			// The home worker is blocked (parked, or waiting inside a
			// barrier/call), so it cannot run its own queue. Honoring the
			// pin would strand the task — and deadlock the fleet if the
			// task is itself a party of the barrier its home is waiting
			// in (an AllDo instance displaced into the deque by an
			// earlier arrival). The degradation contract is "run it on a
			// live worker": unpin and take it.
			t.pinned = false
		}
		w.clock.Advance(topo.Cost.StealPenalty + topo.CASLatency(self, vc))
		w.rt.M.PMU.Add(int(self), pmu.TaskSteal, 1)
		w.rt.met.steals.Inc(w.id)
		t.stealCount++
		if topo.ChipletOf(self) != topo.ChipletOf(vc) {
			w.rt.M.PMU.Add(int(self), pmu.StealRemoteChiplet, 1)
			w.rt.met.remoteSteals.Inc(w.id)
			t.remoteStolen = true
		}
		return t
	}
	return nil
}

// execute runs one task to completion (or through its coroutine lifecycle).
func (w *Worker) execute(t *Task) {
	w.clock.SyncTo(t.stamp)
	if t.pinned && t.home != w.id {
		// Misrouted pinned task (should not happen): forward home.
		w.rt.workers[t.home].inbox.Put(t)
		return
	}
	if t.jobCancelled() {
		// Cooperative cancellation: a never-started task is discarded
		// without ever getting a coroutine stack; a suspended coroutine is
		// resumed once so its Yield point unwinds the stack.
		if t.co != nil {
			w.unwindCancelled(t)
		} else {
			w.discardCancelled(t)
		}
		return
	}
	if !t.spawned {
		// First execution: charge the spawn cost and count the task live
		// until finishTask (suspended coroutines stay live, matching the
		// thread-concurrency semantics of Fig. 12).
		t.spawned = true
		if w.rt.opts.Overheads.Spawn > 0 {
			w.clock.Advance(w.rt.opts.Overheads.Spawn)
		}
		w.rt.liveTasks.Add(1)
	}
	if t.startT < 0 {
		t.startT = w.clock.Now()
	}
	if t.coro {
		w.runCoroutine(t)
	} else {
		// Run-to-completion tasks share the worker's one reused Ctx (a
		// worker executes at most one at a time); the deferred flush
		// settles any deferred repeat accesses even on a panic unwind, so
		// failed and cancelled tasks keep their charges.
		ctx := &w.runCtx
		*ctx = Ctx{w: w, task: t}
		if err := w.runTaskRecovered(t, func() { defer ctx.flushBatch(); t.fn(ctx) }); err != nil {
			if t.jobCancelled() {
				// The unwind (or a coincident failure) of a cancelled
				// job's task is discarded, not reported as a failure.
				w.discardCancelled(t)
			} else {
				w.failTask(t, err)
			}
		} else {
			w.finishTask(t)
		}
	}
	w.maybeTick()
}

func (w *Worker) finishTask(t *Task) {
	now := w.clock.Now()
	w.rt.M.PMU.Add(int(w.Core()), pmu.TaskRun, 1)
	w.rt.liveTasks.Add(-1)
	w.rt.met.tasks.Inc(w.id)
	w.rt.met.taskLatency.Observe(w.id, now-t.stamp)
	w.rt.met.taskExec.Observe(w.id, now-t.startT)
	ch := w.rt.M.Topo.ChipletOf(w.Core())
	if t.job != nil {
		// Feed the job service's per-chiplet slowdown window (the
		// PMU-observed half of the circuit-breaker signal).
		t.job.svc.observeExec(int(ch), now-t.startT)
	}
	var flags uint8
	if t.remoteStolen {
		flags |= obs.FlagRemoteSteal
	}
	if t.delegated {
		flags |= obs.FlagDelegated
	}
	// Arg carries the first-execution time (Arg−Start = dispatch wait,
	// End−Arg = execution window) and Arg2 the window's accumulated
	// memory/fabric stall.
	w.rt.tracer.Emit(w.id, obs.Span{
		Trace: t.trace(), Kind: obs.SpanTask, Start: t.stamp, End: now,
		Worker: int32(w.id), Chiplet: int32(ch), Stage: t.stage,
		Arg: t.startT, Arg2: t.stallNS,
		Task: t.id, Home: int32(t.home), Steals: uint16(t.stealCount), Hops: uint16(t.hops),
		Flags: flags,
	})
	if t.grp != nil {
		t.grp.taskDone(w, now)
	}
	if t.onDone != nil {
		t.onDone.finish.Store(now)
		t.onDone.done.Store(true)
	}
	// Terminal: nothing references the task past its completion signals.
	w.freeTask(t)
}

// maybeTick runs the policy's periodic decision (Alg. 1's entry condition:
// elapsed >= SCHEDULER_TIMER) at task boundaries and yield points.
func (w *Worker) maybeTick() {
	now := w.clock.Now()
	if pw := w.rt.power; pw != nil {
		pw.MaybeTick(now)
	}
	if now-w.lastDecision < w.rt.opts.SchedulerTimer {
		return
	}
	if now < w.settleUntil {
		// Post-migration settle period: discard the refill burst.
		w.lastDecision = now
		w.lastFills = w.rt.M.PMU.FillsFromSystem(int(w.Core()))
		return
	}
	w.markSample(now)
	w.rt.met.reg.MaybeSample(now)
	w.rt.opts.Policy.OnTimer(w, now-w.lastDecision)
	w.lastDecision = now
	w.lastFills = w.rt.M.PMU.FillsFromSystem(int(w.Core()))
}
