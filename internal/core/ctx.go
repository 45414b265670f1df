package core

import (
	"fmt"
	"sync/atomic"

	"charm/internal/mem"
	"charm/internal/pmu"
	"charm/internal/topology"
)

// Ctx is the execution context handed to every task. It routes the task's
// memory accesses through the simulated machine, advances the executing
// worker's virtual clock, and exposes the CHARM task API (spawn, yield,
// call, barrier).
//
// A Ctx is only valid inside the task function it was created for.
type Ctx struct {
	w    *Worker
	task *Task
	co   *coroutine
	// bat is the pending run of deferred repeat accesses (fastpath.go).
	bat accessBatch
}

// Worker returns the executing worker's ID. For coroutines this can change
// across Yield points when the task migrates.
func (c *Ctx) Worker() int { return c.w.id }

// CoreID returns the simulated core currently executing the task.
func (c *Ctx) CoreID() topology.CoreID { return c.w.Core() }

// Chiplet returns the chiplet of the executing core.
func (c *Ctx) Chiplet() topology.ChipletID {
	return c.w.fastState(c.w.clock.Now()).chiplet
}

// Now returns the task's current virtual time. Reading the clock settles
// any deferred repeat accesses first, so the time observed includes every
// access the task has issued.
func (c *Ctx) Now() int64 {
	c.flushBatch()
	return c.w.clock.Now()
}

// Runtime returns the owning runtime.
func (c *Ctx) Runtime() *Runtime { return c.w.rt }

// advance adds cost to the worker clock, inflated by core occupancy when
// several workers share one physical core (up to the core's SMT width the
// sharing is hyperthreading, beyond it timesharing) and by the chiplet's
// thermal-throttle factor. The factors come from the worker's placement
// cache (fastpath.go), which reloads only when the placement epoch moves
// or the clock crosses a thermal segment boundary.
func (c *Ctx) advance(cost int64) {
	w := c.w
	w.clock.Advance(w.fastState(w.clock.Now()).inflate(cost))
}

// stall charges an access cost and accumulates it into the task's stall
// aggregate, the memory/fabric half of its trace span's execution window.
func (c *Ctx) stall(cost int64) {
	if c.task != nil {
		c.task.stallNS += cost
	}
	c.advance(cost)
}

// Read simulates reading [addr, addr+size).
func (c *Ctx) Read(addr mem.Addr, size int64) {
	c.access(addr, size, false)
}

// Write simulates writing [addr, addr+size).
func (c *Ctx) Write(addr mem.Addr, size int64) {
	c.access(addr, size, true)
}

// RMW simulates an atomic read-modify-write on [addr, addr+size): a read, a
// write, and the intra-chiplet CAS cost (crossing-chiplet cost emerges from
// the coherence model when the line is held elsewhere).
func (c *Ctx) RMW(addr mem.Addr, size int64) {
	c.flushBatch()
	core, now := c.w.Core(), c.w.clock.Now()
	cost := c.w.rt.M.Access(core, now, addr, size, false)
	cost += c.w.rt.M.Access(core, now+cost, addr, size, true)
	cost += c.w.rt.M.Topo.Cost.CASIntraChiplet
	c.stall(cost)
}

// Compute charges ns nanoseconds of pure CPU work. The busy time is also
// counted on the core's ComputeNS PMU counter — the signal the energy
// model prices into dynamic compute power.
func (c *Ctx) Compute(ns int64) {
	c.flushBatch()
	if ns > 0 {
		// Heterogeneous chiplets run compute at their kind's speed: an
		// accelerator shrinks the busy-time, an efficiency core stretches
		// it. The scaled time is what the PMU prices (a faster die busy
		// for less virtual time burns correspondingly less energy).
		if m := c.w.fastState(c.w.clock.Now()).compMilli; m != 1000 {
			ns = ns * m / 1000
			if ns < 1 {
				ns = 1
			}
		}
		c.w.rt.M.PMU.Add(int(c.w.Core()), pmu.ComputeNS, ns)
	}
	c.advance(ns)
}

// Alloc reserves simulated memory bound to the worker's current NUMA node
// (the allocation policy Alg. 2 maintains). The worker remembers its
// allocations so memory-migrating policies can move them with it.
func (c *Ctx) Alloc(size int64) mem.Addr {
	a := c.w.rt.M.Space.AllocLocal(size, c.w.allocNode)
	c.w.ownAllocs = append(c.w.ownAllocs, a)
	return a
}

// Yield is the cooperative scheduling point of §4.4. In a coroutine task it
// suspends execution: the worker regains control, may run or steal other
// tasks, the profiler/adaptive controller runs, and the coroutine resumes
// later — possibly on a different worker and chiplet. In a run-to-completion
// task it is only a scheduling check point (the Alg. 1 timer).
func (c *Ctx) Yield() {
	c.flushBatch()
	if c.co == nil {
		if c.task != nil && c.task.jobCancelled() {
			// Cooperative cancellation point: unwind the task body; the
			// worker's recover path discards instead of failing it.
			panic(cancelUnwind{})
		}
		// Scheduling point: honor the virtual-time gate (so concurrent
		// tasks interleave at window granularity even mid-task) and run
		// the Alg. 1 timer. Under lockstep the turn cycles instead, which
		// interleaves workers in virtual-clock order.
		c.w.rt.ls.handoff(c.w.id, lsWaiting, false, nil)
		c.w.throttle()
		c.w.maybeTick()
		return
	}
	c.co.yield()
}

// Spawn schedules fn as a new task in the same completion group, on the
// current worker's deque (stealable, so load balancing distributes it).
func (c *Ctx) Spawn(fn func(*Ctx)) {
	c.flushBatch()
	t := c.w.newTask(fn, c.task.grp, c.w.clock.Now(), false, c.w.id)
	t.job = c.task.job
	t.stage = c.task.stage
	c.task.grp.add(1)
	c.w.rt.met.spawns.Inc(c.w.id)
	c.w.deque.Push(t)
}

// SpawnCo schedules fn as a coroutine task (suspendable via Yield).
func (c *Ctx) SpawnCo(fn func(*Ctx)) {
	c.flushBatch()
	t := c.w.newTask(fn, c.task.grp, c.w.clock.Now(), true, c.w.id)
	t.job = c.task.job
	t.stage = c.task.stage
	c.task.grp.add(1)
	c.w.rt.met.spawns.Inc(c.w.id)
	c.w.deque.Push(t)
}

// CallAsync sends fn for asynchronous execution on the target worker (the
// call_async RPC of the CHARM API). The message pays the fabric latency
// between the two workers' cores.
func (c *Ctx) CallAsync(target int, fn func(*Ctx)) {
	c.flushBatch()
	rt := c.w.rt
	if target < 0 || target >= len(rt.workers) {
		panic(fmt.Sprintf("core: CallAsync target %d out of range", target))
	}
	target = rt.liveTarget(target, c.w.clock.Now())
	tw := rt.workers[target]
	// The sender pays the message-issue cost; the in-flight latency is
	// carried by the task's start stamp.
	c.advance(rt.M.Topo.Cost.StealPenalty)
	delay := rt.M.Fabric.MessageDelay(c.w.Core(), tw.Core(), c.w.clock.Now(), 64)
	t := c.w.newTask(fn, c.task.grp, c.w.clock.Now()+delay, false, target)
	t.pinned = true
	t.job = c.task.job
	t.stage = c.task.stage
	t.delegated = true
	t.hops = c.task.hops + 1
	rt.met.delegations.Inc(c.w.id)
	c.task.grp.add(1)
	tw.inbox.Put(t)
}

// Call executes fn on the target worker and blocks until it completes (the
// synchronous call RPC). The reply pays the return fabric latency. Calling
// a worker's own ID runs fn inline. From a run-to-completion task, Call on
// another worker spins the host thread; prefer coroutines for heavy RPC use.
func (c *Ctx) Call(target int, fn func(*Ctx)) {
	c.flushBatch()
	rt := c.w.rt
	if target == c.w.id {
		fn(c)
		return
	}
	if target < 0 || target >= len(rt.workers) {
		panic(fmt.Sprintf("core: Call target %d out of range", target))
	}
	target = rt.liveTarget(target, c.w.clock.Now())
	if target == c.w.id {
		fn(c)
		return
	}
	tw := rt.workers[target]
	sendDelay := rt.M.Fabric.MessageDelay(c.w.Core(), tw.Core(), c.w.clock.Now(), 64)
	var done atomic.Bool
	var finish atomic.Int64
	g := &callGroup{done: &done, finish: &finish}
	t := c.w.newTask(fn, nil, c.w.clock.Now()+sendDelay, false, target)
	t.pinned = true
	t.grp = nil
	t.onDone = g
	// Propagate the job so a cancelled job's RPC body is discarded (its
	// onDone still fires, releasing the caller's poll loop below).
	t.job = c.task.job
	t.stage = c.task.stage
	t.delegated = true
	t.hops = c.task.hops + 1
	rt.met.delegations.Inc(c.w.id)
	tw.inbox.Put(t)
	if c.co != nil {
		// Coroutine: suspend between polls; the worker keeps scheduling.
		for !done.Load() {
			c.co.yield()
		}
	} else if ls := rt.ls; ls != nil {
		// Deterministic mode: hand the turn away until the reply lands.
		c.w.blocked.Store(true)
		ls.handoff(c.w.id, lsBlocked, false, done.Load)
		c.w.blocked.Store(false)
	} else {
		// Run-to-completion task: the worker itself blocks.
		c.w.blocked.Store(true)
		for !done.Load() {
			yieldHost()
		}
		c.w.blocked.Store(false)
	}
	replyDelay := rt.M.Fabric.MessageDelay(tw.Core(), c.w.Core(), finish.Load(), 64)
	c.w.clock.SyncTo(finish.Load() + replyDelay)
	if p := g.pan.Load(); p != nil {
		panic(p)
	}
}

// liveTarget redirects a delegation aimed at a worker whose core is
// offline at time t to a live worker (graceful degradation: the RPC runs
// on the dead target's replacement instead of queueing forever).
func (rt *Runtime) liveTarget(target int, t int64) int {
	if p := rt.opts.Faults; p != nil && p.CoreDown(rt.workers[target].Core(), t) {
		return rt.nextLiveWorker(target, t)
	}
	return target
}

// callGroup carries the completion signal of a synchronous Call.
type callGroup struct {
	done   *atomic.Bool
	finish *atomic.Int64
	pan    atomic.Pointer[TaskError]
}

// Barrier blocks until all parties of b arrived; every party leaves at the
// common (maximum) virtual time plus the barrier cost — the barrier()
// primitive of the CHARM API. Use one task per worker (AllDo) to avoid
// starving the barrier.
func (c *Ctx) Barrier(b *RtBarrier) {
	c.flushBatch()
	if ls := c.w.rt.ls; ls != nil && c.co == nil {
		// Deterministic mode: register the arrival, then hand the turn
		// away until the last party closes the generation.
		g := b.enter(c.Now())
		c.w.blocked.Store(true)
		for {
			ls.handoff(c.w.id, lsBlocked, false, func() bool {
				return g.released() || !c.w.inbox.Empty()
			})
			if g.released() || c.w.rt.stop.Load() {
				break
			}
			// A task delivered mid-barrier (a faulted worker re-homing
			// its queue here) would strand in the inbox while this
			// goroutine is parked inside the party's stack: spill it to
			// the deque, where thieves can rescue it.
			for {
				t := c.w.inbox.Take()
				if t == nil {
					break
				}
				c.w.deque.Push(t)
			}
		}
		c.w.blocked.Store(false)
		c.w.clock.SyncTo(g.t)
		return
	}
	c.w.blocked.Store(true)
	t := b.wait(c.Now())
	c.w.blocked.Store(false)
	c.w.clock.SyncTo(t)
}

// Event reads an arbitrary PMU counter of the executing core.
func (c *Ctx) Event(e pmu.Event) int64 {
	c.flushBatch()
	return c.w.rt.M.PMU.Read(int(c.w.Core()), e)
}
