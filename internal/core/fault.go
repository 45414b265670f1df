package core

import (
	"fmt"
	"math"
	"runtime/debug"

	"charm/internal/obs"
	"charm/internal/topology"
)

// This file is the runtime half of the fault-injection subsystem
// (internal/fault holds the schedules): graceful degradation when cores go
// offline mid-run and typed task failures. The protocol on core-offline is
//
//  1. drain — the worker empties its deque and inbox, re-enqueueing every
//     queued task to a live worker (pinned tasks are re-homed). Suspended
//     coroutines that were queued locally migrate the same way; a
//     coroutine running elsewhere simply never steals back.
//  2. re-home — if the policy implements Rehomer, the worker migrates to
//     the replacement core and keeps executing (CHARM's self-healing).
//  3. park — otherwise the worker blocks, excluded from the throttle
//     gate, until virtual time reaches the core's revival or a stray task
//     lands in its inbox (which it re-homes and parks again). Static
//     baseline policies take this path: their capacity is gone until the
//     core returns, which is exactly the degradation the chaos experiment
//     measures.

// TaskError is a task panic converted into a typed, attributed error: which
// task failed, where it was executing and what it panicked with.
// Submission APIs re-panic it on the submitter;
// errors.As works through the panic value.
type TaskError struct {
	// TaskID is the runtime-wide task sequence number.
	TaskID uint64
	// Worker, Core, Chiplet locate the execution that panicked.
	Worker  int
	Core    topology.CoreID
	Chiplet topology.ChipletID
	// Val is the recovered panic value; Stack the goroutine stack at the
	// panic site.
	Val   any
	Stack []byte
}

// Error formats the failure with its attribution and original stack.
func (e *TaskError) Error() string {
	return fmt.Sprintf("core: task %d panicked on worker %d (core %d, chiplet %d): %v\n\ntask stack:\n%s",
		e.TaskID, e.Worker, e.Core, e.Chiplet, e.Val, e.Stack)
}

// Unwrap exposes a panic value that was itself an error.
func (e *TaskError) Unwrap() error {
	if err, ok := e.Val.(error); ok {
		return err
	}
	return nil
}

// Rehomer is an optional Policy extension: a policy that can relocate a
// worker whose core just went offline returns a live replacement core.
// Policies without it (the static baselines) leave the worker parked until
// the core revives — adaptivity under faults is precisely what separates
// CHARM from them in the chaos experiment.
type Rehomer interface {
	Rehome(w *Worker, now int64) (topology.CoreID, bool)
}

// checkFault handles this worker's core being offline at its current
// virtual time. Returns true when it consumed the scheduling iteration.
func (w *Worker) checkFault() bool {
	plan := w.rt.opts.Faults
	if plan == nil {
		return false
	}
	c := w.Core()
	now := w.clock.Now()
	if !plan.CoreDown(c, now) {
		return false
	}
	w.rt.met.faultOfflines.Inc(w.id)
	w.instant(obs.SpanOffline, now, 0)
	w.drainToLive(now)
	if r, ok := w.rt.opts.Policy.(Rehomer); ok {
		if dst, ok := r.Rehome(w, now); ok && !plan.CoreDown(dst, now) {
			w.rt.met.faultMigrations.Inc(w.id)
			// Runtime-scoped instant (trace 0): the worker moved, which
			// affects every job placed on it.
			w.instant(obs.SpanRehome, now, int64(dst))
			w.Migrate(dst)
			// Restart the Alg. 1 interval on the new core's counters: the
			// old core's fill history is meaningless there.
			w.lastDecision = w.clock.Now()
			w.lastFills = w.rt.M.PMU.FillsFromSystem(int(dst))
			w.lowStreak = 0
			return true
		}
	}
	w.park(c)
	return true
}

// drainToLive empties the worker's deque and inbox, re-enqueueing every
// task to a live worker. Pinned tasks are re-homed (their target is gone;
// running them on the replacement is the degradation contract).
func (w *Worker) drainToLive(now int64) {
	next := w.id
	if w.rt.nextLiveWorker(next, now) == next {
		// Every worker's core is down at now — there is nowhere to drain
		// to, and rerouting would cycle this worker's own inbox forever.
		// Fold the inbox into the deque and keep the queue: a re-homing
		// policy carries it to the replacement core, and a parked worker
		// holds it (with an empty inbox, so park waits for revival instead
		// of waking instantly) until the fleet reaches the revival time.
		for {
			t := w.inbox.Take()
			if t == nil {
				return
			}
			w.deque.Push(t)
		}
	}
	reroute := func(t *Task) {
		if t.jobCancelled() && t.co == nil {
			// A cancelled job's never-started task dies here instead of
			// migrating; a started coroutine is re-homed so a live worker
			// can resume-and-unwind its stack.
			w.discardCancelled(t)
			return
		}
		next = w.rt.nextLiveWorker(next, now)
		if t.pinned {
			// The home core is gone; the degradation contract is "run it
			// on a live worker" — which one no longer matters, so unpin.
			// A task that stayed pinned could strand in the deque of a
			// worker blocked inside a barrier this task is itself a party
			// of (thieves bounce pinned tasks back), deadlocking the
			// fleet.
			t.pinned = false
			t.home = next
		}
		w.rt.workers[next].inbox.Put(t)
		w.rt.met.faultReenqueues.Inc(w.id)
	}
	for {
		t := w.deque.Pop()
		if t == nil {
			break
		}
		reroute(t)
	}
	for {
		t := w.inbox.Take()
		if t == nil {
			break
		}
		reroute(t)
	}
}

// nextLiveWorker returns the first worker after wid (cyclically, wid last)
// whose core is online at time t. With every core down it returns wid —
// the caller's park fallback then advances virtual time.
func (rt *Runtime) nextLiveWorker(wid int, t int64) int {
	plan := rt.opts.Faults
	n := len(rt.workers)
	for i := 1; i <= n; i++ {
		cand := (wid + i) % n
		if !plan.CoreDown(rt.workers[cand].Core(), t) {
			return cand
		}
	}
	return wid
}

// park blocks the worker while its core is offline. It wakes to re-home
// stray inbox arrivals (re-parking via the caller's loop), and resumes
// once the fleet's virtual time reaches the core's revival. If the entire
// fleet is blocked, the parked worker jumps its clock to the revival time
// so virtual time keeps moving.
func (w *Worker) park(c topology.CoreID) {
	plan := w.rt.opts.Faults
	upAt := plan.CoreUpAt(c, w.clock.Now())
	w.rt.met.faultParks.Inc(w.id)
	w.instant(obs.SpanPark, w.clock.Now(), 0)
	w.blocked.Store(true)
	defer w.blocked.Store(false)
	if ls := w.rt.ls; ls != nil {
		ls.handoff(w.id, lsBlocked, false, func() bool {
			return !w.inbox.Empty() || w.rt.MaxWorkerClock() >= upAt ||
				ls.othersBlocked(w.id)
		})
		if w.rt.stop.Load() {
			return
		}
		if w.inbox.Empty() {
			w.resumeAt(upAt)
		}
		return
	}
	for !w.rt.stop.Load() {
		if !w.inbox.Empty() {
			// A stray task found the dead worker; the caller's loop
			// re-drains it to a live worker and parks again.
			return
		}
		if w.rt.MaxWorkerClock() >= upAt {
			w.resumeAt(upAt)
			return
		}
		if w.rt.minUnblockedClock() == math.MaxInt64 {
			// Every worker is parked or blocked: nobody can advance
			// virtual time, so jump to the revival point.
			w.resumeAt(upAt)
			return
		}
		yieldHost()
	}
}

// resumeAt brings a parked worker back online at virtual time t.
func (w *Worker) resumeAt(t int64) {
	w.clock.SyncTo(t)
	w.lastDecision = w.clock.Now()
	w.lastFills = w.rt.M.PMU.FillsFromSystem(int(w.Core()))
	w.instant(obs.SpanResume, w.clock.Now(), 0)
}

// LoopError is a panic that escaped a worker's loop under Deterministic (an
// engine bug, a panicking Policy hook, the lockstep deadlock). It crashes the
// process from the kernel goroutine, which resumed the loop; Worker and Stack
// keep where it was raised.
type LoopError struct {
	Worker int
	Val    any
	Stack  []byte
}

func (e *LoopError) Error() string {
	return fmt.Sprintf("core: worker %d's loop panicked: %v\n\nworker stack:\n%s", e.Worker, e.Val, e.Stack)
}

// runTaskRecovered executes fn, converting a panic into a typed TaskError
// attributed to the executing task and location (failure isolation: a
// crashing task must not take the worker — and the whole runtime — down
// with it). Returns nil on success.
func (w *Worker) runTaskRecovered(t *Task, fn func()) (err *TaskError) {
	defer func() {
		if r := recover(); r != nil {
			err = &TaskError{
				TaskID:  t.id,
				Worker:  w.id,
				Core:    w.Core(),
				Chiplet: w.rt.M.Topo.ChipletOf(w.Core()),
				Val:     r,
				Stack:   debug.Stack(),
			}
		}
	}()
	fn()
	return nil
}

// failTask reports a task failure to the task's group or caller and
// completes its lifecycle accounting.
func (w *Worker) failTask(t *Task, err *TaskError) {
	if t.grp != nil {
		t.grp.fail(err)
	}
	if t.onDone != nil {
		t.onDone.pan.Store(err)
	}
	w.finishTask(t)
}
