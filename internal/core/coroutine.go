package core

import "charm/internal/pmu"

// coroutine backs a suspendable task with its own stack — the user-level-
// thread half of CHARM's concurrency model (§4.4). The stack is a pull-
// coroutine (iter.Pull, the switch the lockstep kernel uses): the worker —
// whichever holds the task now, a thief included — switches to it with next
// and gets control back when the task suspends or ends, so exactly one of
// the two runs at a time, the worker's virtual clock is always owned by the
// running side, and no switch goes through the Go scheduler.
//
// Stacks are pooled: the body is a loop, so a terminal task leaves it
// suspended between tasks and the worker can bind the next coroutine task
// without paying goroutine creation and stack growth again. The worker
// re-zeroes the coroutine's Ctx before the switch that publishes it.
type coroutine struct {
	ctx *Ctx
	// next switches to the stack and returns what it switched back with:
	// coYielded or coFinished. suspend is the stack's way back; it returns
	// false when stop retires a pooled stack instead of resuming it.
	next    func() (int, bool)
	suspend func(int) bool
	stop    func()
}

// What a stack reports when it switches back to its worker.
const coFinished, coYielded = 0, 1

// yield suspends the coroutine (called on its stack) until a worker resumes
// it. If the task's job was cancelled meanwhile, the resume unwinds the stack
// instead of returning to the task body: the job service's cancellation point.
func (co *coroutine) yield() {
	co.suspend(coYielded)
	if co.ctx.task.jobCancelled() {
		panic(cancelUnwind{})
	}
}

// run is the stack's body: execute the task bound to ctx, report its end,
// stay suspended until the worker has bound the next one. A panic is
// attributed to the worker bound to the coroutine at dispatch and left in
// t.err; the worker reports it as a failure or discards a cancelled task.
func (co *coroutine) run(suspend func(int) bool) {
	co.suspend = suspend
	for ok := true; ok; ok = suspend(coFinished) {
		ctx, t := co.ctx, co.ctx.task
		t.err = ctx.w.runTaskRecovered(t, func() {
			defer ctx.flushBatch()
			t.fn(ctx)
		})
	}
}

// getCoroutine hands t a stack, reusing a pooled one when available, and
// binds t to it: a pooled stack is suspended at the end of its last task.
func (w *Worker) getCoroutine(t *Task) *coroutine {
	var co *coroutine
	if n := len(w.coPool); n > 0 {
		co = w.coPool[n-1]
		w.coPool[n-1] = nil
		w.coPool = w.coPool[:n-1]
	} else {
		co = &coroutine{ctx: new(Ctx)}
		co.next, co.stop = pull(co.run)
	}
	*co.ctx = Ctx{w: w, task: t, co: co}
	return co
}

// putCoroutine recycles a terminal coroutine: its stack stays suspended,
// ready for the next task. Over the pool cap (or with pooling disabled) the
// stack is retired instead.
func (w *Worker) putCoroutine(co *coroutine) {
	if w.rt.pool && len(w.coPool) < coPoolCap {
		co.ctx.task = nil // don't pin the (possibly recycled) task struct
		w.coPool = append(w.coPool, co)
		return
	}
	co.stop()
}

// closeCoPool retires the worker's idle pooled stacks (worker shutdown).
func (w *Worker) closeCoPool() {
	for _, co := range w.coPool {
		co.stop()
	}
	w.coPool = nil
}

// runCoroutine starts or resumes a coroutine task and processes its next
// suspension or completion. Called from the worker goroutine.
func (w *Worker) runCoroutine(t *Task) {
	if t.co == nil {
		t.co = w.getCoroutine(t)
	}
	co := t.co
	// Rebind the coroutine to this worker: after a steal the task now
	// advances the thief's clock and touches the thief's caches.
	co.ctx.w = w
	w.clock.Advance(w.rt.opts.Overheads.Switch)
	w.rt.M.PMU.Add(int(w.Core()), pmu.CtxSwitch, 1)

	if st, _ := co.next(); st == coYielded {
		// Suspended: make the continuation schedulable (and stealable,
		// which is how tasks migrate across chiplets).
		w.deque.Push(t)
		return
	}
	// Terminal (success, failure, or cancel-unwind): the stack is suspended
	// between tasks. Detach and recycle it before the task's lifecycle
	// accounting, which may free the task struct.
	err := t.err
	t.err = nil
	t.co = nil
	w.putCoroutine(co)
	if err != nil {
		if t.jobCancelled() {
			// A cancelled job's coroutine unwound (or failed): discard.
			w.discardCancelled(t)
		} else {
			w.failTask(t, err)
		}
		return
	}
	w.finishTask(t)
}
