package core

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"charm/internal/sim"
	"charm/internal/topology"
)

// Failure injection: tasks that panic must not kill workers; the panic
// propagates to the submitter with the task's stack attached, and the
// runtime stays usable afterwards.

func recoverMessage(t *testing.T, f func()) string {
	t.Helper()
	e := recoverTaskError(t, f)
	return e.Error()
}

// recoverTaskError runs f and returns the *TaskError it panics with.
func recoverTaskError(t *testing.T, f func()) *TaskError {
	t.Helper()
	var e *TaskError
	func() {
		defer func() {
			if r := recover(); r != nil {
				var ok bool
				if e, ok = r.(*TaskError); !ok {
					t.Fatalf("expected *TaskError panic, got %T: %v", r, r)
				}
			}
		}()
		f()
	}()
	if e == nil {
		t.Fatal("expected a propagated panic")
	}
	return e
}

func TestTaskPanicPropagatesToSubmitter(t *testing.T) {
	rt := newTestRT(t, 4)
	msg := recoverMessage(t, func() {
		rt.ParallelFor(0, 100, 10, func(ctx *Ctx, i0, i1 int) {
			if i0 == 50 {
				panic("injected fault")
			}
			ctx.Compute(10)
		})
	})
	if !strings.Contains(msg, "injected fault") || !strings.Contains(msg, "task stack") {
		t.Errorf("panic message lacks fault/stack: %q", msg)
	}
	// The runtime must remain usable.
	var n atomic.Int64
	rt.ParallelFor(0, 10, 1, func(ctx *Ctx, i0, i1 int) { n.Add(1) })
	if n.Load() != 10 {
		t.Errorf("post-panic submission ran %d of 10 tasks", n.Load())
	}
}

func TestCoroutinePanicPropagates(t *testing.T) {
	rt := newTestRT(t, 2)
	msg := recoverMessage(t, func() {
		rt.submitWait([]func(*Ctx){func(ctx *Ctx) {
			ctx.Yield()
			panic("coroutine fault")
		}}, false, true)
	})
	if !strings.Contains(msg, "coroutine fault") {
		t.Errorf("wrong panic: %q", msg)
	}
	rt.Run(func(ctx *Ctx) { ctx.Compute(1) })
}

func TestRemoteCallPanicPropagates(t *testing.T) {
	rt := newTestRT(t, 4)
	msg := recoverMessage(t, func() {
		rt.Run(func(ctx *Ctx) {
			ctx.Call(2, func(*Ctx) { panic("remote fault") })
		})
	})
	if !strings.Contains(msg, "remote fault") {
		t.Errorf("wrong panic: %q", msg)
	}
}

func TestTaskErrorAttribution(t *testing.T) {
	rt := newTestRT(t, 4)
	cause := errors.New("attributed fault")
	e := recoverTaskError(t, func() {
		rt.ParallelFor(0, 8, 1, func(ctx *Ctx, i0, i1 int) {
			if i0 == 3 {
				panic(cause)
			}
		})
	})
	if e.TaskID == 0 {
		t.Error("TaskError.TaskID not set")
	}
	if e.Worker < 0 || e.Worker >= rt.Workers() {
		t.Errorf("TaskError.Worker = %d out of range", e.Worker)
	}
	if got := rt.M.Topo.ChipletOf(e.Core); got != e.Chiplet {
		t.Errorf("TaskError.Chiplet = %d, want %d for core %d", e.Chiplet, got, e.Core)
	}
	if !strings.Contains(e.Error(), "attributed fault") {
		t.Errorf("error lacks the panic value: %q", e.Error())
	}
	if !errors.Is(e, cause) {
		t.Error("errors.Is does not reach the panic value through Unwrap")
	}
	if e.Val != any(cause) {
		t.Errorf("TaskError.Val = %v, want the panic value", e.Val)
	}
	if len(e.Stack) == 0 {
		t.Error("TaskError.Stack empty")
	}
}

func TestFirstPanicWins(t *testing.T) {
	rt := newTestRT(t, 4)
	msg := recoverMessage(t, func() {
		rt.ParallelFor(0, 40, 1, func(ctx *Ctx, i0, i1 int) {
			panic("fault")
		})
	})
	// Exactly one panic surfaces even though many tasks failed.
	if strings.Count(msg, "task stack") != 1 {
		t.Errorf("expected one propagated stack, got: %q", msg)
	}
}

// panicTimer is a policy whose Alg. 1 hook panics: maybeTick calls it from
// the worker loop, outside any task's recover.
type panicTimer struct{ Policy }

func (panicTimer) OnTimer(*Worker, int64) { panic("timer fault") }

// TestLoopPanicKeepsOrigin: under Deterministic a panic that escapes a worker
// loop is re-raised by iter.Pull on the kernel goroutine, which resumed the
// loop; what crashes the process must still name the worker and carry the
// stack of the site that panicked, not the kernel's. The test stands in for
// Start so that it can recover on the kernel goroutine.
func TestLoopPanicKeepsOrigin(t *testing.T) {
	rt := NewRuntime(sim.New(sim.Config{Topo: topology.Synthetic(4, 2)}), Options{
		Workers: 4, Deterministic: true, SchedulerTimer: 1_000,
		Policy: panicTimer{NewStaticPolicy(Compact)},
	})
	rt.lifecycle.Store(lcStarted)
	rt.ls.spawn()
	crash := make(chan any)
	rt.wg.Add(1)
	go func() {
		defer func() { crash <- recover() }()
		rt.ls.kernel()
	}()
	if _, err := rt.SubmitJob(computeJob(1, 5_000, nil)); err != nil {
		t.Fatal(err)
	}
	e, ok := (<-crash).(*LoopError)
	if !ok {
		t.Fatalf("kernel panicked with %T, want *LoopError", e)
	}
	if e.Worker < 0 || e.Worker >= rt.Workers() || e.Val != any("timer fault") {
		t.Errorf("LoopError{Worker: %d, Val: %v}, want a worker of the fleet and the panic value", e.Worker, e.Val)
	}
	for _, frame := range []string{"panicTimer.OnTimer", "maybeTick", "(*Worker).loop"} {
		if !strings.Contains(string(e.Stack), frame) {
			t.Errorf("LoopError.Stack lacks %s:\n%s", frame, e.Stack)
		}
	}
	if msg := e.Error(); !strings.Contains(msg, "timer fault") || !strings.Contains(msg, "worker stack") {
		t.Errorf("message lacks fault/stack: %q", msg)
	}
	// The process would be gone by now. Here, run the suspended loops to
	// their end the way a stopping kernel does, so no coroutine outlives the test.
	rt.lifecycle.Store(lcStopped)
	rt.stop.Store(true)
	rt.wg.Add(1)
	rt.ls.kernel()
	rt.wg.Wait()
}
