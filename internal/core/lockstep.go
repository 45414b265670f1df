package core

import (
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// lockstep serializes worker execution for Options.Deterministic: exactly
// one worker runs at a time, and the next to run is always the waiting
// worker with the smallest (virtual clock, id) pair. Because every
// state-mutating step (task execution, stealing, PMU and bandwidth-bucket
// charges, migrations) happens inside a turn, the entire run becomes a
// pure function of the inputs — two runs with the same seed, workload, and
// fault schedule produce bit-identical Stats and PMU counters regardless
// of host scheduling. The price is parallelism; deterministic mode exists
// for reproducible experiments and debugging, not throughput.
//
// Worker states: a worker is *waiting* (wants a turn), *running* (holds
// the turn), *blocked* (waiting on a predicate — a synchronous Call, a
// barrier, or a fault park), or *done* (its loop exited). Turns are only
// granted when every worker is checked in (waiting/blocked/done), so
// predicates always observe a quiescent fleet; they are evaluated by the
// granting worker in worker-id order, which makes wake-ups deterministic too.
//
// Worker loops are pull-coroutines (spawn) resumed by one kernel goroutine,
// so a turn changes hands by two coroutine switches and no trip through the
// Go scheduler: the granting worker yields to the kernel, which resumes the
// worker the grant named. Nobody is resumed when the grant picks the caller,
// or an idle worker, whose turn the caller plays itself (grant). Exclusivity
// is structural — one kernel, one running coroutine — so the fleet state
// belongs to whoever runs, the turn path takes no lock, and handoff may only
// run on the worker's own coroutine (a coroutine *task* yields to its worker
// first).
//
// External submitters (submitWait) pause the fleet between turns to
// distribute tasks, and converge all waiting workers' clocks to the fleet
// maximum first, so the number of idle turns a run happened to take before
// the pause cannot leak into subsequent virtual times. mu and cond guard that
// rendezvous only: a worker that sees pauseWant gives the fleet state to the
// pauser (paused) and touches none of it until the kernel, which waits out
// the pause on cond, resumes a worker again.
type lockstep struct {
	rt *Runtime
	// The fleet state, the running coroutine's (the pauser's while paused):
	// state[id] is the worker's check-in state; pred[id] the wake predicate
	// of a blocked worker.
	state []lsState
	pred  []func() bool
	// top[id]: the check-in came from the top of loop(), so the worker's
	// next turn is a whole step(), not the rest of a task.
	top []bool
	// busy counts workers that are not checked in (lsStart or lsRunning);
	// the fleet is quiescent at zero.
	busy int
	// holder is the worker id holding the turn, -1 when free.
	holder int
	// last is the previous turn holder; clock ties are broken round-robin
	// after it. Without rotation, equal-clock idle workers with low ids
	// would monopolize turns and starve a higher-id worker whose inbox
	// (which only its owner may drain) holds the remaining work. Reset on
	// resume so the host-dependent number of idle turns before an external
	// pause cannot leak into the post-pause grant order.
	last int
	// next[id] switches the kernel to worker id's coroutine and returns the
	// holder that worker's next check-in names (false once the loop has
	// returned). yield[id] is the worker's way back.
	next  []func() (int, bool)
	yield []func(int) bool
	// pauseWant asks the next grant for a pause; the rest is TurnStats. Read
	// off the turn's thread, hence atomic.
	pauseWant             atomic.Bool
	handoffs, inline, own atomic.Int64
	// mu guards paused and queues pausers; cond wakes them and the kernel.
	// Workers never wait on it.
	mu     sync.Mutex
	cond   *sync.Cond
	paused bool
}

// TurnStats counts lockstep grants by how the turn reached its worker: the
// kernel resumed the worker's coroutine (Handoff), the granting worker played
// an idle turn itself (Inline), or it came straight back (Self). Host-paced —
// an idle fleet turns for as long as the host lets it — so it is in no replay.
type TurnStats struct{ Handoff, Inline, Self int64 }

// TurnStats returns the grant counts so far (zero when free-running).
func (rt *Runtime) TurnStats() (t TurnStats) {
	if ls := rt.ls; ls != nil {
		t = TurnStats{ls.handoffs.Load(), ls.inline.Load(), ls.own.Load()}
	}
	return t
}

type lsState uint8

const (
	lsStart lsState = iota // goroutine not yet at its first acquire
	lsWaiting
	lsRunning
	lsBlocked
	lsDone
)

func newLockstep(rt *Runtime, workers int) *lockstep {
	ls := &lockstep{
		rt:     rt,
		state:  make([]lsState, workers),
		pred:   make([]func() bool, workers),
		top:    make([]bool, workers),
		next:   make([]func() (int, bool), workers),
		yield:  make([]func(int) bool, workers),
		busy:   workers,
		holder: -1,
		last:   -1,
	}
	ls.cond = sync.NewCond(&ls.mu)
	return ls
}

// pickTurn is the grant rule, the contract every deterministic digest
// rests on. On a quiescent fleet it walks the workers once in id order:
// a blocked worker whose predicate holds (or any blocked worker once the
// runtime is stopping) becomes waiting, and the waiting worker with the
// smallest clock is picked, ties going to the id cyclically after last.
// In an ascending walk a later id outranks an equal-clock earlier one only
// when last lies between them. It returns -1 when nobody waits; stuck
// reports that a blocked worker remains.
func pickTurn(state []lsState, pred []func() bool, workers []*Worker, last int, stopping bool) (best int, stuck bool) {
	best = -1
	var bestClock int64
	for id, s := range state {
		if s == lsBlocked {
			if !stopping && !pred[id]() {
				stuck = true
				continue
			}
			state[id], pred[id] = lsWaiting, nil
		} else if s != lsWaiting {
			continue
		}
		c := workers[id].clock.Now()
		if best == -1 || c < bestClock || (c == bestClock && best <= last && id > last) {
			best, bestClock = id, c
		}
	}
	return best, stuck
}

// grant hands the turn to the next runner if the fleet is quiescent and
// returns whom the kernel is to resume: the pick (the caller itself just
// keeps running), or -1 when nobody can run or the fleet went to a pauser
// instead. A pick at its loop top whose step() would only drift its idle
// clock (idleTurn) is not resumed: a worker caller plays that turn — the same
// idleDrift, in the same grant order — checks it back in and picks again,
// honouring pauseWant and stop between any two turns. External callers pass
// -1 and never play turns: they hold no coroutine to get the turn back on.
func (ls *lockstep) grant(caller int) int {
	for n := 1; ls.holder == -1 && ls.busy == 0; n++ {
		stopping := ls.rt.stop.Load()
		best, stuck := pickTurn(ls.state, ls.pred, ls.rt.workers, ls.last, stopping)
		if ls.pauseWant.Load() {
			ls.mu.Lock()
			ls.paused = true
			ls.cond.Broadcast() // the pauser
			ls.mu.Unlock()
			return -1 // not ls.holder: the fleet state is the pauser's now
		}
		if best == -1 {
			if stuck && !stopping {
				// No predicate fired and nothing can run: the workload
				// deadlocked (e.g. a cycle of synchronous Calls). Failing
				// loudly beats hanging the deterministic run forever.
				panic("core: lockstep deadlock: every worker is blocked and no wake predicate holds")
			}
			return -1 // all done
		}
		ls.holder, ls.last = best, best
		w := ls.rt.workers[best]
		if caller < 0 || stopping || !ls.top[best] || !w.idleTurn() {
			if best != caller {
				ls.handoffs.Add(1)
			} else {
				ls.own.Add(1)
			}
			return best
		}
		ls.inline.Add(1)
		ls.state[best] = lsRunning
		ls.busy++
		w.idleDrift()
		if n%256 == 0 {
			// An idle fleet turns forever on this goroutine; at GOMAXPROCS=1
			// an external caller needs the P (turn/idle: 71 ns at 16, 56 here).
			yieldHost()
		}
		ls.state[best], ls.holder = lsWaiting, -1
		ls.busy--
	}
	return ls.holder
}

// handoff is the one worker-side step: worker id checks in as s (ending its
// turn if it holds one), the turn is granted on, and — unless the worker is
// done — it yields to the kernel until the turn comes back (or the runtime
// stops). It reports whether the worker had to wait, i.e. the turn did not
// come straight back to it. loop() checks in between steps as lsWaiting with
// top set, and as lsDone when it exits; a task checks in mid-turn, as
// lsWaiting at a cooperative scheduling point (the virtually-furthest-behind
// worker interleaves) or as lsBlocked with the predicate that wakes it, which
// runs inside a grant and must not take locks. A no-op on the nil lockstep
// of a free-running runtime.
func (ls *lockstep) handoff(id int, s lsState, top bool, pred func() bool) (waited bool) {
	if ls == nil {
		return false
	}
	ls.state[id], ls.pred[id], ls.top[id] = s, pred, top
	ls.busy--
	if ls.holder == id {
		ls.holder = -1
	}
	if s == lsDone {
		ls.grant(-1) // a loop on its way out, stopped or panicking, plays no turns
		return false
	}
	to := ls.grant(id)
	if to != id && !ls.rt.stop.Load() {
		// The kernel resumes a worker only once holder names it, or to stop.
		ls.yield[id](to)
		waited = true
	}
	ls.state[id], ls.pred[id] = lsRunning, nil
	ls.busy++
	return waited
}

// othersBlocked reports whether every worker but id is blocked or done — the
// park fallback's "nobody can advance virtual time" test. Only valid from a
// wake predicate (the granting worker owns the fleet state).
func (ls *lockstep) othersBlocked(id int) bool {
	for j, s := range ls.state {
		if j != id && s != lsBlocked && s != lsDone {
			return false
		}
	}
	return true
}

// pause stops the fleet between turns so an external goroutine can mutate
// shared state (distribute tasks). Waiting workers' clocks converge to the
// fleet maximum first, making the post-pause state independent of how many
// idle turns preceded the pause. Balance with resume.
func (ls *lockstep) pause() {
	ls.mu.Lock()
	for ls.pauseWant.Load() {
		ls.cond.Wait() // one external pause at a time
	}
	ls.pauseWant.Store(true)
	for !ls.paused && !ls.rt.stop.Load() {
		ls.cond.Wait()
	}
	max := ls.rt.MaxWorkerClock()
	for id, s := range ls.state {
		if s == lsWaiting {
			ls.rt.workers[id].clock.SyncTo(max)
		}
	}
	ls.mu.Unlock()
}

// resume releases a pause: it names the next holder and gives the fleet
// state back to the kernel.
func (ls *lockstep) resume() {
	ls.mu.Lock()
	ls.pauseWant.Store(false)
	ls.last = -1
	ls.grant(-1)
	ls.paused = false
	ls.cond.Broadcast() // the kernel, and pausers queued behind this one
	ls.mu.Unlock()
}

// spawn wraps every worker loop in a pull-coroutine for the kernel to resume.
func (ls *lockstep) spawn() {
	for _, w := range ls.rt.workers {
		ls.rt.wg.Add(1) // released by loop()
		ls.next[w.id], _ = pull(func(yield func(int) bool) {
			ls.yield[w.id] = yield
			defer func() {
				// iter.Pull re-panics in the caller of next, on the kernel's
				// stack: keep the worker and the stack of the original site.
				if r := recover(); r != nil {
					panic(&LoopError{Worker: w.id, Val: r, Stack: debug.Stack()})
				}
			}()
			w.loop()
		})
	}
}

// hostYieldEvery is how many resumes the kernel makes between yieldHost()s.
// It never parks while turns flow, so at GOMAXPROCS=1 an external goroutine
// (a submitter woken by close(g.done)) would otherwise wait for sysmon to
// preempt it: `go test -cpu 1` of this package takes 10.3 s without the
// yield, 7.6 s with it at 16, 64 or 256 and 8.7 s at 1024; each Gosched
// beside an idle P is a futex, and graph-det wall_s is 0.689 s at 16,
// 0.607 s at 64, 0.582 s at 256 and 0.579 s without.
const hostYieldEvery = 256

// kernel is the one goroutine that runs worker coroutines: it resumes the
// worker the last check-in named and gets control back, with the next name,
// when that worker checks in. It waits on cond only while an external pause
// holds the fleet or every loop has returned (which takes a stop), and once
// the runtime stops it resumes each unfinished loop until it returns,
// leaving no coroutine suspended.
func (ls *lockstep) kernel() {
	defer ls.rt.wg.Done()
	to := -1
	for _, next := range ls.next {
		to, _ = next() // up to the first check-in; the last one's grant names a holder
	}
	for n := 1; !ls.rt.stop.Load(); n++ {
		if to < 0 {
			ls.mu.Lock()
			for (ls.paused || ls.holder < 0) && !ls.rt.stop.Load() {
				ls.cond.Wait()
			}
			to = ls.holder // the one resume named
			ls.mu.Unlock()
			continue
		}
		to, _ = ls.next[to]()
		if n%hostYieldEvery == 0 {
			yieldHost()
		}
	}
	for _, next := range ls.next {
		for ok := true; ok; {
			_, ok = next()
		}
	}
}
