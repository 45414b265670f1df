package core

import "sync"

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
// predicates always observe a quiescent fleet; they are evaluated under
// the lockstep mutex in worker-id order, which makes wake-ups
// deterministic too.
//
// The turn is handed over directly: a grant wakes the one worker it picked
// through that worker's wake slot; it wakes nobody when it picks the caller,
// or an idle worker, whose turn the caller plays itself (grantLocked).
//
// External submitters (submitWait) pause the fleet between turns to
// distribute tasks, and converge all waiting workers' clocks to the fleet
// maximum first, so the number of idle turns a run happened to take before
// the pause cannot leak into subsequent virtual times.
type lockstep struct {
	rt *Runtime
	mu sync.Mutex
	// cond serves external pause/resume callers only; workers never wait
	// on it.
	cond *sync.Cond
	// state[id] is the worker's check-in state; pred[id] the wake
	// predicate of a blocked worker (evaluated with mu held).
	state []lsState
	pred  []func() bool
	// top[id]: the check-in came from the top of loop(), so the worker's
	// next turn is a whole step(), not the rest of a task.
	top []bool
	// wake[id] is worker id's wake slot (1-buffered). A grant to a worker
	// other than the caller drops a token into it, after setting holder
	// under mu. A waiter checks holder == id under mu before every sleep
	// and after every receive, so no wakeup is lost — a token sent while
	// the waiter is between that check and its receive waits in the buffer,
	// and a send that finds the buffer full means a token is already there
	// to wake it — and a stale token costs one spurious re-check.
	wake []chan struct{}
	// busy counts workers that are not checked in (lsStart or lsRunning);
	// the fleet is quiescent at zero.
	busy int
	// holder is the worker id holding the turn, -1 when free, -2 while an
	// external submitter holds the fleet paused.
	holder    int
	pauseWant bool
	// last is the previous turn holder; clock ties are broken round-robin
	// after it. Without rotation, equal-clock idle workers with low ids
	// would monopolize turns and starve a higher-id worker whose inbox
	// (which only its owner may drain) holds the remaining work. Reset on
	// resume so the host-dependent number of idle turns before an external
	// pause cannot leak into the post-pause grant order.
	last  int
	turns TurnStats
}

// TurnStats counts lockstep grants by how the turn reached its worker: it
// woke the worker's goroutine (Handoff), was an idle turn the granting worker
// played itself (Inline), or came straight back (Self). Host-paced — an idle
// fleet turns for as long as the host lets it — so it belongs in no replay.
type TurnStats struct{ Handoff, Inline, Self int64 }

// TurnStats returns the grant counts so far (zero when free-running).
func (rt *Runtime) TurnStats() (t TurnStats) {
	if ls := rt.ls; ls != nil {
		ls.mu.Lock()
		t = ls.turns
		ls.mu.Unlock()
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
		wake:   make([]chan struct{}, workers),
		busy:   workers,
		holder: -1,
		last:   -1,
	}
	for i := range ls.wake {
		ls.wake[i] = make(chan struct{}, 1)
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

// grantLocked hands the turn to the next runner if the fleet is quiescent,
// waking it unless it is the caller (which is about to look for itself).
// A pick at its loop top whose step() would only drift its idle clock
// (idleTurn) is not woken: a worker caller plays that turn — the same
// idleDrift, in the same grant order — checks it back in and picks again,
// honouring pauseWant and stop between any two turns. External callers pass
// -1 and never play turns: they have no wake slot to get the turn back on.
// Caller holds mu, released around an inline turn (power and obs locks).
func (ls *lockstep) grantLocked(caller int) {
	for n := 1; ls.holder == -1 && ls.busy == 0; n++ {
		stopping := ls.rt.stop.Load()
		best, stuck := pickTurn(ls.state, ls.pred, ls.rt.workers, ls.last, stopping)
		if ls.pauseWant {
			ls.holder = -2
			ls.cond.Broadcast() // the pauser, and pausers queued behind it
			return
		}
		if best == -1 {
			if stuck && !stopping {
				// No predicate fired and nothing can run: the workload
				// deadlocked (e.g. a cycle of synchronous Calls). Failing
				// loudly beats hanging the deterministic run forever.
				panic("core: lockstep deadlock: every worker is blocked and no wake predicate holds")
			}
			return // all done
		}
		ls.holder, ls.last = best, best
		w := ls.rt.workers[best]
		if caller < 0 || stopping || !ls.top[best] || !w.idleTurn() {
			if best != caller {
				ls.turns.Handoff++
				ls.post(best)
			} else {
				ls.turns.Self++
			}
			return
		}
		ls.turns.Inline++
		ls.state[best] = lsRunning
		ls.busy++
		ls.mu.Unlock()
		w.idleDrift()
		if n%256 == 0 {
			// An idle fleet turns forever on this goroutine; at GOMAXPROCS=1
			// an external caller needs the P (turn/idle: 71 ns at 16, 56 here).
			yieldHost()
		}
		ls.mu.Lock()
		ls.state[best], ls.holder = lsWaiting, -1
		ls.busy--
	}
}

// post drops a token into worker id's wake slot without blocking; a full
// slot already holds a token that will wake the worker just as well.
func (ls *lockstep) post(id int) {
	select {
	case ls.wake[id] <- struct{}{}:
	default:
	}
}

// handoff is the one worker-side critical section: worker id checks in as
// s (ending its turn if it holds one), the turn is granted on, and — unless
// the worker is done — it sleeps on its wake slot until the turn comes back
// (or the runtime stops). It reports whether the worker had to wait, i.e.
// the turn did not come straight back to it. loop() checks in between steps
// as lsWaiting with top set, and as lsDone when it exits; a task checks in
// mid-turn, as lsWaiting at a cooperative scheduling point (the virtually-
// furthest-behind worker interleaves) or as lsBlocked with the predicate
// that wakes it, which runs with mu held and must not take locks. A no-op
// on the nil lockstep of a free-running runtime.
func (ls *lockstep) handoff(id int, s lsState, top bool, pred func() bool) (waited bool) {
	if ls == nil {
		return false
	}
	ls.mu.Lock()
	ls.state[id], ls.pred[id], ls.top[id] = s, pred, top
	ls.busy--
	if ls.holder == id {
		ls.holder = -1
	}
	ls.grantLocked(id)
	if s != lsDone {
		for ls.holder != id && !ls.rt.stop.Load() {
			ls.mu.Unlock()
			// Give up the P before sleeping: the successor the grant just
			// woke sits in this P's run-next slot, and a goroutine that is
			// still runnable when the turn comes back finds its token
			// without a park/unpark round trip (svc-tenants wall_s 0.82 s
			// without this yield, 0.68 s with it).
			yieldHost()
			<-ls.wake[id]
			ls.mu.Lock()
			waited = true
		}
		ls.state[id], ls.pred[id] = lsRunning, nil
		ls.busy++
	}
	ls.mu.Unlock()
	return waited
}

// othersBlockedLocked reports whether every worker but id is blocked or
// done — the park fallback's "nobody can advance virtual time" test. Only
// valid from a wake predicate (mu held).
func (ls *lockstep) othersBlockedLocked(id int) bool {
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
	for ls.pauseWant {
		ls.cond.Wait() // one external pause at a time
	}
	ls.pauseWant = true
	ls.grantLocked(-1)
	for ls.holder != -2 && !ls.rt.stop.Load() {
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

// resume releases a pause.
func (ls *lockstep) resume() {
	ls.mu.Lock()
	ls.pauseWant = false
	ls.last = -1
	if ls.holder == -2 {
		ls.holder = -1
	}
	ls.grantLocked(-1)
	ls.cond.Broadcast()
	ls.mu.Unlock()
}

// stopAll wakes every goroutine parked in the lockstep — workers on their
// wake slots, pausers on cond — so they can observe Runtime.stop and exit.
func (ls *lockstep) stopAll() {
	ls.mu.Lock()
	for id := range ls.wake {
		ls.post(id)
	}
	ls.cond.Broadcast()
	ls.mu.Unlock()
}
