package core

import (
	"math"
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
//
// A fleet with nothing left to do (every waiting worker idle at the fleet
// maximum, no arrival ahead) parks instead of turning (idleRun): the kernel
// waits on cond like it does for a pause, a pause takes the fleet at once,
// and an external entry point that changes what an idle turn would do
// without a pause (ServeJobs, EnableMetrics) wakes it.
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
	// runs lets grant batch idle turns into idle runs; in-package tests turn
	// it off to replay the one-turn-per-grant engine. run is idleRun's
	// scratch, one slot per waiting worker.
	runs bool
	run  []runSlot
	// wakes counts wake calls: an idle run that saw it move since it started
	// does not park. settlers counts goroutines waiting in settle, and
	// settleTurns the worker grants they have watched that were not idle
	// turns.
	wakes, settleTurns atomic.Int64
	settlers           atomic.Int32
	// mu guards paused, parked and spun and queues pausers; cond wakes them,
	// settlers and the kernel. Workers never wait on it. parked: the fleet
	// sits at its idle fixpoint, nobody holds the turn and the kernel waits.
	// spun: a settler saw the fleet turn without heading for a park.
	mu                   sync.Mutex
	cond                 *sync.Cond
	paused, parked, spun bool
}

// TurnStats counts lockstep grants by how the turn reached its worker: the
// kernel resumed the worker's coroutine (Handoff), the granting worker played
// an idle turn itself (Inline, counting the turns of idle runs, closed-form
// rounds included), or it came straight back (Self). Host-paced — how many
// idle turns a fleet takes before an external pause cuts its drift short is
// the host's — so it is in no replay.
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
		runs:   true,
		run:    make([]runSlot, 0, workers),
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
// keeps running), or -1 when nobody can run, the fleet went to a pauser
// instead, or it parked. A pick at its loop top whose step() would only drift
// its idle clock (idleTurn) is not resumed: a worker caller plays that turn —
// the same idleDrift, in the same grant order — checks it back in and picks
// again, honouring pauseWant and stop between any two turns. After such a
// turn an all-idle fleet (nobody blocked, every waiting worker at its loop
// top) plays on in an idle run. External callers pass -1 and never play
// turns: they hold no coroutine to get the turn back on. resume and wake
// grant while holding mu, so only a pause request (which neither has pending
// then) makes an external grant take it.
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
			if caller >= 0 && ls.settlers.Load() > 0 && ls.settleTurns.Add(1) > settleSpinTurns {
				ls.spin() // never from an external grant: resume and wake hold mu
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
		if stuck || !ls.runs {
			// A blocked worker's predicate is due at every grant (or idle
			// runs are off): this fleet turns one grant at a time and never
			// parks.
			if ls.settlers.Load() > 0 {
				ls.spin()
			}
		} else if ls.loopTops() && ls.idleRun() {
			return -1 // parked: the fleet state is nobody's until a wake
		}
	}
	return ls.holder
}

// loopTops reports whether every waiting worker checked in from its loop
// top, so each of their next turns is a whole step().
func (ls *lockstep) loopTops() bool {
	for id, s := range ls.state {
		if s == lsWaiting && !ls.top[id] {
			return false
		}
	}
	return true
}

// idleRun plays the turns of an all-idle fleet back to back, on plain copies
// of the waiting workers' clocks, and reports whether it parked the fleet.
// grant calls it after an inline idle turn, with nobody blocked and every
// waiting worker at its loop top; each turn it plays is the one grant would
// play, so the replay is the per-turn engine's by construction:
//
//   - the pick is pickTurn's (smallest clock, ties cyclically after last),
//     over a set of waiting workers that idle turns cannot change;
//   - the drift is idleDrift's, t = min(c+idleQuantum, max(gm, nextWork)),
//     whose cap does not move within the run: every t stays under it;
//   - the idleTurn proof is split by what can change: the queues, the steal
//     order caches and nextWork are read once, because idle turns enqueue,
//     migrate and pump nothing; core liveness is an up-until horizon per
//     worker (fault.Plan.CoreUpUntil), dropped after every governor tick,
//     which may append a park span;
//   - the side effects — the governor tick and the metrics sample — fire
//     only on the turns whose t crosses their boundary (power.Plane.NextAt,
//     obs.Registry.SampleHorizon, worker 0's scheduler tick), the calls
//     idleDrift would make there, with the clocks written back first; the
//     calls it skips do nothing;
//   - a steady round repeats until a boundary, so the rounds after it go
//     in closed form (steadyRounds).
//
// The run writes the clocks back and returns when a pick is not provably
// idle (grant then resumes it), when a tick moved placeEpoch, when pauseWant,
// stop or a wake is seen (checked every 256 turns), or at the fixpoint: two
// full rounds that move no clock. Past that point every turn repeats the
// last with nothing crossing a boundary, so the fleet parks instead, unless
// a wake came in since the run started.
func (ls *lockstep) idleRun() (parked bool) {
	rt := ls.rt
	gen := ls.wakes.Load()
	if !rt.queuesEmpty() {
		return false
	}
	st, epoch := rt.opts.SchedulerTimer, rt.placeEpoch.Load()
	run := ls.run[:0]
	for id, s := range ls.state {
		if s != lsWaiting {
			continue
		}
		w := rt.workers[id]
		u := int64(0) // liveness not known yet: ask at the first pick
		if w.soCache == nil || w.soEpoch != epoch {
			u = -1 // its step rebuilds the steal order: never idle
		}
		c := w.clock.Now()
		run = append(run, runSlot{id: id, clk: c, base: c, until: u, due: w.lastSample + st})
	}
	lim, nw := rt.MaxWorkerClock(), int64(math.MaxInt64)
	if s := rt.svc.Load(); s != nil {
		if nw = s.nextWork.Load(); nw > lim && nw != math.MaxInt64 {
			lim = nw
		}
	}
	tickAt := int64(math.MaxInt64)
	if rt.power != nil {
		tickAt = rt.power.NextAt()
	}
	reg, plan := rt.met.reg, rt.opts.Faults
	sampleAt := reg.SampleHorizon()
	horizons := func() {
		// A turn of worker 0 marks its scheduler tick at due; any worker's
		// turn past due and sampleAt files a sample.
		for i := range run {
			r := &run[i]
			r.hz = r.due
			if r.id != 0 && r.hz < sampleAt {
				r.hz = sampleAt
			}
		}
	}
	horizons()
	last, still, played := ls.last, 0, int64(0)
	baseLast, round := last, 0
	writeBack := func() {
		ls.last = last
		ls.inline.Add(played)
		played = 0
		for _, r := range run {
			rt.workers[r.id].clock.SyncTo(r.clk)
		}
	}
	for n := 1; ; n++ {
		b := 0
		for i := 1; i < len(run); i++ {
			if c := run[i].clk; c < run[b].clk || (c == run[b].clk && run[b].id <= last && run[i].id > last) {
				b = i
			}
		}
		r := &run[b]
		c, id := r.clk, r.id
		if c >= nw {
			writeBack()
			return false
		}
		if c >= r.until {
			if r.until < 0 {
				writeBack()
				return false
			}
			up, u := plan.CoreUpUntil(rt.workers[id].Core(), c)
			if !up {
				writeBack()
				return false
			}
			r.until = u
		}
		t := min(c+idleQuantum, lim)
		r.clk, last = t, id
		played++
		if t >= tickAt || t >= r.hz {
			writeBack()
			w := rt.workers[id]
			ls.holder, ls.state[id] = id, lsRunning
			ls.busy++
			if t >= tickAt {
				rt.power.MaybeTick(t)
				tickAt = rt.power.NextAt()
				for i := range run {
					run[i].until = min(run[i].until, 0)
				}
			}
			if t-w.lastSample >= st {
				w.markSample(t)
				reg.MaybeSample(t)
				r.due, sampleAt = w.lastSample+st, reg.SampleHorizon()
			}
			horizons()
			ls.state[id], ls.holder = lsWaiting, -1
			ls.busy--
			if rt.placeEpoch.Load() != epoch {
				return false
			}
		}
		if round++; round == len(run) {
			if k := steadyRounds(run, last == baseLast, min(lim, tickAt-1), nw); k > 0 {
				for i := range run {
					run[i].clk += k * idleQuantum
				}
				played += k * int64(len(run))
			}
			for i := range run {
				run[i].base = run[i].clk
			}
			baseLast, round = last, 0
		}
		if t != c {
			still = 0
		} else if still++; still >= 2*len(run) {
			writeBack()
			return ls.park(gen)
		}
		if n%256 == 0 {
			ls.inline.Add(played)
			played = 0
			if ls.pauseWant.Load() || rt.stop.Load() || ls.wakes.Load() != gen {
				writeBack()
				return false
			}
			yieldHost()
		}
	}
}

// runSlot is one waiting worker in an idle run: its id, its clock and the
// clock at the start of the current round (base), the clock its core is
// known up until (0: not asked yet, -1: never idle), its next scheduler tick
// (due) and the first clock at which a turn of it has a side effect (hz).
type runSlot struct {
	id                        int
	clk, base, until, due, hz int64
}

// steadyRounds returns how many more rounds of an idle run can be played in
// closed form: a round (one turn per waiting worker) that moved every clock
// from base by exactly idleQuantum and left last where it was (same) is
// repeated, shifted by idleQuantum, by the next one — the pick rule sees the
// same order, and no drift is capped — for as long as no turn crosses a
// boundary: every drifted clock stays at or under tmax (the drift cap and the
// governor tick) and under its worker's sample horizon hz, and every clock a
// turn starts from stays under nw and its worker's liveness horizon until.
func steadyRounds(run []runSlot, same bool, tmax, nw int64) int64 {
	if !same {
		return 0
	}
	k := int64(math.MaxInt64)
	for _, r := range run {
		c := r.clk
		if c != r.base+idleQuantum {
			return 0
		}
		end, start := min(tmax, r.hz-1), min(nw, r.until)-1
		if end < c+idleQuantum || start < c {
			return 0
		}
		k = min(k, (end-c)/idleQuantum, (start-c)/idleQuantum+1)
	}
	return k
}

// park marks the fleet parked at its idle fixpoint unless a wake came in
// since gen, and tells waiting settlers and pausers. A pauser already
// waiting gets the fleet as paused instead, so a parked fleet never has a
// pause pending (wake's grant would take mu again to hand it over).
func (ls *lockstep) park(gen int64) bool {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if ls.wakes.Load() != gen {
		return false
	}
	if ls.pauseWant.Load() {
		ls.paused = true
	} else {
		ls.parked = true
	}
	ls.cond.Broadcast()
	return true
}

// wake un-parks a parked fleet: an external entry point that changed what
// an idle turn would do without pausing the fleet (ServeJobs, EnableMetrics)
// calls it, and the kernel resumes the worker the grant names, which plays
// that turn for real. A run in flight sees the wake within 256 turns and
// re-reads what it cached; one that reaches its fixpoint first does not park.
// A stopping fleet is not woken: a worker that parked it as Stop came in
// runs on without yielding (handoff), so a grant here would race it.
func (ls *lockstep) wake() {
	if ls == nil {
		return
	}
	ls.mu.Lock()
	defer ls.mu.Unlock()
	ls.wakes.Add(1)
	if ls.parked && !ls.rt.stop.Load() {
		ls.parked = false
		ls.grant(-1)
		ls.cond.Broadcast()
	}
}

// settleSpinTurns is how many worker grants that are not idle turns a
// settler watches before it gives up on the fleet parking: work that keeps
// coming (a task yielding in a loop, a submitter that never stops) keeps a
// fleet from its fixpoint for good. A drained fleet on its way to the park
// takes next to none: every Drain of the svc-tenants and topo-fabrics
// benchmarks and of the test suites saw 0 (at most 1 in an lsSettle) before
// the fleet parked.
const settleSpinTurns = 1 << 12

// settle returns once the fleet has parked, so an external reader sees a
// machine that no longer moves — or at once (when it next turns) if it
// cannot park: a worker is blocked, idle runs are off, or grants keep
// finding work. Also returns on stop.
func (ls *lockstep) settle() {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	ls.spun = false
	ls.settleTurns.Store(0)
	ls.settlers.Add(1)
	for !ls.parked && !ls.spun && !ls.rt.stop.Load() {
		ls.cond.Wait()
	}
	ls.settlers.Add(-1)
}

// spin tells settlers the fleet is turning without heading for a park.
func (ls *lockstep) spin() {
	ls.mu.Lock()
	ls.spun = true
	ls.cond.Broadcast()
	ls.mu.Unlock()
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
	for !ls.paused && !ls.parked && !ls.rt.stop.Load() {
		ls.cond.Wait()
	}
	if ls.parked {
		ls.parked, ls.paused = false, true // resume names the next holder
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
// holds the fleet, the fleet is parked, or every loop has returned (which
// takes a stop), and once the runtime stops it resumes each unfinished loop
// until it returns, leaving no coroutine suspended.
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
	ls.mu.Lock()
	ls.parked = false // the loops run to their end: no wake may grant now
	ls.mu.Unlock()
	for _, next := range ls.next {
		for ok := true; ok; {
			_, ok = next()
		}
	}
}
