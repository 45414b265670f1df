package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"charm/internal/admit"
	"charm/internal/fault"
	"charm/internal/mem"
	"charm/internal/pmu"
	"charm/internal/sim"
	"charm/internal/tenant"
	"charm/internal/topology"
)

var updateLockstepGolden = flag.Bool("update-lockstep-golden", false,
	"rewrite testdata/lockstep_golden.txt from this run instead of comparing against it")

// lsGolden accumulates the text digest of the lockstep golden scenarios:
// one section per scenario holding the run's Stats, the full PMU (every
// non-zero counter of every core), worker clocks, and per-job outcomes.
// The file is compared byte for byte, so a baton change that moves a
// single grant shows up as a readable one-line diff.
type lsGolden struct{ b strings.Builder }

func (g *lsGolden) section(name string) { fmt.Fprintf(&g.b, "== %s\n", name) }

func (g *lsGolden) linef(format string, a ...any) { fmt.Fprintf(&g.b, format+"\n", a...) }

func (g *lsGolden) stats(label string, st Stats) {
	g.linef("stats %s makespan=%d tasks=%d steals=%d remote=%d migrations=%d",
		label, st.Makespan, st.Tasks, st.Steals, st.RemoteSteals, st.Migrations)
}

// machine records the PMU and the worker clocks. The clocks are read
// under an external pause: a finished run leaves idle workers drifting
// toward the fleet maximum one host-scheduled turn at a time, and the
// pause converges them, so what is recorded is the quiesced fleet — the
// maximum for every runnable worker, its own clock for a parked one.
func (g *lsGolden) machine(rt *Runtime) {
	snap := rt.M.PMU.Snapshot()
	for core, row := range snap.Counts {
		var sb strings.Builder
		for e, v := range row {
			if v != 0 {
				fmt.Fprintf(&sb, " %s=%d", pmu.Event(e), v)
			}
		}
		if sb.Len() > 0 {
			g.linef("pmu core=%d%s", core, sb.String())
		}
	}
	rt.ls.pause()
	clocks := make([]int64, len(rt.workers))
	for i, w := range rt.workers {
		clocks[i] = w.clock.Now()
	}
	rt.ls.resume()
	g.linef("clocks %v", clocks)
}

func (g *lsGolden) jobs(svc *JobService) {
	g.linef("jobstats %+v", svc.Stats())
	for _, j := range svc.Jobs() {
		g.linef("job %d %s state=%s arrival=%d latency=%d met=%v",
			j.ID(), j.Name(), j.State(), j.Arrival(), j.Latency(), j.MetDeadline())
	}
}

// lsRuntime is jobRuntime (4x2 synthetic machine, 8 workers unless set)
// with the metric counters on.
func lsRuntime(t *testing.T, opts Options) *Runtime {
	t.Helper()
	if opts.SchedulerTimer == 0 {
		opts.SchedulerTimer = 50_000
	}
	rt := startedRuntime(t, opts) // some scenarios stop mid-stream: no ledger check
	rt.met.reg.SetEnabled(true)   // the fault scenarios digest park/re-enqueue counters
	return rt
}

// lsServe installs the job service under an external pause. ServeJobs
// itself does not stop the fleet, so installed bare on a running
// Deterministic runtime the first arrivals are pumped by whichever idle
// worker the host lets see the service first; paused, the fleet is
// quiescent at the converged clock and the install is part of the replay.
func lsServe(t *testing.T, rt *Runtime, opts JobServiceOptions) *JobService {
	t.Helper()
	rt.ls.pause()
	svc, err := rt.ServeJobs(opts)
	rt.ls.resume()
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// lsSettle returns once the fleet sits at its idle fixed point, so what the
// caller reads next does not depend on when the host lets it read. A run
// that has returned leaves idle workers drifting up to the fleet maximum,
// ticking the governor and the samplers on the way; an external pause would
// cut that short (it moves waiting clocks to the maximum without ticking).
// A fleet with nobody blocked parks at the fixed point, and the helper waits
// for that (lockstep.settle, what Drain does). A fleet with a worker parked
// on an offline core never parks: it turns one grant at a time, so there
// the helper watches — every worker that is not parked is at the maximum,
// and since then each has had one more turn (equal clocks rotate
// round-robin) to file the tick and the samples that were still due at that
// clock. Needs a fleet with nothing queued and no arrival pending, or the
// clocks never stop.
func lsSettle(rt *Runtime) {
	rt.ls.settle()
	for since := int64(-1); !lsParked(rt); yieldHost() {
		settled, max := true, rt.MaxWorkerClock()
		for _, w := range rt.workers {
			settled = settled && (w.blocked.Load() || w.clock.Now() == max)
		}
		st := rt.TurnStats()
		n := st.Handoff + st.Inline + st.Self
		switch {
		case !settled:
			since = -1
		case since < 0:
			since = n
		case n-since >= int64(len(rt.workers)):
			return
		}
	}
}

// lsParked reports whether the fleet is parked at its idle fixed point.
func lsParked(rt *Runtime) bool {
	rt.ls.mu.Lock()
	defer rt.ls.mu.Unlock()
	return rt.ls.parked
}

// power records the governor's published state: the clock it integrated up
// to, temperatures, energy ledgers and tier events per chiplet.
func (g *lsGolden) power(rt *Runtime) { g.linef("power %+v", *rt.Power().Stats()) }

// series records what the idle turns file besides clock drift: the fault
// actions (offline, park, resume) with the clocks they fired at, sorted by
// (time, worker, code), and the times the metrics sampler accepted.
func (g *lsGolden) series(rt *Runtime) {
	var sb strings.Builder
	for _, x := range faultSpans(rt.Tracer().Spans()) {
		fmt.Fprintf(&sb, " w%d@%d=%d", x.Worker, x.Start, faultInstants[x.Kind].code)
	}
	g.linef("fault%s", sb.String())
	var at []int64
	for _, h := range rt.Metrics().History() {
		at = append(at, h.T)
	}
	g.linef("sampled %v", at)
}

// chrome records the SHA-256 of the Chrome trace's events sorted as
// strings: a multiset digest, because equal-timestamp instants on one worker
// may come out of the writer in either order.
func (g *lsGolden) chrome(t *testing.T, rt *Runtime) {
	t.Helper()
	var buf bytes.Buffer
	if err := rt.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	events := make([]string, len(doc.TraceEvents))
	for i, e := range doc.TraceEvents {
		events[i] = string(e)
	}
	sort.Strings(events)
	g.linef("chrome events=%d sha256=%x", len(events), sha256.Sum256([]byte(strings.Join(events, "\n"))))
}

// lsIdleRuntime is lsRuntime with the power plane (10 µs governor tick
// under the 50 µs SchedulerTimer), the metrics sampler and the profiler on:
// everything an idle turn can fire besides the clock add.
func lsIdleRuntime(t *testing.T, opts Options) *Runtime {
	t.Helper()
	if opts.Power == nil {
		opts.Power = hotPowerConfig()
	}
	rt := lsRuntime(t, opts)
	rt.EnableMetrics(true)
	rt.EnableProfiler(true)
	return rt
}

// lsIdleTenantsScenario: two tenants whose arrival gaps (90 µs and 140 µs
// mean) span several governor ticks and sampler boundaries, so most ticks
// and metric samples fire from idle turns while the fleet drifts toward the
// next arrival.
func lsIdleTenantsScenario(t *testing.T, g *lsGolden) {
	g.section("idle-power-tenants")
	rt := lsIdleRuntime(t, Options{})
	gen := func(name string, tasks int, cost int64) func(i int) JobSpec {
		return func(i int) JobSpec {
			s := computeJob(tasks, cost+1_000*int64(i%3), nil)
			s.Name = fmt.Sprintf("%s%d", name, i)
			s.Deadline = 120_000
			s.Cost = int64(tasks) * cost
			return s
		}
	}
	svc := lsServe(t, rt, JobServiceOptions{
		MaxInFlight:  16,
		EvalInterval: 50_000,
		Tenants: []TenantConfig{
			{
				Spec:   tenant.Spec{Name: "A", Weight: 1, Quota: 2, Policy: admit.Shed, QueueCap: 16},
				Source: &SpecSource{Arrivals: admit.NewPoisson(21, 90_000, 10), Gen: gen("a", 3, 12_000)},
			},
			{
				Spec:   tenant.Spec{Name: "B", Weight: 1, Quota: 2, Policy: admit.Shed, QueueCap: 16},
				Source: &SpecSource{Arrivals: admit.NewPoisson(22, 140_000, 8), Gen: gen("b", 6, 20_000)},
			},
		},
	})
	svc.Drain()
	lsSettle(rt)
	g.jobs(svc)
	g.power(rt)
	g.series(rt)
	g.chrome(t, rt)
	g.machine(rt)
}

// lsIdleFaultScenario: fault windows that open and expire with nobody
// mid-task. A burst of compute drives the governor into 60 µs emergency
// parks, then nothing arrives for most of a millisecond: the last parks
// expire in that gap (the park predicate — fleet maximum reached the
// revival — is satisfied by idle drift alone), chiplet 3's static offline
// window opens and closes inside it (checkFault fires from idle turns at
// the window's first idle clock), and the job at 900 µs heats the dies
// into a park that opens after it has finished, again on an idle fleet.
func lsIdleFaultScenario(t *testing.T, g *lsGolden) {
	g.section("idle-fault-park")
	topo := topology.Synthetic(4, 2)
	plan := compilePlan(t, fault.New("ls-idle", 3).OfflineChiplet(3, 300_000, 460_000), topo)
	pc := hotPowerConfig()
	pc.ParkNS = 60_000
	rt := lsIdleRuntime(t, Options{Faults: plan, Power: pc, Policy: NewStaticPolicy(Compact)})
	at := []int64{1_000, 2_000, 3_000, 4_000, 5_000, 6_000, 900_000, 950_000}
	svc := lsServe(t, rt, JobServiceOptions{
		Policy:       admit.Block,
		MaxInFlight:  16,
		EvalInterval: 50_000,
		Source: &SpecSource{
			Arrivals: admit.NewTrace(at),
			Gen: func(i int) JobSpec {
				s := computeJob(8, 25_000, nil)
				s.Name = fmt.Sprintf("burst%d", i)
				return s
			},
		},
	})
	svc.Drain()
	lsSettle(rt)
	g.jobs(svc)
	g.linef("fault parks=%d reenqueues=%d", rt.met.faultParks.Value(), rt.met.faultReenqueues.Value())
	g.power(rt)
	g.series(rt)
	g.chrome(t, rt)
	g.machine(rt)
}

// lsIdleSubmitScenario: external SubmitJobs against a fleet that has idled
// through a long gap. Each job holds one worker in a 300 µs compute while
// the other seven have nothing to do, so once it ends they drift up to its
// clock through thirty governor ticks; the next SubmitJob pauses the
// settled fleet, admits at that clock and resumes with the rotation reset.
func lsIdleSubmitScenario(t *testing.T, g *lsGolden) {
	g.section("idle-gap-submit")
	rt := lsIdleRuntime(t, Options{})
	for i := 0; i < 3; i++ {
		s := computeJob(2, 4_000, nil)
		s.Stages[0] = append(s.Stages[0], func(ctx *Ctx) { ctx.Compute(300_000) })
		s.Name = fmt.Sprintf("ext%d", i)
		j, err := rt.SubmitJob(s)
		if err != nil {
			t.Fatal(err)
		}
		<-j.Done()
		lsSettle(rt)
	}
	g.jobs(rt.JobServer())
	g.power(rt)
	g.series(rt)
	g.machine(rt)
}

// lsYieldScenario: ParallelFor bodies that Yield mid-task (release+acquire
// in one step), with uneven costs so the smallest-clock rule and the
// rotating tie-break both decide grants. The per-task finish clocks pin
// the interleaving itself, not just its totals.
func lsYieldScenario(t *testing.T, g *lsGolden) {
	g.section("parallelfor-yield")
	rt := lsRuntime(t, Options{})
	addr := rt.Alloc(1<<16, 0)
	for phase := 0; phase < 2; phase++ {
		finish := make([]int64, 64)
		st := rt.ParallelFor(0, 64, 2, func(ctx *Ctx, i0, i1 int) {
			for i := i0; i < i1; i++ {
				a := addr + mem.Addr((i*7+phase)%128)*256
				ctx.Read(a, 256)
				ctx.Compute(int64(1_000 * (i%5 + 1)))
				ctx.Yield()
				ctx.Write(a, 64)
				if i%3 == 0 {
					ctx.Yield()
				}
				finish[i] = ctx.Now()
			}
		})
		g.stats(fmt.Sprintf("phase%d", phase), st)
		g.linef("finish %v", finish)
	}
	g.machine(rt)
}

// lsCallScenario: synchronous Calls (handoff as lsBlocked on done.Load). Even workers
// call their odd neighbour, which only computes and yields, so no cycle
// of blocked callers can form.
func lsCallScenario(t *testing.T, g *lsGolden) {
	g.section("sync-call")
	rt := lsRuntime(t, Options{})
	addr := rt.Alloc(1<<14, 0)
	finish := make([]int64, rt.Workers())
	st := rt.AllDo(func(ctx *Ctx) {
		w := ctx.Worker()
		for r := 0; r < 3; r++ {
			ctx.Compute(int64(500 * (w + 1)))
			if w%2 == 0 {
				ctx.Call(w+1, func(c *Ctx) {
					c.Read(addr+mem.Addr(w)*512, 128)
					c.Compute(700)
				})
			} else {
				ctx.Yield()
			}
		}
		finish[w] = ctx.Now()
	})
	g.stats("alldo", st)
	g.linef("finish %v", finish)
	g.machine(rt)
}

// lsBarrierScenario: AllDo + Barrier with a task re-homed mid-barrier.
// Chiplet 1 (workers 2 and 3) dies at t=30µs. Worker 2's instance is not
// a barrier party: it computes across the fault, spawns children onto its
// own deque and returns, so its next loop step drains them to worker 4 —
// which is parked inside the barrier and must wake on its inbox, spill
// the strays to its deque and block again. Worker 0 arrives last, after a
// run of yields, so the fleet really is mid-barrier when that happens.
// Workers 2 and 3 then sit in fault parks (the static policy never
// re-homes a worker) until the revival at 400µs.
func lsBarrierScenario(t *testing.T, g *lsGolden) {
	g.section("barrier-rehome")
	topo := topology.Synthetic(4, 2)
	plan := compilePlan(t, fault.New("ls-barrier", 5).OfflineChiplet(1, 30_000, 400_000), topo)
	rt := lsRuntime(t, Options{Faults: plan, Policy: NewStaticPolicy(Compact)})
	bar := rt.NewBarrier(6)
	finish := make([]int64, rt.Workers())
	var children atomic.Int64
	st := rt.AllDo(func(ctx *Ctx) {
		w := ctx.Worker()
		switch w {
		case 2:
			ctx.Compute(40_000)
			for i := 0; i < 4; i++ {
				ctx.Spawn(func(c *Ctx) {
					c.Compute(3_000)
					children.Add(1)
				})
			}
		case 3:
			ctx.Compute(1_000)
		default:
			if w == 0 {
				for i := 0; i < 10; i++ {
					ctx.Compute(20_000)
					ctx.Yield()
				}
			} else {
				ctx.Compute(int64(2_000 * w))
			}
			ctx.Barrier(bar)
			ctx.Compute(1_000)
		}
		finish[w] = ctx.Now()
	})
	if children.Load() != 4 {
		t.Errorf("barrier-rehome: %d of 4 re-homed children ran", children.Load())
	}
	g.stats("alldo", st)
	g.linef("finish %v", finish)
	g.linef("fault parks=%d reenqueues=%d", rt.met.faultParks.Value(), rt.met.faultReenqueues.Value())
	// A second phase past the revival: the parked workers resume and run.
	st = rt.ParallelFor(0, 32, 1, func(ctx *Ctx, i0, i1 int) {
		ctx.Compute(120_000)
		ctx.Yield()
	})
	g.stats("revive", st)
	g.machine(rt)
}

// lsParkScenario: four workers packed onto chiplets 0 and 1, which both go
// offline for the same window, so the whole fleet parks with queued work
// and only othersBlockedLocked — nobody can advance virtual time — lets a
// parked worker jump to the revival.
func lsParkScenario(t *testing.T, g *lsGolden) {
	g.section("park-all-blocked")
	topo := topology.Synthetic(4, 2)
	plan := compilePlan(t, fault.New("ls-park", 9).
		OfflineChiplet(0, 50_000, 150_000).
		OfflineChiplet(1, 50_000, 150_000), topo)
	rt := lsRuntime(t, Options{Workers: 4, Faults: plan, Policy: NewStaticPolicy(Compact)})
	finish := make([]int64, 48)
	st := rt.ParallelFor(0, 48, 1, func(ctx *Ctx, i0, i1 int) {
		ctx.Compute(int64(9_000 + 500*(i0%4)))
		ctx.Yield()
		ctx.Compute(2_000)
		finish[i0] = ctx.Now()
	})
	g.stats("parallelfor", st)
	g.linef("finish %v", finish)
	g.linef("fault parks=%d", rt.met.faultParks.Value())
	g.machine(rt)
}

// lsServeScenario: an open-loop source (installed under a pause, see
// lsServe) drained to exhaustion, then external SubmitJobs against the
// idle fleet — each one pauses the baton, admits at the converged fleet
// clock and resumes (last reset to -1).
func lsServeScenario(t *testing.T, g *lsGolden) {
	g.section("serve-submit")
	rt := lsRuntime(t, Options{})
	svc := lsServe(t, rt, JobServiceOptions{
		Policy:        admit.Shed,
		QueueCapacity: 8,
		MaxInFlight:   4,
		Source: &SpecSource{
			Arrivals: admit.NewPoisson(13, 4_000, 40),
			Gen: func(i int) JobSpec {
				s := computeJob(3, int64(2_000+500*(i%4)), nil)
				s.Name = fmt.Sprintf("src%d", i)
				s.Deadline = 60_000
				return s
			},
		},
	})
	svc.Drain()
	for i := 0; i < 5; i++ {
		s := computeJob(2+i%2, 1_500, nil)
		s.Name = fmt.Sprintf("ext%d", i)
		s.Deadline = 50_000
		j, err := rt.SubmitJob(s)
		if err != nil {
			t.Fatal(err)
		}
		<-j.Done()
	}
	g.jobs(svc)
	g.machine(rt)
}

// lsStopScenario: Stop lands mid-stream, while workers are taking turns
// on an unfinished open-loop source. Where the stream is cut depends on
// the host, so the digest holds only what does not: Stop returned, work
// had been done, and later submissions are refused.
func lsStopScenario(t *testing.T, g *lsGolden) {
	g.section("stop-midrun")
	rt := lsRuntime(t, Options{})
	svc := lsServe(t, rt, JobServiceOptions{
		Policy: admit.Shed,
		Source: &SpecSource{
			Arrivals: admit.NewPoisson(17, 2_000, 1<<20),
			Gen: func(i int) JobSpec {
				return JobSpec{Stages: []JobStage{{
					func(ctx *Ctx) { ctx.Compute(1_000); ctx.Yield(); ctx.Compute(1_000) },
					func(ctx *Ctx) { ctx.Compute(1_500) },
				}}}
			},
		},
	})
	for svc.Stats().Completed < 50 {
		yieldHost()
	}
	rt.Stop()
	st := svc.Stats()
	_, err := rt.SubmitJob(computeJob(1, 1_000, nil))
	g.linef("stopped completed>=50=%v exhausted=%v resubmit=%v",
		st.Completed >= 50, st.Submitted == 1<<20, errors.Is(err, ErrFinalized))
}

// TestLockstepGolden pins Deterministic-mode behaviour across commits:
// six small scenarios that together enter the baton through every door
// (acquire/release from the loop, Yield, blocking from Call, Barrier and
// park, pause/resume from submitWait and SubmitJob, Stop) are digested
// into testdata/lockstep_golden.txt. The engine may get faster; this file
// may not change. Regenerate deliberately with -update-lockstep-golden.
func TestLockstepGolden(t *testing.T) { lsGoldenCheck(t) }

// lsTurnByTurn turns idle runs off in the runtimes startedRuntime builds.
var lsTurnByTurn bool

// TestLockstepGoldenTurnByTurn replays the golden scenarios on the
// one-turn-per-grant engine that idle runs batch: the same file must come
// out, so an idle run changes how many grants a stretch of idle turns
// takes, never what they do.
func TestLockstepGoldenTurnByTurn(t *testing.T) {
	lsTurnByTurn = true
	defer func() { lsTurnByTurn = false }()
	lsGoldenCheck(t)
}

func lsGoldenCheck(t *testing.T) {
	var g lsGolden
	lsYieldScenario(t, &g)
	lsCallScenario(t, &g)
	lsBarrierScenario(t, &g)
	lsParkScenario(t, &g)
	lsServeScenario(t, &g)
	lsIdleTenantsScenario(t, &g)
	lsIdleFaultScenario(t, &g)
	lsIdleSubmitScenario(t, &g)
	lsStopScenario(t, &g)
	got := g.b.String()

	path := filepath.Join("testdata", "lockstep_golden.txt")
	if *updateLockstepGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-lockstep-golden): %v", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("golden mismatch at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("golden mismatch: got %d lines, want %d", len(gl), len(wl))
}

// refGrant is the grant rule as the broadcast baton wrote it — three scans
// of state and an explicit rotation rank — kept here, and only here, as
// the oracle for pickTurn/grantLocked. It mutates state like the original
// (fired predicates turn blocked into waiting) and returns the pick, or -1.
func refGrant(state []lsState, pred []func() bool, clocks []int64, last int) int {
	for _, s := range state {
		if s == lsStart || s == lsRunning {
			return -1
		}
	}
	for id, s := range state {
		if s == lsBlocked && pred[id]() {
			state[id] = lsWaiting
		}
	}
	n := len(state)
	best, bestRank, bestClock := -1, 0, int64(0)
	for id, s := range state {
		if s != lsWaiting {
			continue
		}
		rank := (id - last - 1 + n) % n
		if c := clocks[id]; best == -1 || c < bestClock || (c == bestClock && rank < bestRank) {
			best, bestClock, bestRank = id, c, rank
		}
	}
	return best
}

// lsVector is one input of the grant-order model test.
type lsVector struct {
	state  []lsState
	clocks []int64
	fires  []bool // blocked worker's predicate result
	others []bool // blocked worker's predicate is othersBlocked instead
	last   int
	caller int // -1 for an external caller
}

func randLsVector(r *rand.Rand) lsVector {
	n := 1 + r.Intn(12)
	v := lsVector{
		state: make([]lsState, n), clocks: make([]int64, n),
		fires: make([]bool, n), others: make([]bool, n),
		last: r.Intn(n+1) - 1, caller: -1,
	}
	shape := r.Intn(8)
	span := int64(1 + r.Intn(4)) // few distinct clocks: ties are the norm
	for id := range v.state {
		switch k := r.Intn(10); {
		case k < 5:
			v.state[id] = lsWaiting
		case k < 8:
			v.state[id] = lsBlocked
		default:
			v.state[id] = lsDone
		}
		v.clocks[id] = r.Int63n(span)
		v.fires[id] = r.Intn(2) == 0
		v.others[id] = r.Intn(6) == 0
	}
	switch shape {
	case 0: // all-equal clocks: the rotation alone decides
		for id := range v.clocks {
			v.clocks[id] = 7
		}
	case 1: // fresh after resume
		v.last = -1
	case 2: // a single waiter among blocked/done workers
		for id := range v.state {
			if v.state[id] == lsWaiting {
				v.state[id] = lsDone
			}
		}
		v.state[r.Intn(n)] = lsWaiting
	case 3: // a fleet that is not quiescent
		if r.Intn(2) == 0 {
			v.state[r.Intn(n)] = lsRunning
		} else {
			v.state[r.Intn(n)] = lsStart
		}
	case 4: // a blocked worker whose predicate fires below the caller's clock
		c, b := r.Intn(n), r.Intn(n)
		v.state[c], v.clocks[c] = lsWaiting, 5
		if b != c {
			v.state[b], v.clocks[b], v.fires[b], v.others[b] = lsBlocked, r.Int63n(5), true, false
		}
		v.caller = c
	}
	if v.caller == -1 && r.Intn(2) == 0 {
		if c := r.Intn(n); v.state[c] == lsWaiting {
			v.caller = c // a worker handing its turn on
		}
	}
	return v
}

// TestLockstepGrantOrderModel drives the grant over random fleets — from a
// worker's handoff, or bare as an external caller makes it — and demands the reference's answer on each: the same pick, the same blocked →
// waiting transitions, predicates consulted only on a quiescent fleet and
// in worker-id order, last advanced, the kernel told to resume exactly the
// picked worker — the caller yields once, naming it — and nobody when the
// pick is the caller, which keeps the turn without yielding (no fleet here
// passes idleTurn, so no turn is inline), and the deadlock panic exactly when
// every live worker is blocked with no predicate holding.
func TestLockstepGrantOrderModel(t *testing.T) {
	const maxWorkers = 12
	rt := NewRuntime(sim.New(sim.Config{Topo: topology.Synthetic(8, 2)}),
		Options{Workers: maxWorkers, Deterministic: true})
	r := rand.New(rand.NewSource(20260930))
	for iter := 0; iter < 20_000; iter++ {
		v := randLsVector(r)
		n := len(v.state)
		ls := newLockstep(rt, n)
		ls.last = v.last
		ls.busy = 0
		copy(ls.state, v.state)
		for id, s := range v.state {
			rt.workers[id].clock.Set(v.clocks[id])
			if s == lsStart || s == lsRunning {
				ls.busy++
			}
		}
		rt.ls = ls
		quiescent := ls.busy == 0
		var order, named []int
		for id := range ls.yield {
			ls.yield[id] = func(to int) bool {
				named = append(named, id, to)
				return true
			}
		}
		mkPreds := func(state []lsState, log *[]int) []func() bool {
			preds := make([]func() bool, n)
			for id := range preds {
				id := id
				if state[id] != lsBlocked {
					continue
				}
				preds[id] = func() bool {
					if log != nil {
						*log = append(*log, id)
					}
					if v.others[id] { // park's fallback: reads the live state array
						for j, s := range state {
							if j != id && s != lsBlocked && s != lsDone {
								return false
							}
						}
						return true
					}
					return v.fires[id]
				}
			}
			return preds
		}
		copy(ls.pred, mkPreds(ls.state, &order))

		wantState := append([]lsState(nil), v.state...)
		want := refGrant(wantState, mkPreds(wantState, nil), v.clocks, v.last)
		wantPanic := want == -1 && quiescent
		if wantPanic {
			wantPanic = false
			for _, s := range wantState {
				wantPanic = wantPanic || s == lsBlocked
			}
		}

		panicked := func() (p bool) {
			defer func() { p = recover() != nil }()
			if v.caller < 0 {
				named = append(named, -1, ls.grant(-1))
				return false
			}
			// The caller is mid-turn and checks in; back from handoff it runs.
			ls.state[v.caller], ls.holder = lsRunning, v.caller
			ls.busy++
			ls.handoff(v.caller, lsWaiting, false, nil)
			wantState[v.caller] = lsRunning
			return false
		}()
		desc := fmt.Sprintf("iter %d: state=%v clocks=%v fires=%v others=%v last=%d caller=%d",
			iter, v.state, v.clocks, v.fires, v.others, v.last, v.caller)
		if panicked != wantPanic {
			t.Fatalf("%s: deadlock panic = %v, want %v", desc, panicked, wantPanic)
		}
		if panicked {
			continue
		}
		if ls.holder != want {
			t.Fatalf("%s: picked %d, reference picks %d", desc, ls.holder, want)
		}
		if !quiescent {
			if len(order) != 0 {
				t.Fatalf("%s: predicates %v consulted on a fleet that is not quiescent", desc, order)
			}
			continue
		}
		if !reflect.DeepEqual(ls.state, wantState) {
			t.Fatalf("%s: states %v, reference %v", desc, ls.state, wantState)
		}
		if !sort.IntsAreSorted(order) {
			t.Fatalf("%s: predicates consulted out of id order: %v", desc, order)
		}
		if want != -1 && ls.last != want {
			t.Fatalf("%s: last = %d after granting %d", desc, ls.last, want)
		}
		wantTurns, wantNamed := TurnStats{Handoff: 1}, []int{v.caller, want}
		if want == -1 {
			wantTurns = TurnStats{}
		} else if want == v.caller {
			wantTurns, wantNamed = TurnStats{Self: 1}, nil
		}
		if got := rt.TurnStats(); got != wantTurns || !reflect.DeepEqual(named, wantNamed) {
			t.Fatalf("%s: turns %+v, (caller, resume) = %v, want %+v and %v", desc, got, named, wantTurns, wantNamed)
		}
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestLockstepIdleTurnSound is the soundness gate of the inline-turn
// predicate: over random fleets — queue contents (pinned, tenant-fenced and
// plain tasks in deques and inboxes), the job service's next work before, at
// and after the worker's clock, clocks inside and outside core-down windows,
// blocked victims, stale steal-order caches — whenever idleTurn says yes, a
// real step() of that worker must be nothing but idleDrift: queues, PMU,
// metrics, job ledgers and every other clock untouched, its own clock at
// min(c+Q, max(fleet max, next work)). The predicate may say no on a step
// that would idle; the counts at the end keep the test from passing on a
// predicate that always does. The runtime is never started: the test plays
// the turns, so no goroutine races it.
func TestLockstepIdleTurnSound(t *testing.T) {
	topo := topology.Synthetic(4, 2)
	plan := compilePlan(t, fault.New("idle-sound", 1).
		OfflineChiplet(1, 10_000, 20_000).OfflineCore(5, 30_000, 40_000), topo)
	rt := NewRuntime(sim.New(sim.Config{Topo: topo}),
		Options{Workers: 8, Deterministic: true, Faults: plan, SchedulerTimer: 50_000})
	defer rt.Stop()
	rt.met.reg.SetEnabled(true)
	svc, err := rt.ServeJobs(JobServiceOptions{Tenants: []TenantConfig{
		{Spec: tenant.Spec{Name: "A", Weight: 1, Quota: 2, Policy: admit.Shed, QueueCap: 8}},
		{Spec: tenant.Spec{Name: "B", Weight: 1, Quota: 2, Policy: admit.Shed, QueueCap: 8}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	jobs := []*Job{nil, {ten: 0}, {ten: 1}}
	queued := func() (n int64) {
		for _, w := range rt.workers {
			n += int64(w.deque.Len()) + w.inbox.Len()
		}
		return n
	}
	observe := func(self int) (pmu.Snapshot, any, JobStats, []TenantStats, []int64) {
		var clocks []int64
		for id, w := range rt.workers {
			if id != self {
				clocks = append(clocks, w.clock.Now())
			}
		}
		return rt.M.PMU.Snapshot(), rt.met.reg.Snapshot(0), svc.Stats(), svc.TenantStats(), clocks
	}

	r := rand.New(rand.NewSource(14))
	var yes, down, due, stale, busy int
	for iter := 0; iter < 12_000; iter++ {
		for _, w := range rt.workers {
			for w.deque.Pop() != nil || w.inbox.Take() != nil {
			}
			w.clock.Set(r.Int63n(50_000))
			w.blocked.Store(r.Intn(8) == 0)
			rt.opts.Policy.StealOrder(w) // fill the cache
		}
		if r.Intn(8) == 0 {
			rt.placeEpoch.Add(1) // every cached steal order is stale
		}
		for n := r.Intn(3) * r.Intn(4); n > 0; n-- {
			task := &Task{pinned: r.Intn(3) == 0, home: r.Intn(8), job: jobs[r.Intn(len(jobs))]}
			if v := rt.workers[r.Intn(8)]; r.Intn(2) == 0 {
				v.deque.Push(task)
			} else {
				v.inbox.Put(task)
			}
		}
		w := rt.workers[r.Intn(8)]
		c := w.clock.Now()
		next := int64(math.MaxInt64)
		if k := r.Intn(4); k > 0 {
			next = c + int64(k-2)*(1+r.Int63n(5_000)) // before, at, after the clock
		}
		svc.nextWork.Store(next)

		isDown, isDue := plan.CoreDown(w.Core(), c), next <= c
		isStale, isBusy := w.soEpoch != rt.placeEpoch.Load(), queued() > 0
		if !w.idleTurn() {
			if !isDown && !isDue && !isStale && !isBusy {
				t.Fatalf("iter %d: worker %d at %d refused an idle turn for no reason the test knows", iter, w.id, c)
			}
			down, due, stale, busy = down+b2i(isDown), due+b2i(isDue), stale+b2i(isStale), busy+b2i(isBusy)
			continue
		}
		yes++
		if isDown {
			t.Fatalf("iter %d: idle on core %d, which is down at %d (step would park)", iter, w.Core(), c)
		}
		want := c + idleQuantum
		if lim := rt.MaxWorkerClock(); next != math.MaxInt64 && next > lim {
			want = min(want, next)
		} else {
			want = min(want, lim)
		}
		pm0, met0, js0, ts0, clk0 := observe(w.id)
		idle := 0
		w.step(&idle)
		pm1, met1, js1, ts1, clk1 := observe(w.id)
		switch {
		case idle != 1:
			t.Fatalf("iter %d: step of worker %d did not end in idleDrift", iter, w.id)
		case w.clock.Now() != want:
			t.Fatalf("iter %d: clock %d -> %d, idleDrift moves it to %d (next work %d)", iter, c, w.clock.Now(), want, next)
		case queued() != 0:
			t.Fatalf("iter %d: step touched a queue", iter)
		case !reflect.DeepEqual(pm0, pm1):
			t.Fatalf("iter %d: step moved the PMU", iter)
		case !reflect.DeepEqual(met0, met1):
			t.Fatalf("iter %d: step moved a metric:\n%+v\n%+v", iter, met0, met1)
		case js0 != js1 || !reflect.DeepEqual(ts0, ts1) || svc.everServed:
			t.Fatalf("iter %d: step reached the job service", iter)
		case !reflect.DeepEqual(clk0, clk1):
			t.Fatalf("iter %d: step moved another worker's clock: %v -> %v", iter, clk0, clk1)
		}
	}
	if yes < 2_000 || down == 0 || due == 0 || stale == 0 || busy == 0 {
		t.Fatalf("coverage: idle %d, refused for core down %d, work due %d, stale order %d, queued work %d",
			yes, down, due, stale, busy)
	}
}

// TestLockstepIdleFleetLive is the liveness gate of the inline turns, meant
// for -race -count=10 at -cpu 1,2 under a -timeout: with the next arrival an
// hour of virtual time away the whole fleet idles on whichever goroutine
// ended the last real turn, and an external SubmitJob must still get its
// pause (pauseWant seen between two inline turns, the P given up at
// GOMAXPROCS=1), the resume must wake a worker instead of playing turns on
// the submitter's goroutine, the job must run, and Stop must land.
func TestLockstepIdleFleetLive(t *testing.T) {
	rt := lsRuntime(t, Options{})
	lsServe(t, rt, JobServiceOptions{Policy: admit.Reject, Source: &SpecSource{
		Arrivals: admit.NewTrace([]int64{3_600_000_000_000}),
		Gen:      func(int) JobSpec { return computeJob(1, 1_000, nil) },
	}})
	var ran atomic.Int64
	for i := 0; i < 100; i++ {
		j, err := rt.SubmitJob(computeJob(3, 1_000, &ran))
		if err != nil {
			t.Fatal(err)
		}
		<-j.Done()
	}
	if ran.Load() != 300 {
		t.Errorf("%d of 300 tasks ran", ran.Load())
	}
	inline := -1.0
	for _, m := range rt.MetricsSnapshot().Samples {
		if m.Name == "charm_host_lockstep_turns_total" && m.Labels["kind"] == "inline" {
			inline = m.Value
		}
	}
	if st := rt.TurnStats(); st.Inline == 0 || st.Handoff == 0 || inline <= 0 {
		t.Errorf("turns %+v, metric inline=%v: want idle turns played inline and real turns handed off", st, inline)
	}
	rt.Stop()
}

// TestLockstepDeadlockPanics: a cycle of synchronous Calls blocks every
// worker with no predicate able to fire; the baton must fail loudly on the
// worker that closes the cycle instead of hanging the run.
func TestLockstepDeadlockPanics(t *testing.T) {
	rt := NewRuntime(sim.New(sim.Config{Topo: topology.Synthetic(2, 2)}),
		Options{Workers: 3, Deterministic: true})
	ls := rt.ls
	never := func() bool { return false }
	ls.busy = 1 // worker 2 is mid-turn, about to block as well
	ls.state[0], ls.pred[0] = lsBlocked, never
	ls.state[1] = lsDone
	ls.state[2], ls.holder = lsRunning, 2
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "lockstep deadlock") {
			t.Fatalf("recovered %q, want the lockstep deadlock panic", msg)
		}
	}()
	ls.handoff(2, lsBlocked, false, never)
	t.Fatal("handoff returned from a deadlocked fleet")
}

// TestLockstepStress is the liveness gate, meant for -race -count=10 under
// a -timeout: sixteen workers cycle the baton from inside AllDo bodies while
// two external goroutines hammer SubmitJob (pause/resume) with jobs whose
// tasks Yield and make synchronous Calls, and then Stop lands with workers
// suspended in both the waiting and the blocked state. The
// run must return, and every goroutine the runtime started must be gone —
// a coroutine left suspended would show up in NumGoroutine.
func TestLockstepStress(t *testing.T) {
	before := runtime.NumGoroutine()
	const workers = 16
	rt := NewRuntime(sim.New(sim.Config{Topo: topology.Synthetic(8, 2)}),
		Options{Workers: workers, Deterministic: true, SchedulerTimer: 50_000})
	rt.Start()
	svc, err := rt.ServeJobs(JobServiceOptions{Policy: admit.Reject, QueueCapacity: 64, MaxInFlight: 32})
	if err != nil {
		t.Fatal(err)
	}
	// One job parks its worker in a barrier whose second party never
	// comes, so Stop is certain to find a worker asleep as lsBlocked.
	stuck := rt.NewBarrier(2)
	if _, err := rt.SubmitJob(JobSpec{Stages: []JobStage{{func(ctx *Ctx) { ctx.Barrier(stuck) }}}}); err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{Stages: []JobStage{{
		func(ctx *Ctx) { ctx.Compute(500); ctx.Yield(); ctx.Compute(500) },
		func(ctx *Ctx) {
			ctx.Compute(300)
			// Even workers call their odd neighbour, which never blocks in
			// a Call itself, so no cycle of callers can form.
			if w := ctx.Worker(); w%2 == 0 {
				ctx.Call(w+1, func(c *Ctx) { c.Compute(200) })
			}
		},
	}}}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the yielding fleet
		defer wg.Done()
		defer func() {
			if p := recover(); p != nil && p != ErrFinalized {
				t.Errorf("AllDo panicked: %v", p)
			}
		}()
		for {
			rt.AllDo(func(ctx *Ctx) {
				for i := 0; i < 50; i++ {
					ctx.Compute(100)
					ctx.Yield()
				}
			})
		}
	}()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() { // the hammering submitters
			defer wg.Done()
			for {
				if _, err := rt.SubmitJob(spec); errors.Is(err, ErrFinalized) {
					return
				}
				yieldHost()
			}
		}()
	}
	blocked := func() bool { // the fleet state is the turn holder's: ask the workers
		for _, w := range rt.workers {
			if w.blocked.Load() {
				return true
			}
		}
		return false
	}
	for svc.Stats().Completed < 100 || !blocked() {
		yieldHost()
	}
	rt.Stop()
	wg.Wait()
	if st := svc.Stats(); st.Completed < 100 {
		t.Errorf("completed %d jobs before Stop, want >= 100", st.Completed)
	}
	lsGoroutinesGone(t, before)
}

// lsGoroutinesGone waits for the goroutine count to fall back to what it was
// before Start: a worker loop left suspended, a kernel or a submitter that
// never returned would keep it up.
func lsGoroutinesGone(t *testing.T, before int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; yieldHost() {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before Start, %d after Stop:\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
	}
}

// TestLockstepStopWhileBlocked: Stop lands on a fleet with suspended loops in
// every blocked shape at once — a caller inside a synchronous Call, its
// callee inside a barrier whose other party never comes, two workers in a
// fault park — plus idle ones waiting for a turn. The kernel must run every
// loop to its end: all check out as lsDone, and no goroutine (a pull-
// coroutine left suspended is one) outlives Stop.
func TestLockstepStopWhileBlocked(t *testing.T) {
	before := runtime.NumGoroutine()
	topo := topology.Synthetic(4, 2)
	plan := compilePlan(t, fault.New("ls-stop", 1).OfflineChiplet(3, 20_000, 1<<40), topo)
	rt := lsRuntime(t, Options{Faults: plan, Policy: NewStaticPolicy(Compact)})
	stuck := rt.NewBarrier(2)
	if _, err := rt.SubmitJob(JobSpec{Stages: []JobStage{{func(ctx *Ctx) {
		ctx.Compute(30_000) // past the fault: idle drift carries workers 6 and 7 into it
		ctx.Call((ctx.Worker()+1)%6, func(c *Ctx) { c.Barrier(stuck) })
	}}}}); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(20 * time.Second); ; yieldHost() {
		blocked := 0
		for _, w := range rt.workers {
			blocked += b2i(w.blocked.Load())
		}
		if blocked == 4 && rt.met.faultParks.Value() == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d workers blocked, %d parked: want caller, callee and two parks", blocked, rt.met.faultParks.Value())
		}
	}
	rt.Stop()
	for id, s := range rt.ls.state {
		if s != lsDone {
			t.Errorf("worker %d checked out in state %d, want lsDone", id, s)
		}
	}
	lsGoroutinesGone(t, before)
}

// TestLockstepOnePLive: at GOMAXPROCS=1 the kernel and the coroutines it
// resumes never park while turns flow, so an external goroutine gets the P
// only when the kernel gives it up (hostYieldEvery) — or, failing that, when
// sysmon preempts it 10 ms later. Eight coroutine tasks yield in a loop, so
// every turn is a real handoff, while this goroutine submits jobs and waits
// for them; each round trip is two external steps (pause granted, Done
// observed). 20 ms a job without the host yield, 0.1 ms with it (2 ms under
// -race). The jobs start once every task is up: one that shared an inbox
// with a looping task would sit under its continuation in the LIFO deque.
func TestLockstepOnePLive(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rt := lsRuntime(t, Options{})
	var quit atomic.Bool
	var up atomic.Int64
	fleet := make(chan struct{})
	go func() {
		defer close(fleet)
		rt.AllDoCo(func(ctx *Ctx) {
			for up.Add(1); !quit.Load(); {
				ctx.Compute(100)
				ctx.Yield()
			}
		})
	}()
	for up.Load() < int64(rt.Workers()) {
		yieldHost()
	}
	lat := make([]time.Duration, 41)
	for i := range lat {
		t0 := time.Now()
		j, err := rt.SubmitJob(computeJob(1, 1_000, nil))
		if err != nil {
			t.Fatal(err)
		}
		<-j.Done()
		lat[i] = time.Since(t0)
	}
	quit.Store(true)
	<-fleet
	sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
	if med := lat[len(lat)/2]; med > 10*time.Millisecond {
		t.Errorf("median SubmitJob round trip %v against a yielding fleet at one P (max %v): the kernel is not giving up the P", med, lat[len(lat)-1])
	} else {
		t.Logf("median %v, max %v", med, lat[len(lat)-1])
	}
}
