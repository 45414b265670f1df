package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"charm/internal/admit"
	"charm/internal/fault"
	"charm/internal/obs"
	"charm/internal/power"
	"charm/internal/sim"
	"charm/internal/tenant"
	"charm/internal/topology"
)

// idleFleet builds an unstarted Deterministic runtime whose fleet state the
// test owns, from seed alone, so two calls build the same fleet: 2–16
// workers waiting at their loop tops (a few done, a few with a stale steal
// order) at random clocks and last, core-down windows among them, a hot
// power plane whose idle floor parks chiplets (tick 2–60 µs), random
// scheduler timer and sample interval, and a job service whose next work
// is random or absent. It returns the runtime and the worker that grants.
func idleFleet(t *testing.T, seed int64) (*Runtime, int) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	// Clocks, windows and intervals on a common grain make turns land
	// exactly on their boundaries, where an off-by-one shows.
	grain := []int64{1, 1_000, 2_000}[r.Intn(3)]
	rnd := func(lo, n int64) int64 { return (lo + r.Int63n(n)) / grain * grain }
	n := 2 + r.Intn(15)
	topo := topology.Synthetic(8, 2)
	sched := fault.New("idle-run", uint64(seed))
	for k := r.Intn(4); k > 0; k-- {
		from := rnd(0, 600_000)
		sched.OfflineCore(topology.CoreID(r.Intn(topo.NumCores())), from, from+grain+rnd(0, 200_000))
	}
	plan, err := sched.Compile(topo)
	if err != nil {
		t.Fatal(err)
	}
	hot, cool := power.DefaultModel(), power.DefaultModel()
	hot.CThermal = 4e-5 // tau 200 µs
	if r.Intn(2) == 0 {
		hot.IdleWatts = 6 // heads for 75 °C: crosses the park setpoint 66 °C mid-run
	}
	rt := NewRuntime(sim.New(sim.Config{Topo: topo}), Options{
		Workers: n, Deterministic: true, Faults: plan,
		SchedulerTimer: rnd(2_000, 98_001),
		Power: &power.Config{SoftC: 55, HardC: 60, ParkC: 66,
			TickNS: rnd(2_000, 58_001), ParkNS: rnd(20_000, 180_001),
			Models: []power.Model{hot, cool}},
	})
	t.Cleanup(rt.Stop)
	if r.Intn(4) != 0 {
		rt.met.reg.SetEnabled(true)
		rt.met.reg.EnableSampling(rnd(2_000, 98_001), 1<<16)
	}
	if r.Intn(4) != 0 {
		svc, err := rt.ServeJobs(JobServiceOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if r.Intn(2) == 0 {
			svc.nextWork.Store(rnd(0, 1_000_000))
		}
	}
	ls := rt.ls
	ls.busy, ls.last = 0, r.Intn(n+1)-1
	caller := -1
	for id, w := range rt.workers {
		w.clock.Set(rnd(0, 400_000))
		rt.opts.Policy.StealOrder(w)
		if r.Intn(40) == 0 {
			w.soCache = nil
		}
		ls.state[id], ls.top[id] = lsWaiting, true
		if id > 0 && r.Intn(10) == 0 {
			ls.state[id] = lsDone
		} else if caller < 0 || r.Intn(2) == 0 {
			caller = id
		}
	}
	rt.workers[0].lastSample = rnd(0, rt.workers[0].clock.Now()+1)
	return rt, caller
}

// perTurn plays the fleet one grant at a time, the way grant does with idle
// runs off, for at most budget turns. It returns the first pick that is not
// an idle turn (holder and last set, as grant leaves them), or -1 with
// exhausted set when every turn of the budget was idle.
func perTurn(rt *Runtime, budget int) (best int, exhausted bool) {
	ls := rt.ls
	for i := 0; i < budget; i++ {
		best, _ = pickTurn(ls.state, ls.pred, rt.workers, ls.last, false)
		ls.holder, ls.last = best, best
		if best < 0 || !rt.workers[best].idleTurn() {
			return best, false
		}
		ls.inline.Add(1)
		ls.state[best] = lsRunning
		ls.busy++
		rt.workers[best].idleDrift()
		ls.state[best], ls.holder = lsWaiting, -1
		ls.busy--
	}
	return -1, true
}

// idleState is what an idle turn can change, for comparing two engines.
type idleState struct {
	Clocks     []int64
	LastSample int64
	Epoch      int64
	Power      power.Snapshot
	History    []obs.Snapshot
}

func observeIdle(rt *Runtime) idleState {
	s := idleState{LastSample: rt.workers[0].lastSample, Epoch: rt.placeEpoch.Load(),
		Power: *rt.power.Stats(), History: rt.met.reg.History()}
	for _, w := range rt.workers {
		s.Clocks = append(s.Clocks, w.clock.Now())
	}
	return s
}

// FuzzIdleRun compares the idle-run engine with the per-turn engine it
// batches: two identical fleets, one granted with idle runs on, the other
// played one turn per grant, must end with the same worker clocks, worker
// 0's scheduler tick, power plane, metrics history (times and samples) and
// placeEpoch, and — unless the run parked — the same last holder and the
// same pick. A parked fleet must be at a true fixpoint: the per-turn engine
// spends its whole budget on idle turns and lands on the same state.
func FuzzIdleRun(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 7, 42, 1 << 20, 20261017} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		const budget = 60_000 // > 16 workers x 400 µs / 2 µs, twice over
		run, caller := idleFleet(t, seed)
		ref, _ := idleFleet(t, seed)
		ref.ls.runs = false
		got := run.ls.grant(caller)
		want, exhausted := perTurn(ref, budget)
		parked := lsParked(run)
		switch {
		case parked != exhausted:
			t.Fatalf("seed %d: idle run parked=%v, per-turn engine idle for all %d turns=%v (pick %d)", seed, parked, budget, exhausted, want)
		case !parked && (got != want || run.ls.last != ref.ls.last):
			t.Fatalf("seed %d: idle run picks %d after %d, per-turn engine %d after %d", seed, got, run.ls.last, want, ref.ls.last)
		case parked && got != -1:
			t.Fatalf("seed %d: parked fleet named holder %d", seed, got)
		}
		a, b := observeIdle(run), observeIdle(ref)
		if !reflect.DeepEqual(a.Clocks, b.Clocks) {
			t.Fatalf("seed %d: clocks %v, per-turn %v", seed, a.Clocks, b.Clocks)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: idle run state\n%+v\nper-turn state\n%+v", seed, a, b)
		}
	})
}

// TestParkedFleetWakes: a Deterministic fleet with nothing to do parks, and
// holds still (no turn counted); each external entry point that changes what
// an idle turn would do without a pause must wake it — EnableMetrics files
// its first sample at the parked clock, as a spinning fleet's next idle turn
// did, and a service installed with ServeJobs drifts the fleet to its
// arrival, runs the job and lets Drain return, after which the fleet parks
// again.
func TestParkedFleetWakes(t *testing.T) {
	rt := lsRuntime(t, Options{})
	rt.Run(func(ctx *Ctx) { ctx.Compute(300_000) })
	lsSettleWithin(t, rt)
	if !lsParked(rt) {
		t.Fatal("an idle fleet with no service did not park")
	}
	at := rt.MaxWorkerClock()
	before := rt.TurnStats()
	time.Sleep(20 * time.Millisecond)
	if after := rt.TurnStats(); after != before {
		t.Fatalf("parked fleet kept turning: %+v -> %+v", before, after)
	}

	rt.EnableMetrics(true)
	lsSettleWithin(t, rt)
	if h := rt.Metrics().History(); len(h) != 1 || h[0].T != at {
		var ts []int64
		for _, s := range h {
			ts = append(ts, s.T)
		}
		t.Fatalf("samples at %v after EnableMetrics on a fleet parked at %d, want [%d]", ts, at, at)
	}

	var ran atomic.Int64
	svc, err := rt.ServeJobs(JobServiceOptions{Policy: admit.Reject, Source: &SpecSource{
		Arrivals: admit.NewTrace([]int64{at + 100_000}),
		Gen:      func(int) JobSpec { return computeJob(2, 5_000, &ran) },
	}})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { svc.Drain(); close(done) }()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("Drain did not return: ServeJobs left the fleet parked")
	}
	if st := svc.Stats(); st.Completed != 1 || ran.Load() != 2 {
		t.Fatalf("stats %+v, %d tasks ran: want the one job completed", st, ran.Load())
	}
	if !lsParked(rt) {
		t.Fatal("Drain returned before the fleet parked")
	}
	if rt.MaxWorkerClock() < at+100_000 {
		t.Fatalf("fleet at %d, short of the arrival at %d", rt.MaxWorkerClock(), at+100_000)
	}
	before = rt.TurnStats()
	time.Sleep(20 * time.Millisecond)
	if after := rt.TurnStats(); after.Inline != before.Inline {
		t.Fatalf("inline turns grew after Drain returned: %+v -> %+v", before, after)
	}
}

// TestWakeRacesStop: wakes from outside (EnableMetrics) keep landing while
// Stop tears a parked fleet down; the kernel runs the loops to their end
// only once no wake can grant any more. Meant for -race.
func TestWakeRacesStop(t *testing.T) {
	for i := 0; i < 20; i++ {
		rt := lsRuntime(t, Options{})
		rt.Run(func(ctx *Ctx) { ctx.Compute(10_000) })
		lsSettleWithin(t, rt)
		var quit atomic.Bool
		done := make(chan struct{})
		go func() {
			defer close(done)
			for on := true; !quit.Load(); on = !on {
				rt.EnableMetrics(on)
			}
		}()
		rt.Stop()
		quit.Store(true)
		<-done
	}
}

// lsSettleWithin is lsSettle with a deadline, so a fleet that never parks
// fails the test instead of hanging it.
func lsSettleWithin(t *testing.T, rt *Runtime) {
	t.Helper()
	done := make(chan struct{})
	go func() { lsSettle(rt); close(done) }()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("fleet did not settle")
	}
}

// TestDrainSettledReplay: what a caller reads right after Drain — the sampled
// metrics history and every gauge that is not host-paced — is a pure
// function of the inputs, pass after pass, because Drain returns only once
// the fleet has parked. A small version of the benchmark's two-tenant pass
// (power plane, metrics and tracing on, the service installed from a task).
func TestDrainSettledReplay(t *testing.T) {
	passes := 200
	if testing.Short() {
		passes = 20
	}
	var first string
	for i := 0; i < passes; i++ {
		got := settledTenantsPass(t)
		if i == 0 {
			first = got
			continue
		}
		if got != first {
			a, b := strings.Split(first, "\n"), strings.Split(got, "\n")
			for k := 0; k < len(a) && k < len(b); k++ {
				if a[k] != b[k] {
					t.Fatalf("pass %d differs from pass 0 at line %d:\n got: %s\nwant: %s", i, k+1, b[k], a[k])
				}
			}
			t.Fatalf("pass %d differs from pass 0 in length: %d vs %d lines", i, len(b), len(a))
		}
	}
}

// settledTenantsPass runs one small two-tenant pass and renders what is
// read after Drain: the history (time, name, labels, value of every sample)
// and the snapshot's gauges, host-paced charm_host_* series left out.
func settledTenantsPass(t *testing.T) string {
	rt := NewRuntime(sim.New(sim.Config{Topo: topology.Synthetic(4, 2)}),
		Options{Workers: 8, Deterministic: true, SchedulerTimer: 50_000, Power: &power.Config{}})
	rt.Start()
	defer rt.Stop()
	rt.EnableMetrics(true)
	rt.EnableTracing(true)
	gen := func(int) JobSpec {
		s := computeJob(4, 10_000, nil)
		s.Deadline, s.Cost = 200_000, 40_000
		return s
	}
	var svc *JobService
	var err error
	rt.Run(func(*Ctx) {
		svc, err = rt.ServeJobs(JobServiceOptions{MaxInFlight: 256, EvalInterval: 50_000, Tenants: []TenantConfig{
			{Spec: tenant.Spec{Name: "A", Weight: 1, Quota: 2, Policy: admit.Shed, QueueCap: 64},
				Source: &SpecSource{Arrivals: admit.NewDiurnal(42, 26_000, 1_000_000, 0.3, 24), Gen: gen}},
			{Spec: tenant.Spec{Name: "B", Weight: 1, Quota: 2, GapNS: 10_000, Burst: 4, Policy: admit.Shed, QueueCap: 64},
				Source: &SpecSource{Arrivals: admit.NewFlashCrowd(42, 10_000, 400_000, 200_000, 10, 60), Gen: gen}},
		}})
	})
	if err != nil {
		t.Fatal(err)
	}
	svc.Drain()
	var b strings.Builder
	keep := func(s obs.Sample) bool { return !strings.HasPrefix(s.Name, "charm_host_") }
	for _, h := range rt.Metrics().History() {
		for _, s := range h.Samples {
			if keep(s) {
				b.WriteString(sampleLine(h.T, s))
			}
		}
	}
	for _, s := range rt.MetricsSnapshot().Samples {
		if keep(s) && s.Kind == obs.KindGauge {
			b.WriteString(sampleLine(-1, s))
		}
	}
	return b.String()
}

func sampleLine(at int64, s obs.Sample) string {
	return fmt.Sprintf("%d %s %v\n", at, s.Key(), s.Value)
}

// TestDrainRacesSubmit: Drain on a service without a Source settles while a
// submitter keeps the fleet busy through SubmitJob with jobs that yield
// thousands of times between them, so the settler watches far more than
// settleSpinTurns handoffs and gives up on the park while every SubmitJob's
// resume grants under mu. Both must return. Meant for -race.
func TestDrainRacesSubmit(t *testing.T) {
	for i := 0; i < 5; i++ {
		rt := lsRuntime(t, Options{})
		svc := lsServe(t, rt, JobServiceOptions{Policy: admit.Reject})
		if _, err := rt.SubmitJob(computeJob(1, 1_000, nil)); err != nil {
			t.Fatal(err)
		}
		yielder := JobSpec{Stages: []JobStage{{func(ctx *Ctx) {
			for k := 0; k < 100; k++ {
				ctx.Compute(500)
				ctx.Yield()
			}
		}}}}
		<-svc.drained // the first job is done: Drain goes straight to settle
		drained, submitted, started := make(chan struct{}), make(chan struct{}), make(chan struct{})
		go func() {
			defer close(submitted)
			for k := 0; k < 200; k++ {
				if _, err := rt.SubmitJob(yielder); err != nil {
					t.Error(err)
					return
				}
				if k == 0 {
					close(started)
				}
			}
		}()
		<-started
		go func() { svc.Drain(); close(drained) }()
		deadline := time.After(30 * time.Second)
		for _, ch := range []chan struct{}{drained, submitted} {
			select {
			case <-ch:
			case <-deadline:
				t.Fatalf("pass %d: Drain or SubmitJob hung", i)
			}
		}
		rt.Stop()
	}
}
