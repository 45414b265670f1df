package core

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"charm/internal/admit"
	"charm/internal/fault"
	"charm/internal/obs"
	"charm/internal/sim"
	"charm/internal/tenant"
	"charm/internal/topology"
)

// startedRuntime builds a started lockstep runtime on a small synthetic
// machine for open-loop tests.
func startedRuntime(t *testing.T, opts Options) *Runtime {
	t.Helper()
	topo := topology.Synthetic(4, 2)
	m := sim.New(sim.Config{Topo: topo})
	if opts.Workers == 0 {
		opts.Workers = 8
	}
	opts.Deterministic = true
	rt := NewRuntime(m, opts)
	rt.ls.runs = !lsTurnByTurn
	rt.Start()
	t.Cleanup(rt.Stop)
	return rt
}

// jobRuntime is startedRuntime for tests that wait for every job they
// submit before they return: the ledger such a test leaves behind must
// balance, and the runtime checks it on the way out.
func jobRuntime(t *testing.T, opts Options) *Runtime {
	t.Helper()
	rt := startedRuntime(t, opts)
	t.Cleanup(func() {
		if svc := rt.JobServer(); svc != nil {
			checkLedger(t, svc)
		}
	})
	return rt
}

// ledgerCols are the JobStats/TenantStats columns job conservation is
// stated over: the first is every arrival presented to admission, the next
// six are the ways out, the last two are counted on the way through.
var ledgerCols = [...]string{"Submitted",
	"Completed", "Shed", "Rejected", "Expired", "Cancelled", "Failed",
	"Admitted", "Met"}

// ledgerOf reads ledgerCols out of a JobStats or a TenantStats.
func ledgerOf(stats any) (l [len(ledgerCols)]int64) {
	v := reflect.ValueOf(stats)
	for i, name := range ledgerCols {
		l[i] = v.FieldByName(name).Int()
	}
	return l
}

// ledgerErr checks job conservation on a service whose jobs are all
// terminal: every arrival presented to admission left through exactly one
// outcome, in the service ledger and in each tenant's, and the tenant
// ledgers add up to the service's.
func (s *JobService) ledgerErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	balanced := func(who string, l [len(ledgerCols)]int64) error {
		if out := l[1] + l[2] + l[3] + l[4] + l[5] + l[6]; l[0] != out {
			return fmt.Errorf("%s: %d submitted, %d accounted for (%v = %v)", who, l[0], out, ledgerCols, l)
		}
		return nil
	}
	svc := ledgerOf(s.stats)
	if err := balanced("service", svc); err != nil {
		return err
	}
	var sum [len(ledgerCols)]int64
	for _, tr := range s.tens {
		l := ledgerOf(tr.stats)
		if err := balanced(fmt.Sprintf("tenant %q", tr.stats.Name), l); err != nil {
			return err
		}
		for i, v := range l {
			sum[i] += v
		}
	}
	if sum != svc {
		return fmt.Errorf("tenant ledgers sum to %v, service ledger is %v (%v)", sum, svc, ledgerCols)
	}
	return nil
}

// checkLedger asserts ledger conservation on a quiescent service.
func checkLedger(t *testing.T, svc *JobService) {
	t.Helper()
	if err := svc.ledgerErr(); err != nil {
		t.Errorf("job ledger does not balance: %v", err)
	}
}

// computeJob builds a one-stage job of n tasks, each charging cost virtual
// ns and counting into ran.
func computeJob(n int, cost int64, ran *atomic.Int64) JobSpec {
	stage := make(JobStage, n)
	for i := range stage {
		stage[i] = func(ctx *Ctx) {
			ctx.Compute(cost)
			if ran != nil {
				ran.Add(1)
			}
		}
	}
	return JobSpec{Stages: []JobStage{stage}}
}

// TestOpenLoopPoissonDrain: a seeded Poisson arrival stream must admit,
// run, and complete every job, and Drain must return once the source is
// exhausted and all jobs are terminal.
func TestOpenLoopPoissonDrain(t *testing.T) {
	rt := jobRuntime(t, Options{})
	var ran atomic.Int64
	const jobs = 40
	svc := lsServe(t, rt, JobServiceOptions{
		Policy: admit.Reject,
		Source: &SpecSource{
			Arrivals: admit.NewPoisson(7, 5_000, jobs),
			Gen: func(i int) JobSpec {
				s := computeJob(4, 2_000, &ran)
				s.Name = "j"
				s.Deadline = 10_000_000
				return s
			},
		},
	})
	svc.Drain()
	st := svc.Stats()
	if st.Submitted != jobs || st.Admitted != jobs || st.Completed != jobs {
		t.Fatalf("stats = %+v, want %d submitted/admitted/completed", st, jobs)
	}
	if st.Met != jobs {
		t.Errorf("Met = %d, want %d (generous deadline)", st.Met, jobs)
	}
	if ran.Load() != jobs*4 {
		t.Errorf("tasks ran = %d, want %d", ran.Load(), jobs*4)
	}
	for _, j := range svc.Jobs() {
		if j.State() != JobCompleted || !j.MetDeadline() || j.Latency() <= 0 {
			t.Fatalf("job %d: state=%v met=%v lat=%d", j.ID(), j.State(), j.MetDeadline(), j.Latency())
		}
	}
}

// TestSubmitJobExternal: SubmitJob outside any source must run the job and
// deliver completion through Done.
func TestSubmitJobExternal(t *testing.T) {
	rt := jobRuntime(t, Options{})
	var ran atomic.Int64
	j, err := rt.SubmitJob(computeJob(3, 1_000, &ran))
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	if j.State() != JobCompleted || ran.Load() != 3 {
		t.Fatalf("state=%v ran=%d", j.State(), ran.Load())
	}
}

// TestJobMultiStageOrder: stages must run strictly in order, with stage
// k+1 seeing every stage-k task finished.
func TestJobMultiStageOrder(t *testing.T) {
	rt := jobRuntime(t, Options{})
	var s1 atomic.Int64
	var bad atomic.Bool
	spec := JobSpec{Stages: []JobStage{
		{
			func(ctx *Ctx) { ctx.Compute(3_000); s1.Add(1) },
			func(ctx *Ctx) { ctx.Compute(1_000); s1.Add(1) },
		},
		{}, // empty stages are skipped
		{
			func(ctx *Ctx) {
				if s1.Load() != 2 {
					bad.Store(true)
				}
			},
		},
	}}
	j, err := rt.SubmitJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	if j.State() != JobCompleted || bad.Load() {
		t.Fatalf("state=%v stageOrderViolated=%v", j.State(), bad.Load())
	}
}

// TestJobCancellation: cancelling a job must discard its queued tasks,
// unwind its suspended coroutines at Yield, and never give a dead job a
// fresh coroutine stack. The second (never-dispatched) stage must not run.
func TestJobCancellation(t *testing.T) {
	rt := jobRuntime(t, Options{Workers: 2})
	var stage2 atomic.Int64
	var resumed atomic.Int64
	release := make(chan struct{})
	var j *Job
	var mu sync.Mutex
	stage1 := make(JobStage, 4)
	for i := range stage1 {
		stage1[i] = func(ctx *Ctx) {
			mu.Lock()
			self := j
			mu.Unlock()
			<-release // hold until the cancel lands (host-side gate)
			ctx.Compute(1_000)
			self.Cancel()
			ctx.Yield() // cancellation point: must not return
			resumed.Add(1)
		}
	}
	spec := JobSpec{
		Coro:   true,
		Stages: []JobStage{stage1, {func(ctx *Ctx) { stage2.Add(1) }}},
	}
	mu.Lock()
	jj, err := rt.SubmitJob(spec)
	j = jj
	mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	close(release)
	<-j.Done()
	if j.State() != JobCancelled {
		t.Fatalf("state = %v, want cancelled", j.State())
	}
	if resumed.Load() != 0 {
		t.Errorf("%d coroutines ran past a post-cancel Yield", resumed.Load())
	}
	if stage2.Load() != 0 {
		t.Errorf("stage 2 ran %d tasks after cancellation", stage2.Load())
	}
	svc := rt.JobServer()
	if st := svc.Stats(); st.Cancelled != 1 || st.TasksCancelled == 0 {
		t.Errorf("stats = %+v, want 1 cancelled job with cancelled tasks", st)
	}
}

// TestShedPolicyDropsHopeless: under Shed, a job whose deadline budget is
// below its declared cost must be dropped at admission with ErrHopeless.
func TestShedPolicyDropsHopeless(t *testing.T) {
	rt := jobRuntime(t, Options{})
	if _, err := rt.ServeJobs(JobServiceOptions{Policy: admit.Shed}); err != nil {
		t.Fatal(err)
	}
	spec := computeJob(1, 1_000, nil)
	spec.Deadline = 10_000
	spec.Cost = 50_000 // estimated service time exceeds the budget
	j, err := rt.SubmitJob(spec)
	if !errors.Is(err, admit.ErrHopeless) {
		t.Fatalf("err = %v, want ErrHopeless", err)
	}
	if j.State() != JobShed {
		t.Fatalf("state = %v, want shed", j.State())
	}
}

// TestRejectPolicyTypedError: a full Reject queue must refuse with
// ErrQueueFull and leave prior jobs untouched.
func TestRejectPolicyTypedError(t *testing.T) {
	rt := jobRuntime(t, Options{})
	// MaxInFlight 1 and a held first job keep the queue occupied.
	if _, err := rt.ServeJobs(JobServiceOptions{Policy: admit.Reject, QueueCapacity: 1, MaxInFlight: 1}); err != nil {
		t.Fatal(err)
	}
	// The blocker yields until released rather than waiting on the host:
	// a lockstep task that blocks holds the turn, and SubmitJob's pause
	// would never return.
	var release atomic.Bool
	blocker := JobSpec{Coro: true, Stages: []JobStage{{func(ctx *Ctx) {
		for !release.Load() {
			ctx.Yield()
		}
	}}}}
	j1, err := rt.SubmitJob(blocker)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until j1 is dispatched so the queue is empty, then fill it.
	for j1.State() == JobQueued {
		yieldHost()
	}
	j2, err := rt.SubmitJob(computeJob(1, 1_000, nil))
	if err != nil {
		t.Fatalf("queued job refused: %v", err)
	}
	if _, err := rt.SubmitJob(computeJob(1, 1_000, nil)); !errors.Is(err, admit.ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	release.Store(true)
	<-j1.Done()
	<-j2.Done()
	if j1.State() != JobCompleted || j2.State() != JobCompleted {
		t.Fatalf("states = %v/%v", j1.State(), j2.State())
	}
}

// TestJobFailure: a job whose task panics must end Failed with a typed
// TaskError.
func TestJobFailure(t *testing.T) {
	rt := jobRuntime(t, Options{})
	j, err := rt.SubmitJob(JobSpec{Stages: []JobStage{{
		func(ctx *Ctx) { panic("job boom") },
	}}})
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	if j.State() != JobFailed {
		t.Fatalf("state = %v, want failed", j.State())
	}
	var te *TaskError
	if !errors.As(j.Err(), &te) {
		t.Fatalf("Err = %v, want *TaskError", j.Err())
	}
}

// TestFinalizeIdempotentAndTyped (satellite): Stop must be idempotent,
// wait out a racing Run, and make later submissions fail with
// ErrFinalized.
func TestFinalizeIdempotentAndTyped(t *testing.T) {
	topo := topology.Synthetic(2, 2)
	m := sim.New(sim.Config{Topo: topo})
	rt := NewRuntime(m, Options{Workers: 4, Deterministic: true})
	rt.Start()

	var ran atomic.Int64
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rt.Run(func(ctx *Ctx) {
			// From inside the task: a Stop that wins the race outright
			// refuses the Run with ErrFinalized, which is not this case.
			close(started)
			ctx.Compute(200_000)
			ran.Add(1)
		})
	}()
	<-started
	rt.Stop() // must wait for the racing Run's tasks, not abandon them
	wg.Wait()
	if ran.Load() != 1 {
		t.Fatalf("racing Run lost its task (ran=%d)", ran.Load())
	}
	rt.Stop() // idempotent

	if _, err := rt.SubmitJob(JobSpec{}); !errors.Is(err, ErrFinalized) {
		t.Fatalf("SubmitJob after Stop: err = %v, want ErrFinalized", err)
	}
	func() {
		defer func() {
			if r := recover(); !errors.Is(r.(error), ErrFinalized) {
				t.Fatalf("Run after Stop panicked %v, want ErrFinalized", r)
			}
		}()
		rt.Run(func(ctx *Ctx) {})
		t.Fatal("Run after Stop returned")
	}()
}

// overloadRun drives one deterministic open-loop overload run and returns
// its observable outputs (stats, PMU totals, job latencies).
func overloadRun(t *testing.T, seed uint64) (JobStats, []int64, [4]int64) {
	t.Helper()
	topo := topology.Synthetic(4, 2)
	m := sim.New(sim.Config{Topo: topo})
	plan, err := fault.New("thermal", seed).
		ThermalThrottle(1, 200_000, 1_200_000, 3.0).
		Compile(topo)
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(m, Options{Workers: 8, Deterministic: true, Faults: plan})
	rt.Start()
	defer rt.Stop()
	svc := lsServe(t, rt, JobServiceOptions{
		Policy:       admit.Shed,
		Breakers:     true,
		EvalInterval: 50_000,
		Source: &SpecSource{
			Arrivals: admit.NewPoisson(seed, 3_000, 120),
			Gen: func(i int) JobSpec {
				s := computeJob(4, 8_000, nil)
				s.Priority = i % 3
				s.Deadline = 120_000
				s.Cost = 32_000
				return s
			},
		},
	})
	svc.Drain()
	checkLedger(t, svc)
	lats := make([]int64, 0, 120)
	for _, j := range svc.Jobs() {
		lats = append(lats, j.Latency())
	}
	return svc.Stats(), lats, rt.snapshotCounters()
}

// TestOpenLoopDeterministicReplay (satellite): two open-loop overload runs
// with the same seeds must be bit-identical — stats, shed counts, every
// job latency, and the PMU totals.
func TestOpenLoopDeterministicReplay(t *testing.T) {
	s1, l1, p1 := overloadRun(t, 11)
	s2, l2, p2 := overloadRun(t, 11)
	if s1 != s2 {
		t.Errorf("stats diverge:\n  %+v\n  %+v", s1, s2)
	}
	if !reflect.DeepEqual(l1, l2) {
		t.Errorf("job latencies diverge")
	}
	if p1 != p2 {
		t.Errorf("PMU counters diverge: %v vs %v", p1, p2)
	}
}

// TestBreakerTripsUnderThermalFault: with breakers on, a browned-out
// chiplet must trip its breaker while the run makes progress.
func TestBreakerTripsUnderThermalFault(t *testing.T) {
	st, _, _ := overloadRun(t, 23)
	if st.BreakerTrips == 0 {
		t.Errorf("no breaker trips under 3x thermal throttle; stats = %+v", st)
	}
	if st.Completed == 0 {
		t.Errorf("no jobs completed; stats = %+v", st)
	}
	if st.Submitted != 120 {
		t.Errorf("Submitted = %d, want 120", st.Submitted)
	}
}

// TestImplicitTenantInvisible: a service configured without Tenants runs
// the tenant pump over one unnamed tenant, and nothing a caller can reach
// shows it — no tenant ledger, name, lease, DRR grant, SpanLease or
// charm_tenant_* series — and JobSpec.Tenant is ignored, not looked up.
func TestImplicitTenantInvisible(t *testing.T) {
	rt := jobRuntime(t, Options{})
	rt.EnableTracing(true)
	rt.EnableMetrics(true)
	const jobs = 30
	svc := lsServe(t, rt, JobServiceOptions{
		EvalInterval: 20_000, // several lease-arbitration opportunities
		Source: &SpecSource{
			Arrivals: admit.NewPoisson(5, 4_000, jobs),
			Gen: func(i int) JobSpec {
				s := computeJob(2, 3_000, nil)
				s.Tenant = "x"
				return s
			},
		},
	})
	svc.Drain()
	lsSettle(rt)

	if st := svc.Stats(); st.Completed != jobs {
		t.Fatalf("stats = %+v, want %d completed (Tenant \"x\" must be ignored)", st, jobs)
	}
	if ts := svc.TenantStats(); len(ts) != 0 {
		t.Errorf("TenantStats = %+v, want none", ts)
	}
	if names := svc.TenantNames(); len(names) != 0 {
		t.Errorf("TenantNames = %q, want none", names)
	}
	if o := svc.LeaseOwners(); o != nil {
		t.Errorf("LeaseOwners = %v, want nil", o)
	}
	if g := svc.DispatchGrants(); g != nil {
		t.Errorf("DispatchGrants = %v, want nil", g)
	}
	for _, j := range svc.Jobs() {
		if j.Tenant() != "" {
			t.Fatalf("job %d: Tenant() = %q, want \"\"", j.ID(), j.Tenant())
		}
	}
	for _, sp := range rt.Tracer().Spans() {
		if sp.Kind == obs.SpanLease {
			t.Fatalf("SpanLease emitted without tenants: %+v", sp)
		}
	}
	for _, sm := range rt.met.reg.Snapshot(0).Samples {
		if strings.HasPrefix(sm.Name, "charm_tenant_") {
			t.Errorf("registry holds %s without tenants", sm.Key())
		}
	}
}

// TestJobDoneContract pins Job.Done for every way a job ends — completed,
// shed, rate-limited, cancelled and failed — through the service's own
// funnels: a channel obtained before finalisation is closed by it (and two
// calls share it), finalising a job nobody asked makes no channel, a
// channel obtained afterwards is already closed, and finalising a terminal
// job again closes nothing twice and changes nothing. The runtime is never
// started: admission, dispatch and the stage barrier run synchronously on
// the test goroutine, so "before" is before.
func TestJobDoneContract(t *testing.T) {
	rt := NewRuntime(sim.New(sim.Config{Topo: topology.Synthetic(4, 2)}),
		Options{Workers: 8, Deterministic: true})
	defer rt.Stop()
	src := func(n int, spec JobSpec) *SpecSource {
		at := make([]int64, n)
		for i := range at {
			at[i] = 100
		}
		return &SpecSource{Arrivals: admit.NewTrace(at), Gen: func(int) JobSpec { return spec }}
	}
	hopeless := computeJob(1, 1_000, nil)
	hopeless.Deadline, hopeless.Cost = 10_000, 50_000
	s, err := rt.ServeJobs(JobServiceOptions{Tenants: []TenantConfig{
		{Spec: tenant.Spec{Name: "run", Weight: 1, Policy: admit.Shed},
			Source: src(3, computeJob(2, 1_000, nil))},
		{Spec: tenant.Spec{Name: "hopeless", Weight: 1, Policy: admit.Shed},
			Source: src(1, hopeless)},
		{Spec: tenant.Spec{Name: "limited", Weight: 1, Policy: admit.Shed,
			GapNS: 1 << 40, Burst: 1},
			Source: src(2, computeJob(1, 1_000, nil))},
	}})
	if err != nil {
		t.Fatal(err)
	}
	closed := func(ch <-chan struct{}) bool {
		select {
		case <-ch:
			return true
		default:
			return false
		}
	}
	const now = 1_000
	w := rt.workers[0]
	before := map[*Job]<-chan struct{}{}
	ask := func(j *Job) {
		ch := j.Done()
		if closed(ch) {
			t.Fatalf("job %d (%v): Done closed before the job ended", j.ID(), j.State())
		}
		if again := j.Done(); again != ch {
			t.Fatalf("job %d: a second Done call made a second channel", j.ID())
		}
		before[j] = ch
	}

	// The first arrival of each tenant sits in its pending cursor; the
	// limited tenant's one token is spent, so both its arrivals are shed by
	// the bucket, the second without anyone having asked for its channel.
	s.mu.Lock()
	pending := []*Job{s.tens[0].pending, s.tens[1].pending, s.tens[2].pending}
	s.tens[2].bucket.Take(0)
	s.mu.Unlock()
	for _, j := range pending {
		ask(j)
	}
	s.mu.Lock()
	s.admitDueLocked(now)
	s.mu.Unlock()
	jobs := s.Jobs()
	var run, limited []*Job
	for _, j := range jobs {
		switch j.Tenant() {
		case "run":
			run = append(run, j)
		case "limited":
			limited = append(limited, j)
		}
	}
	if len(jobs) != 6 || len(run) != 3 || len(limited) != 2 {
		t.Fatalf("%d jobs admitted or refused, want 6: 3 run, 1 hopeless, 2 limited", len(jobs))
	}
	for _, j := range run[1:] {
		ask(j) // queued: admitted, not yet ended
	}

	// Dispatch the three queued jobs, then end their stages: one fails, one
	// is cancelled, one completes.
	s.pump(w, now)
	run[0].grp.fail(&TaskError{TaskID: 1, Val: "boom"})
	run[1].Cancel()
	for _, j := range run {
		if j.State() != JobRunning {
			t.Fatalf("job %d: %v after dispatch, want running", j.ID(), j.State())
		}
		for n := j.grp.pending.Load(); n > 0; n-- {
			j.grp.taskDone(w, now)
		}
	}

	if limited[1].done != nil {
		t.Fatal("finalising a job nobody asked made it a Done channel")
	}

	want := map[*Job]JobState{run[0]: JobFailed, run[1]: JobCancelled, run[2]: JobCompleted,
		pending[1]: JobShed, limited[0]: JobShed, limited[1]: JobShed}
	for _, j := range jobs {
		if j.State() != want[j] {
			t.Fatalf("job %d ended %v, want %v", j.ID(), j.State(), want[j])
		}
		if ch, ok := before[j]; ok && !closed(ch) {
			t.Errorf("job %d (%v): the channel obtained before it ended is still open", j.ID(), j.State())
		}
		if !closed(j.Done()) {
			t.Errorf("job %d (%v): Done after it ended is open", j.ID(), j.State())
		}
		end := j.Finished()
		s.mu.Lock()
		s.finalizeLocked(j, JobCancelled, 2*end) // a second close would panic
		s.mu.Unlock()
		if j.State() != want[j] || j.Finished() != end {
			t.Errorf("job %d: finalising again moved it to %v at %d", j.ID(), j.State(), j.Finished())
		}
	}
	if st := s.TenantStats()[2]; st.RateLimited != 2 {
		t.Errorf("limited tenant: %d rate-limited, want 2", st.RateLimited)
	}
	if err := s.ledgerErr(); err != nil {
		t.Error(err)
	}
}
