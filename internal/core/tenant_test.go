package core

import (
	"math"
	"reflect"
	"sync/atomic"
	"testing"

	"charm/internal/admit"
	"charm/internal/fault"
	"charm/internal/sim"
	"charm/internal/tenant"
	"charm/internal/topology"
)

// tenantLedger is the full observable outcome of a multi-tenant run:
// service totals, per-tenant ledgers, the lease map, DRR dispatch
// grants, the final worker clock, and every job's (name, state, met,
// latency) tuple. Two Deterministic runs must match it byte for byte.
type tenantLedger struct {
	Stats  JobStats
	Tens   []TenantStats
	Owners []int
	Grants []int64
	Clock  int64
	Jobs   [][4]int64
	Names  []string
}

// tenantReplayRun drives the isolation workload once: tenant A's diurnal
// stream shares the machine with tenant B's 10x flash crowd, and a fault
// offlines chiplet 0 — initially leased — a fifth of the way in.
func tenantReplayRun(t *testing.T) tenantLedger {
	t.Helper()
	topo := topology.Synthetic(4, 2)
	m := sim.New(sim.Config{Topo: topo})
	plan := compilePlan(t, fault.New("tenant-replay", 3).
		OfflineChiplet(0, 300_000, fault.Forever), topo)
	rt := NewRuntime(m, Options{Workers: 8, Deterministic: true, Faults: plan})
	rt.Start()
	defer rt.Stop()

	gen := func(deadline int64) func(i int) JobSpec {
		return func(i int) JobSpec {
			s := computeJob(4, 10_000, nil)
			s.Deadline = deadline
			s.Cost = 40_000
			return s
		}
	}
	svc := lsServe(t, rt, JobServiceOptions{
		MaxInFlight:  256,
		EvalInterval: 50_000,
		Tenants: []TenantConfig{
			{
				Spec: tenant.Spec{Name: "A", Weight: 1, Quota: 2,
					Policy: admit.Shed, QueueCap: 64},
				Source: &SpecSource{
					Arrivals: admit.NewDiurnal(11, 20_000, 1_000_000, 0.3, 80),
					Gen:      gen(1_000_000),
				},
			},
			{
				Spec: tenant.Spec{Name: "B", Weight: 1, Quota: 2,
					GapNS: 10_000, Burst: 4, Policy: admit.Shed, QueueCap: 64},
				Source: &SpecSource{
					Arrivals: admit.NewFlashCrowd(11, 10_000, 400_000, 200_000, 10, 200),
					Gen:      gen(200_000),
				},
			},
		},
	})
	svc.Drain()
	checkLedger(t, svc)

	led := tenantLedger{
		Stats:  svc.Stats(),
		Tens:   svc.TenantStats(),
		Owners: svc.LeaseOwners(),
		Grants: svc.DispatchGrants(),
		Clock:  rt.MaxWorkerClock(),
	}
	for _, j := range svc.Jobs() {
		met := int64(0)
		if j.MetDeadline() {
			met = 1
		}
		led.Jobs = append(led.Jobs, [4]int64{int64(j.id), int64(j.State()), met, j.Latency()})
		led.Names = append(led.Names, j.Name())
	}
	return led
}

// TestTenantIsolationReplay is the acceptance gate for the isolation
// plane: the multi-tenant workload — per-tenant queues, token buckets,
// DRR dispatch, elastic leases, AND a mid-run chiplet fault landing on a
// leased chiplet — must replay byte for byte under Deterministic mode.
// The guard assertions make the gate non-vacuous: the well-behaved
// tenant finishes its whole stream (the fault rebalances leases, it does
// not starve anyone), the flash crowd is rate-limited at its doorstep,
// the fault forces lease churn beyond the initial grants, and both
// tenants draw DRR dispatch slots.
func TestTenantIsolationReplay(t *testing.T) {
	base := tenantReplayRun(t)

	var a, b TenantStats
	for _, st := range base.Tens {
		switch st.Name {
		case "A":
			a = st
		case "B":
			b = st
		}
	}
	if a.Completed != 80 || a.Completed != a.Submitted {
		t.Fatalf("tenant A starved: completed %d of %d submitted", a.Completed, a.Submitted)
	}
	if b.RateLimited == 0 {
		t.Fatalf("tenant B's 10x flash crowd was never rate-limited: %+v", b)
	}
	if b.Completed == 0 {
		t.Fatalf("tenant B fully starved: %+v", b)
	}
	// Initial arbitration grants each tenant its quota (4 grants total on 4
	// chiplets); the chiplet-0 fault must force additional grants.
	if n := a.LeaseGrants + b.LeaseGrants; n <= 4 {
		t.Fatalf("lease grants = %d; fault forced no rebalance (A %+v, B %+v)", n, a, b)
	}
	for i, g := range base.Grants {
		if g == 0 {
			t.Fatalf("tenant %d drew no DRR dispatch slots: %v", i, base.Grants)
		}
	}
	if len(base.Owners) != 4 {
		t.Fatalf("lease map = %v, want 4 chiplets", base.Owners)
	}

	for run := 0; run < 2; run++ {
		replay := tenantReplayRun(t)
		if !reflect.DeepEqual(replay, base) {
			t.Errorf("replay %d diverges:\n  base   %+v\n  replay %+v", run, base, replay)
		}
	}
}

// TestTenantSetupErrors: malformed tenant and service configurations
// must be rejected at ServeJobs time, not discovered mid-run.
func TestTenantSetupErrors(t *testing.T) {
	rt := jobRuntime(t, Options{})
	mk := func(specs ...tenant.Spec) JobServiceOptions {
		opts := JobServiceOptions{}
		for _, sp := range specs {
			opts.Tenants = append(opts.Tenants, TenantConfig{Spec: sp})
		}
		return opts
	}
	cases := []struct {
		name string
		opts JobServiceOptions
	}{
		{"empty name", mk(tenant.Spec{Weight: 1, Quota: 1})},
		{"duplicate name", mk(
			tenant.Spec{Name: "A", Weight: 1, Quota: 1},
			tenant.Spec{Name: "A", Weight: 1, Quota: 1})},
		{"quota oversubscribed", mk(
			tenant.Spec{Name: "A", Weight: 1, Quota: 3},
			tenant.Spec{Name: "B", Weight: 1, Quota: 2})},
		{"unknown policy", JobServiceOptions{Policy: admit.Shed + 1}},
		{"unknown placement", JobServiceOptions{Placement: PlaceRoundRobin + 1}},
	}
	// A service that gets installed makes every later call fail for that
	// reason alone, so the first bad config accepted ends the test.
	for _, tc := range cases {
		if _, err := rt.ServeJobs(tc.opts); err == nil {
			t.Fatalf("%s: ServeJobs accepted a bad config", tc.name)
		}
	}
	// An SLO target is a fraction strictly inside (0, 1).
	for _, target := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.5, 0, 1, 1.5} {
		opts := JobServiceOptions{SLO: map[int]float64{0: 0.95, 1: target}}
		if _, err := rt.ServeJobs(opts); err == nil {
			t.Fatalf("ServeJobs accepted SLO target %v", target)
		}
	}
	// A global Source cannot be combined with per-tenant sources.
	opts := mk(tenant.Spec{Name: "A", Weight: 1, Quota: 1})
	opts.Source = &SpecSource{Arrivals: admit.NewPoisson(1, 1_000, 1),
		Gen: func(i int) JobSpec { return computeJob(1, 100, nil) }}
	if _, err := rt.ServeJobs(opts); err == nil {
		t.Error("ServeJobs accepted a global Source alongside Tenants")
	}
}

// TestTenantUnknownSubmit: submitting a job naming an unconfigured
// tenant fails with ErrUnknownTenant; an empty tenant routes to the
// first configured tenant.
func TestTenantUnknownSubmit(t *testing.T) {
	rt := jobRuntime(t, Options{})
	svc, err := rt.ServeJobs(JobServiceOptions{
		Tenants: []TenantConfig{{Spec: tenant.Spec{Name: "A", Weight: 1, Quota: 1,
			Policy: admit.Reject, QueueCap: 8}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	spec := computeJob(1, 1_000, nil)
	spec.Tenant = "ghost"
	if _, err := rt.SubmitJob(spec); err == nil {
		t.Error("SubmitJob accepted an unknown tenant")
	}
	spec.Tenant = ""
	j, err := rt.SubmitJob(spec)
	if err != nil {
		t.Fatalf("SubmitJob with empty tenant: %v", err)
	}
	if got := j.Tenant(); got != "A" {
		t.Errorf("empty tenant routed to %q, want A", got)
	}
	svc.Drain()
}

// TestQueueLenCountsTenantBacklog: the admission backlog (backlogLocked,
// what the job-queue-depth gauge reports) is the backlog of every tenant's
// queue. (It used to read a service-wide heap that a service with Tenants
// created and never filled, and reported 0 under any backlog.)
func TestQueueLenCountsTenantBacklog(t *testing.T) {
	rt := jobRuntime(t, Options{})
	var deepest atomic.Int64
	const jobs = 12
	queueLen := func(s *JobService) int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return int64(s.backlogLocked())
	}
	svc := lsServe(t, rt, JobServiceOptions{
		MaxInFlight: 1, // the burst queues behind the one running job
		Tenants: []TenantConfig{{
			Spec: tenant.Spec{Name: "A", Weight: 1, Quota: 1, Policy: admit.Block, QueueCap: 4},
			Source: &SpecSource{
				Arrivals: admit.NewPoisson(3, 100, jobs),
				Gen: func(i int) JobSpec {
					return JobSpec{Stages: []JobStage{{func(ctx *Ctx) {
						ctx.Compute(20_000)
						if n := queueLen(rt.JobServer()); n > deepest.Load() {
							deepest.Store(n)
						}
					}}}}
				},
			},
		}},
	})
	svc.Drain()
	if st := svc.Stats(); st.Completed != jobs {
		t.Fatalf("stats = %+v, want %d completed", st, jobs)
	}
	if deepest.Load() == 0 {
		t.Errorf("backlog stayed 0 mid-run with %d arrivals behind MaxInFlight 1", jobs)
	}
	if n := queueLen(svc); n != 0 {
		t.Errorf("backlog = %d after Drain, want 0", n)
	}
}

// TestTenantEstimatorIsolation: completions feed the owning tenant's
// service-time estimator only. A tenant with no history estimates from its
// own jobs' Cost hints even when a neighbor has accumulated a very
// different distribution — one tenant running heavyweight jobs must not
// get a fresh tenant's first lightweight jobs shed as hopeless.
func TestTenantEstimatorIsolation(t *testing.T) {
	rt := jobRuntime(t, Options{})
	mk := func(name string) TenantConfig {
		return TenantConfig{Spec: tenant.Spec{Name: name, Weight: 1, Quota: 1,
			Policy: admit.Shed, QueueCap: 64}}
	}
	svc := lsServe(t, rt, JobServiceOptions{
		Tenants: []TenantConfig{mk("heavy"), mk("fresh")},
	})
	// The heavy tenant completes exactly as many jobs as an estimator
	// needs before it trusts its own median (admit's estMinSamples).
	const warm = 16
	var done []*Job
	for i := 0; i < warm; i++ {
		spec := computeJob(1, 1_000_000, nil)
		spec.Tenant = "heavy"
		j, err := rt.SubmitJob(spec)
		if err != nil {
			t.Fatal(err)
		}
		done = append(done, j)
	}
	for _, j := range done {
		<-j.Done()
	}
	svc.mu.Lock()
	heavy, fresh := svc.tens[0].est, svc.tens[1].est
	if n := heavy.Count(); n != warm {
		t.Errorf("heavy tenant's estimator saw %d completions, want %d", n, warm)
	}
	if got := heavy.Estimate(10_000); got < 500_000 {
		t.Errorf("heavy tenant estimate = %d, want ~1ms from its own history", got)
	}
	if n := fresh.Count(); n != 0 {
		t.Errorf("fresh tenant's estimator saw %d of its neighbor's completions", n)
	}
	if got := fresh.Estimate(10_000); got != 10_000 {
		t.Errorf("fresh tenant estimate = %d, want its own 10000 hint", got)
	}
	svc.mu.Unlock()

	// The fresh tenant's first lightweight job, with a budget far below
	// the neighbor's ~1ms service times, is admitted and runs.
	spec := computeJob(1, 10_000, nil)
	spec.Tenant, spec.Cost, spec.Deadline = "fresh", 10_000, 200_000
	j, err := rt.SubmitJob(spec)
	if err != nil {
		t.Fatalf("fresh tenant's first job refused: %v", err)
	}
	<-j.Done()
	if j.State() != JobCompleted {
		t.Errorf("fresh tenant's first job ended %v, want completed", j.State())
	}
}
