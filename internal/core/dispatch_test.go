package core

import (
	"reflect"
	"runtime"
	"testing"

	"charm/internal/admit"
	"charm/internal/fault"
	"charm/internal/power"
	"charm/internal/sim"
	"charm/internal/tenant"
	"charm/internal/topology"
)

// TestDispatchAllocs pins allocation-free stage dispatch: once a service
// has placed a stage, placing the next one — rebuilding the dispatch view,
// ordering chiplets, walking leases and breakers, choosing targets —
// allocates nothing. The runtimes are never started, so no worker
// allocates underneath the count.
func TestDispatchAllocs(t *testing.T) {
	synth := topology.Synthetic(4, 2)
	sp, err := topology.ParseTopoSpec("mesh:4x2,fast=2,eff=4,accel=2")
	if err != nil {
		t.Fatal(err)
	}
	het, err := sp.Build()
	if err != nil {
		t.Fatal(err)
	}
	plan := compilePlan(t, fault.New("dispatch-allocs", 5).
		LinkBrownout(1, 0, fault.Forever, 3.0).
		OfflineChiplet(2, 0, fault.Forever), synth)
	cases := []struct {
		name string
		topo *topology.Topology
		opts Options
		svc  JobServiceOptions
		kind topology.ChipletKind
		// leased grants tenant 0 its lease before dispatching.
		leased bool
	}{
		{name: "load-aware", topo: synth},
		{name: "prefer-kind", topo: het, kind: topology.KindAccel},
		{name: "leased-tenant", topo: synth, leased: true, svc: JobServiceOptions{
			Tenants: []TenantConfig{
				{Spec: tenant.Spec{Name: "A", Weight: 1, Quota: 2}},
				{Spec: tenant.Spec{Name: "B", Weight: 1, Quota: 1}},
			},
		}},
		{name: "faults-breakers", topo: synth,
			opts: Options{Faults: plan, Power: hotPowerConfig()},
			svc:  JobServiceOptions{Breakers: true, Policy: admit.Shed}},
		{name: "round-robin", topo: synth,
			svc: JobServiceOptions{Placement: PlaceRoundRobin}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.opts.Workers = tc.topo.NumCores()
			tc.opts.Deterministic = true
			rt := NewRuntime(sim.New(sim.Config{Topo: tc.topo}), tc.opts)
			defer rt.Stop()
			s, err := rt.ServeJobs(tc.svc)
			if err != nil {
				t.Fatal(err)
			}
			s.mu.Lock()
			defer s.mu.Unlock()
			const now = 1_000_000
			s.evalLocked(now) // breakers and observed slowdown, leases
			if tc.leased {
				s.tens[0].inflight = 1 // demand, so arbitration grants a lease
				s.evalLeasesLocked(now)
				s.tens[0].inflight = 0
				if s.leases.Held(0) == 0 {
					t.Fatal("tenant 0 holds no lease")
				}
			}
			// Warm the scratch to the largest stage, then alternate a
			// co-located stage with one that spills over several chiplets.
			s.placeStageLocked(now, 2*len(rt.workers), 0, tc.kind)
			n := 0
			allocs := testing.AllocsPerRun(50, func() {
				n = 1 + (n+3)%len(rt.workers)
				if got := s.placeStageLocked(now, n, 0, tc.kind); len(got) != n {
					t.Fatalf("placed %d tasks, want %d", len(got), n)
				}
			})
			if allocs != 0 {
				t.Errorf("placeStageLocked allocates %.1f objects per stage, want 0", allocs)
			}
		})
	}
}

// TestDispatchPrefersKind pins the job kind preference at the dispatch
// level on the reference heterogeneous machine (chiplets 6 and 7 are the
// accelerators, two cores each): a Prefer: KindAccel stage lands only on
// accelerator workers while one of them is live and admitting, and spills
// onto other kinds once the fault plan has downed both accelerator
// chiplets — the preference is soft and never strands work. KindAny places
// exactly like a job that states no preference, and on an all-fast machine
// a kind that every chiplet has, or that none has, changes nothing.
func TestDispatchPrefersKind(t *testing.T) {
	build := func(spec string) *topology.Topology {
		sp, err := topology.ParseTopoSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		topo, err := sp.Build()
		if err != nil {
			t.Fatal(err)
		}
		return topo
	}
	// place serves jobs on a fresh, never-started runtime, places stages
	// of 1..maxN tasks back to back, and returns their targets and how
	// many tasks landed on each chiplet kind.
	place := func(topo *topology.Topology, sched *fault.Schedule, kind topology.ChipletKind, maxN int) ([][]int, map[topology.ChipletKind]int) {
		opts := Options{Workers: topo.NumCores(), Deterministic: true}
		if sched != nil {
			opts.Faults = compilePlan(t, sched, topo)
		}
		rt := NewRuntime(sim.New(sim.Config{Topo: topo}), opts)
		defer rt.Stop()
		s, err := rt.ServeJobs(JobServiceOptions{})
		if err != nil {
			t.Fatal(err)
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		const now = 1_000_000
		s.evalLocked(now)
		var stages [][]int
		kinds := map[topology.ChipletKind]int{}
		for n := 1; n <= maxN; n++ {
			got := s.placeStageLocked(now, n, 0, kind)
			if len(got) != n {
				t.Fatalf("stage of %d placed %d tasks", n, len(got))
			}
			for _, w := range got {
				kinds[topo.KindOf(topo.ChipletOf(rt.workers[w].Core()))]++
			}
			stages = append(stages, append([]int(nil), got...))
		}
		return stages, kinds
	}
	het := build("mesh:4x2,fast=2,eff=4,accel=2")
	accel := topology.KindAccel

	if _, kinds := place(het, nil, accel, 4); len(kinds) != 1 || kinds[accel] != 1+2+3+4 {
		t.Errorf("healthy: Prefer accel placed on kinds %v, want accelerator workers only", kinds)
	}
	oneDown := fault.New("one-accel-down", 1).OfflineChiplet(6, 0, fault.Forever)
	if _, kinds := place(het, oneDown, accel, 2); len(kinds) != 1 || kinds[accel] != 1+2 {
		t.Errorf("chiplet 6 down: Prefer accel placed on kinds %v, want accelerator workers only", kinds)
	}
	bothDown := fault.New("accel-down", 1).
		OfflineChiplet(6, 0, fault.Forever).
		OfflineChiplet(7, 0, fault.Forever)
	if _, kinds := place(het, bothDown, accel, 12); kinds[accel] != 0 ||
		kinds[topology.KindFast]+kinds[topology.KindEfficient] != 12*13/2 {
		t.Errorf("accelerators down: Prefer accel placed on kinds %v, want fast and efficient workers only", kinds)
	}

	var noPref JobSpec
	anyHet, anyKinds := place(het, nil, topology.KindAny, 16)
	if none, _ := place(het, nil, noPref.Prefer, 16); !reflect.DeepEqual(anyHet, none) {
		t.Errorf("KindAny placed %v, no preference %v", anyHet, none)
	}
	if len(anyKinds) != 3 {
		t.Errorf("KindAny placed on kinds %v, want all three", anyKinds)
	}
	homo := build("mesh:4x2")
	anyHomo, _ := place(homo, nil, topology.KindAny, 16)
	for _, k := range []topology.ChipletKind{topology.KindFast, accel} {
		if got, _ := place(homo, nil, k, 16); !reflect.DeepEqual(got, anyHomo) {
			t.Errorf("all-fast machine: Prefer %v placed %v, KindAny %v", k, got, anyHomo)
		}
	}
}

// jobAllocBudget is the ceiling TestJobServiceAllocs holds the job service
// to, in heap allocations per submitted job; the run measures 0.475, and
// 0.49 in a -race build.
const jobAllocBudget = 0.52

// TestJobServiceAllocs pins the job service's allocation budget end to
// end: a lockstep two-tenant service with the power plane, metrics and
// tracing on serves compute-only 4-task jobs, over half of them shed by
// tenant B's token bucket, and the heap allocations of the whole run (from
// installing the service to Drain) divided by the jobs submitted stay
// under jobAllocBudget. Every spec shares one stage, so the count is the
// runtime's own. A job costs no allocation of its own: its Job and its
// stage group are carved from the service's slabs, its stage tasks are
// recycled through the workers' free lists and the service's spare tasks,
// and its Done channel is made only if someone asks. A governor tick costs
// none either: the fault overlay appends in place and the power plane
// builds a snapshot only when one is read. What is left is paced by
// virtual time or paid once, in this run's shares per job:
//   - 0.20: the tasks allocated until the free lists hold enough to
//     recycle (about 800 here, however many jobs follow);
//   - 0.15: the Samples slice of each periodic metrics sample, which the
//     registry's history keeps;
//   - the rest, about 0.12: ServeJobs's queues, tenants and metric series,
//     the slab chunks (8 to 256 values each), the growth of the service's
//     job list and of the workers' free lists, and the tracer's span
//     chunks.
func TestJobServiceAllocs(t *testing.T) {
	rt := startedRuntime(t, Options{SchedulerTimer: 50_000, Power: &power.Config{}})
	rt.EnableMetrics(true)
	rt.EnableTracing(true)
	stage := computeJob(4, 10_000, nil).Stages
	gen := func(i int) JobSpec {
		return JobSpec{Deadline: 200_000, Cost: 40_000, Stages: stage}
	}
	const aJobs, bJobs = 1200, 3000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	svc := lsServe(t, rt, JobServiceOptions{
		MaxInFlight:  256,
		EvalInterval: 50_000,
		Tenants: []TenantConfig{
			{
				Spec: tenant.Spec{Name: "A", Weight: 1, Quota: 2,
					Policy: admit.Shed, QueueCap: 64},
				Source: &SpecSource{Arrivals: admit.NewPoisson(5, 26_000, aJobs), Gen: gen},
			},
			{
				Spec: tenant.Spec{Name: "B", Weight: 1, Quota: 2,
					GapNS: 10_000, Burst: 4, Policy: admit.Shed, QueueCap: 64},
				Source: &SpecSource{
					Arrivals: admit.NewFlashCrowd(5, 10_000, 400_000, 200_000, 10, bJobs),
					Gen:      gen,
				},
			},
		},
	})
	svc.Drain()
	runtime.ReadMemStats(&after)
	checkLedger(t, svc)

	st := svc.Stats()
	var limited int64
	for _, ts := range svc.TenantStats() {
		limited += ts.RateLimited
	}
	if st.Submitted != aJobs+bJobs || st.Completed == 0 || limited == 0 {
		t.Fatalf("the run misses its mix: %+v, %d rate-limited", st, limited)
	}
	perJob := float64(after.Mallocs-before.Mallocs) / float64(st.Submitted)
	t.Logf("%.3f allocations per job (%d jobs: %d completed, %d rate-limited)",
		perJob, st.Submitted, st.Completed, limited)
	if perJob > jobAllocBudget {
		t.Errorf("the job service allocates %.3f objects per job, budget %.2f", perJob, jobAllocBudget)
	}
}
