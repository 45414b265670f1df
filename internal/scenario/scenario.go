// Package scenario holds the deterministic open-loop service scenarios —
// overload, thermal cliff, tenant isolation, topology sensitivity — once.
// The harness tables (internal/harness) and the charm-obs post-mortems run
// the same definitions, so a figure one tool prints is the figure the other
// explains.
package scenario

import (
	"fmt"
	"math"
	"reflect"
	"sort"

	"charm"
)

// Scenario is one service run: the machine to build and the job service to
// install on it once it has started.
type Scenario struct {
	// Name labels errors ("overload", "thermal", ...).
	Name string
	// Config is handed to charm.Init.
	Config charm.Config
	// Service builds the job-service options on the started runtime (the
	// topo scenario allocates its shared array there).
	Service func(rt *charm.Runtime) charm.JobServiceOptions
	// TenantOf names the tenant a job is accounted to in Result.Tenants;
	// nil skips the per-tenant split.
	TenantOf func(j *charm.Job) string
}

// Run is a drained scenario: its Result plus the still-live runtime and
// service for callers that read more (SLO status, the tracer, lease maps).
// The caller finalizes RT.
type Run struct {
	RT  *charm.Runtime
	Svc *charm.JobService
	Result
}

// Result is what a drained run measured, all of it in virtual time: two
// runs of one scenario produce equal Results (see Same).
type Result struct {
	// Workers is the machine capacity GoodputPct divides by.
	Workers int
	// Stats is the service's admission ledger.
	Stats charm.JobStats
	// Lats holds the completed jobs' latencies in arrival order.
	Lats []int64
	// Span is the first arrival to the last completion.
	Span int64
	// MetWork sums the declared cost of the jobs that met their deadline.
	MetWork int64
	// Tenants splits the run by Scenario.TenantOf (nil without one).
	Tenants map[string]TenantResult
	// Power is the thermal/energy plane's final snapshot, nil with the
	// plane off.
	Power *charm.PowerSnapshot
	// MaxDepth is each chiplet's queue-depth high-water mark.
	MaxDepth []int64
}

// TenantResult is one tenant's share of a run: the service's per-tenant
// ledger and the tenant's completed-job latencies in arrival order. A
// service without tenants (the shared-heap baseline) keeps no such ledger;
// Name, Completed and Met are then counted from the job list.
type TenantResult struct {
	charm.TenantStats
	Lats []int64
}

// Run builds the machine, lets hook attach observers to the started
// runtime (nil for none), installs the service from inside a task, drains
// it and collects the Result.
func (s Scenario) Run(hook func(*charm.Runtime)) (*Run, error) {
	rt, err := charm.Init(s.Config)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.Name, err)
	}
	if hook != nil {
		hook(rt)
	}
	svc, err := rt.ServeJobsFromTask(s.Service(rt))
	if err != nil {
		rt.Finalize()
		return nil, fmt.Errorf("%s: %w", s.Name, err)
	}
	svc.Drain()

	r := Result{Workers: s.Config.Workers, Stats: svc.Stats()}
	if s.TenantOf != nil {
		r.Tenants = map[string]TenantResult{}
	}
	first, last := int64(math.MaxInt64), int64(0)
	for _, j := range svc.Jobs() {
		if j.Arrival() < first {
			first = j.Arrival()
		}
		if j.State() != charm.JobCompleted {
			continue
		}
		r.Lats = append(r.Lats, j.Latency())
		if f := j.Finished(); f > last {
			last = f
		}
		met := j.MetDeadline()
		if met {
			r.MetWork += j.Spec().Cost
		}
		if s.TenantOf != nil {
			name := s.TenantOf(j)
			t := r.Tenants[name]
			t.Name = name
			t.Completed++
			if met {
				t.Met++
			}
			t.Lats = append(t.Lats, j.Latency())
			r.Tenants[name] = t
		}
	}
	if last > first {
		r.Span = last - first
	}
	if s.TenantOf != nil {
		for _, st := range svc.TenantStats() {
			t := r.Tenants[st.Name]
			t.TenantStats = st
			r.Tenants[st.Name] = t
		}
	}
	if pw := rt.Power(); pw != nil {
		r.Power = pw.Stats()
	}
	r.MaxDepth = make([]int64, rt.Topology().NumChiplets())
	for ch := range r.MaxDepth {
		r.MaxDepth[ch] = svc.MaxChipletDepth(ch)
	}
	return &Run{RT: rt, Svc: svc, Result: r}, nil
}

// GoodputPct is the share of machine capacity spent on deadline-meeting
// jobs over the run's span.
func (r Result) GoodputPct() float64 {
	if r.Span <= 0 {
		return 0
	}
	return 100 * float64(r.MetWork) / float64(int64(r.Workers)*r.Span)
}

// P99us is the nearest-rank 99th-percentile completed-job latency in
// microseconds.
func (r Result) P99us() float64 {
	return p99us(r.Lats)
}

// P99us is the tenant's nearest-rank 99th-percentile latency in
// microseconds.
func (t TenantResult) P99us() float64 {
	return p99us(t.Lats)
}

func p99us(lats []int64) float64 {
	if len(lats) == 0 {
		return 0
	}
	s := append([]int64(nil), lats...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := (99*len(s) + 99) / 100
	if idx > len(s) {
		idx = len(s)
	}
	return float64(s[idx-1]) / 1000
}

// Same reports a bit-identical replay: equal ledgers, per-job latencies,
// per-tenant splits, queue high-water marks and power snapshots.
func Same(a, b Result) bool { return reflect.DeepEqual(a, b) }
