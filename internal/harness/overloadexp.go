package harness

import (
	"fmt"
	"math"
	"reflect"
	"sort"

	"charm"
	"charm/internal/topology"
)

// The overload experiment drives the open-loop job service at arrival rates
// from 0.5x to 2x of machine capacity and compares the admission policies:
// a no-admission baseline (an effectively unbounded Block queue), bounded
// Block, typed Reject, and deadline-aware Shed. Goodput is the fraction of
// machine capacity spent on jobs that met their deadline; at 2x the shed
// policy must keep goodput high while the no-admission baseline's queue —
// and therefore its p99 latency — diverges. A second scenario thermally
// throttles one chiplet and shows the per-chiplet circuit breaker capping
// the browned-out chiplet's queue depth relative to a breaker-off run.

const (
	ovWorkers  = 8
	ovJobs     = 400
	ovTasks    = 4      // tasks per job (one stage)
	ovTaskCost = 10_000 // virtual ns of compute per task
	ovWork     = ovTasks * ovTaskCost
	// ovGap1x is the capacity-matched mean arrival gap: one job's compute
	// spread over all workers.
	ovGap1x    = ovWork / ovWorkers
	ovDeadline = 200_000
	ovSeed     = 7
	// ovBigQueue makes Block never fill: the no-admission baseline.
	ovBigQueue = 4 * ovJobs
	ovQueueCap = 64
)

// overloadResult is one measured open-loop run.
type overloadResult struct {
	stats   charm.JobStats
	lats    []int64 // completed-job latencies in arrival order
	span    int64   // first arrival to last completion, virtual ns
	metWork int64   // compute ns of jobs that met their deadline
	maxq1   int64   // chiplet 1 queue-depth high-water mark
}

// overloadRun serves ovJobs Poisson arrivals at `load` times capacity under
// one admission policy and drains the machine. A nil schedule runs healthy.
func (o Options) overloadRun(policy charm.AdmitPolicy, queueCap int, load float64,
	breakers bool, faults *charm.FaultSchedule, placement charm.JobPlacement) overloadResult {
	rt, err := charm.Init(charm.Config{
		Topology:      topology.Synthetic(4, 2),
		Workers:       ovWorkers,
		Deterministic: true,
		Faults:        faults,
	})
	if err != nil {
		panic(fmt.Sprintf("harness: overload: %v", err))
	}
	o.observe(rt)
	defer rt.Finalize()
	svc, err := rt.ServeJobsFromTask(charm.JobServiceOptions{
		Policy:        policy,
		QueueCapacity: queueCap,
		Breakers:      breakers,
		Placement:     placement,
		EvalInterval:  50_000,
		Source: &charm.SpecSource{
			Arrivals: charm.NewPoissonArrivals(ovSeed, int64(float64(ovGap1x)/load), ovJobs),
			Gen: func(i int) charm.JobSpec {
				stage := make(charm.JobStage, ovTasks)
				for k := range stage {
					stage[k] = func(ctx *charm.Ctx) { ctx.Compute(ovTaskCost) }
				}
				return charm.JobSpec{
					Name:     fmt.Sprintf("job-%d", i),
					Priority: i % 3,
					Deadline: ovDeadline,
					Cost:     ovWork,
					Stages:   []charm.JobStage{stage},
				}
			},
		},
	})
	if err != nil {
		panic(fmt.Sprintf("harness: overload: %v", err))
	}
	svc.Drain()

	var r overloadResult
	r.stats = svc.Stats()
	first, last := int64(math.MaxInt64), int64(0)
	for _, j := range svc.Jobs() {
		if j.Arrival() < first {
			first = j.Arrival()
		}
		if j.State() != charm.JobCompleted {
			continue
		}
		r.lats = append(r.lats, j.Latency())
		if f := j.Finished(); f > last {
			last = f
		}
		if j.MetDeadline() {
			r.metWork += ovWork
		}
	}
	if last > first {
		r.span = last - first
	}
	r.maxq1 = svc.MaxChipletDepth(1)
	return r
}

// goodputPct is the share of machine capacity spent on deadline-meeting
// jobs over the run's span.
func (r overloadResult) goodputPct() float64 {
	if r.span <= 0 {
		return 0
	}
	return 100 * float64(r.metWork) / float64(ovWorkers*r.span)
}

// p99us is the 99th-percentile completed-job latency in microseconds.
func (r overloadResult) p99us() float64 {
	if len(r.lats) == 0 {
		return 0
	}
	s := append([]int64(nil), r.lats...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := (99*len(s) + 99) / 100
	if idx > len(s) {
		idx = len(s)
	}
	return float64(s[idx-1]) / 1000
}

// overloadSame reports bit-identical replays: same ledger, same per-job
// latencies, same queue high-water marks.
func overloadSame(a, b overloadResult) bool {
	return a.stats == b.stats && a.span == b.span && a.maxq1 == b.maxq1 &&
		reflect.DeepEqual(a.lats, b.lats)
}

// ovThermal throttles chiplet 1 by 3x for the bulk of the 2x-load run.
func ovThermal() *charm.FaultSchedule {
	return charm.NewFaultSchedule("overload-thermal", ovSeed).
		ThermalThrottle(1, 100_000, 1_500_000, 3.0)
}

// Overload regenerates the admission/overload experiment: policies
// none (unbounded Block), block, reject, and shed at 0.5x, 1x, and 2x of
// capacity, plus a breaker-off/on pair under a thermal fault at 2x. The
// repro column re-runs shed-2x and compares the full ledger byte for byte.
func (o Options) Overload() *Table {
	tab := &Table{
		ID:    "overload",
		Title: "Open-loop admission: goodput and p99 under 0.5x-2x arrival rates",
		Header: []string{"run", "offered", "completed", "met", "shed", "rejected",
			"expired", "goodput_pct", "p99_us", "maxq_ch1", "repro"},
		Notes: "at 2x capacity deadline-aware shedding sustains >=90% goodput " +
			"while the no-admission baseline's p99 diverges; under a thermal " +
			"fault the chiplet-1 breaker caps its queue depth vs breaker-off",
	}
	loads := []float64{0.5, 1, 2}
	if o.ArrivalLoad > 0 {
		loads = []float64{o.ArrivalLoad}
	}
	policies := []struct {
		name     string
		policy   charm.AdmitPolicy
		queueCap int
	}{
		{"none", charm.AdmitBlock, ovBigQueue},
		{"block", charm.AdmitBlock, ovQueueCap},
		{"reject", charm.AdmitReject, ovQueueCap},
		{"shed", charm.AdmitShed, ovQueueCap},
	}
	row := func(name string, r overloadResult, repro string) []string {
		return []string{
			name, i64(r.stats.Submitted), i64(r.stats.Completed), i64(r.stats.Met),
			i64(r.stats.Shed), i64(r.stats.Rejected), i64(r.stats.Expired),
			f1(r.goodputPct()), f1(r.p99us()), i64(r.maxq1), repro,
		}
	}
	for _, p := range policies {
		for _, load := range loads {
			r := o.overloadRun(p.policy, p.queueCap, load, false, nil, charm.PlaceLoadAware)
			repro := "-"
			if p.name == "shed" && load == 2 {
				again := o.overloadRun(p.policy, p.queueCap, load, false, nil, charm.PlaceLoadAware)
				repro = "no"
				if overloadSame(r, again) {
					repro = "yes"
				}
			}
			tab.Rows = append(tab.Rows, row(fmt.Sprintf("%s-%gx", p.name, load), r, repro))
		}
	}
	// Placement ablation: shed admission with the legacy round-robin
	// dispatch, the comparison the load-aware decision plane must meet or
	// beat on goodput and p99 at matched load.
	for _, load := range []float64{1, 2} {
		r := o.overloadRun(charm.AdmitShed, ovQueueCap, load, false, nil, charm.PlaceRoundRobin)
		tab.Rows = append(tab.Rows, row(fmt.Sprintf("rr-%gx", load), r, "-"))
	}
	// Breaker scenario: chiplet 1 runs 3x slow; with breakers on, its
	// admission refusals cap the browned-out chiplet's queue depth. The
	// pair runs under round-robin placement: load-aware dispatch already
	// routes around the browned-out chiplet via the view's fused health,
	// so the blind baseline is what isolates the breaker's own effect.
	off := o.overloadRun(charm.AdmitShed, ovQueueCap, 2, false, ovThermal(), charm.PlaceRoundRobin)
	on := o.overloadRun(charm.AdmitShed, ovQueueCap, 2, true, ovThermal(), charm.PlaceRoundRobin)
	tab.Rows = append(tab.Rows, row("breaker-off-2x", off, "-"))
	tab.Rows = append(tab.Rows, row("breaker-on-2x", on, "-"))
	return tab
}
