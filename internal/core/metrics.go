package core

import (
	"charm/internal/obs"
)

// latencyBounds are the fixed histogram buckets for task latencies, in
// virtual nanoseconds: roughly logarithmic from sub-µs task bodies to
// second-scale phases.
var latencyBounds = []int64{
	500, 1_000, 2_000, 5_000, 10_000, 20_000, 50_000,
	100_000, 200_000, 500_000, 1_000_000, 2_000_000, 5_000_000,
	10_000_000, 100_000_000, 1_000_000_000,
}

// rtMetrics bundles the runtime's hot-path metric handles. Every handle
// is sharded per worker, so recording never contends across workers, and
// gated on the registry's enabled flag, so a disabled registry costs one
// atomic load per record.
type rtMetrics struct {
	reg *obs.Registry

	tasks        *obs.Counter
	spawns       *obs.Counter
	steals       *obs.Counter
	remoteSteals *obs.Counter
	migrations   *obs.Counter
	delegations  *obs.Counter
	// taskLatency measures enqueue→completion; taskExec measures first
	// execution→completion (the queueing-free residence time).
	taskLatency *obs.Histogram
	taskExec    *obs.Histogram

	// Fault-handling counters (all zero when no fault plan is active).
	faultOfflines   *obs.Counter
	faultReenqueues *obs.Counter
	faultMigrations *obs.Counter
	faultParks      *obs.Counter

	// Open-loop job-service instruments (all zero without ServeJobs).
	// Authoritative counts live in JobService.Stats — these mirror them
	// into the registry for traces and snapshots.
	jobsAdmitted      *obs.Counter
	jobsCompleted     *obs.Counter
	jobsRejected      *obs.Counter
	jobsShed          *obs.Counter
	jobsExpired       *obs.Counter
	jobsCancelled     *obs.Counter
	jobTasksCancelled *obs.Counter
	jobQueueDepth     *obs.Gauge
	breakersOpen      *obs.Gauge

	// Placement decision-plane counters: one per Select site, labeled by
	// site, plus the two dispatch fallback tiers.
	placeAlg2          *obs.Counter
	placeRehome        *obs.Counter
	placeJob           *obs.Counter
	placeSteal         *obs.Counter
	placeFallbackLive  *obs.Counter
	placeFallbackBlind *obs.Counter
}

// newRTMetrics builds the registry (one shard per worker) and the
// runtime-level instruments, and registers snapshot-time funcs for
// scheduler state (live tasks, per-worker spread rate and placement).
func newRTMetrics(rt *Runtime, workers int) *rtMetrics {
	reg := obs.NewRegistry(workers)
	m := &rtMetrics{
		reg: reg,
		tasks: reg.Counter("charm_tasks_total",
			"Tasks executed to completion.", nil),
		spawns: reg.Counter("charm_task_spawns_total",
			"Tasks spawned from within running tasks.", nil),
		steals: reg.Counter("charm_steals_total",
			"Successful steals.", nil),
		remoteSteals: reg.Counter("charm_steals_remote_chiplet_total",
			"Steals that crossed a chiplet boundary.", nil),
		migrations: reg.Counter("charm_migrations_total",
			"Alg. 2 worker core re-assignments.", nil),
		delegations: reg.Counter("charm_delegations_total",
			"Tasks shipped via Call/CallAsync/Delegate.", nil),
		taskLatency: reg.Histogram("charm_task_latency_ns",
			"Virtual ns from task enqueue to completion.", nil, latencyBounds),
		taskExec: reg.Histogram("charm_task_exec_ns",
			"Virtual ns from first execution to completion.", nil, latencyBounds),
		faultOfflines: reg.Counter("charm_fault_core_offline_total",
			"Times a worker found its core offlined by the fault plan.", nil),
		faultReenqueues: reg.Counter("charm_fault_reenqueues_total",
			"Queued tasks drained off a dead core onto live workers.", nil),
		faultMigrations: reg.Counter("charm_fault_migrations_total",
			"Worker re-homes to a replacement core after an offline.", nil),
		faultParks: reg.Counter("charm_fault_parks_total",
			"Workers parked because no replacement core was available.", nil),
		jobsAdmitted: reg.Counter("charm_jobs_admitted_total",
			"Jobs accepted into the admission queue.", nil),
		jobsCompleted: reg.Counter("charm_jobs_completed_total",
			"Jobs that ran every stage to completion.", nil),
		jobsRejected: reg.Counter("charm_jobs_rejected_total",
			"Jobs refused at admission (queue full).", nil),
		jobsShed: reg.Counter("charm_jobs_shed_total",
			"Jobs dropped by deadline-aware shedding.", nil),
		jobsExpired: reg.Counter("charm_jobs_expired_total",
			"Jobs whose deadline passed while queued.", nil),
		jobsCancelled: reg.Counter("charm_jobs_cancelled_total",
			"Jobs cancelled after admission.", nil),
		jobTasksCancelled: reg.Counter("charm_job_tasks_cancelled_total",
			"Individual tasks discarded by job cancellation.", nil),
		jobQueueDepth: reg.Gauge("charm_job_queue_depth",
			"Current admission-queue length.", nil, obs.Traced()),
		breakersOpen: reg.Gauge("charm_breakers_open",
			"Chiplet circuit breakers currently not closed.", nil, obs.Traced()),
		placeAlg2: reg.Counter("charm_place_decisions_total",
			"Placement decisions taken through the internal/place plane.",
			obs.Labels{"site": "alg2"}),
		placeRehome: reg.Counter("charm_place_decisions_total",
			"Placement decisions taken through the internal/place plane.",
			obs.Labels{"site": "rehome"}),
		placeJob: reg.Counter("charm_place_decisions_total",
			"Placement decisions taken through the internal/place plane.",
			obs.Labels{"site": "job"}),
		placeSteal: reg.Counter("charm_place_decisions_total",
			"Placement decisions taken through the internal/place plane.",
			obs.Labels{"site": "steal-order"}),
		placeFallbackLive: reg.Counter("charm_place_fallback_total",
			"Dispatch placements that fell back past every preferred chiplet.",
			obs.Labels{"kind": "live"}),
		placeFallbackBlind: reg.Counter("charm_place_fallback_total",
			"Dispatch placements that fell back past every preferred chiplet.",
			obs.Labels{"kind": "blind"}),
	}
	reg.Func("charm_live_tasks", "Currently executing or suspended tasks.",
		obs.KindGauge, nil, func(int64) float64 { return float64(rt.liveTasks.Load()) },
		obs.Traced())
	if rt.opts.Faults != nil {
		reg.Func("charm_cores_offline", "Cores currently offlined by the fault plan.",
			obs.KindGauge, nil,
			func(t int64) float64 { return float64(rt.opts.Faults.CoresDown(t)) },
			obs.Traced())
	}
	for i, kind := range []string{"handoff", "inline", "self"} {
		// Host-paced (see TurnStats), so not Traced: in no sampled history or trace.
		reg.Func("charm_host_lockstep_turns_total", "Lockstep grants by how the turn was delivered: handoff = the kernel resumed the worker's coroutine, inline = the granting worker played an idle turn itself, self = it came straight back (host-paced).",
			obs.KindCounter, obs.Labels{"kind": kind}, func(int64) float64 {
				t := rt.TurnStats()
				return float64([...]int64{t.Handoff, t.Inline, t.Self}[i])
			})
	}
	// The span buffer's own size (rt.tracer is set after this runs, hence
	// the late reads); host-side like the turn counts, so not Traced.
	reg.Func("charm_host_trace_spans", "Spans buffered by the causal tracer.",
		obs.KindGauge, nil, func(int64) float64 { return float64(rt.tracer.SpanCount()) })
	reg.Func("charm_host_trace_chunks", "72 KiB span chunks held by the causal tracer, recycled ones included.",
		obs.KindGauge, nil, func(int64) float64 { _, c := rt.tracer.Size(); return float64(c) })
	reg.Func("charm_host_trace_compactions_total", "Tracer compactions that dropped released traces.",
		obs.KindCounter, nil, func(int64) float64 { return float64(rt.tracer.Compactions()) })
	reg.Func("charm_host_trace_dropped_total", "Spans dropped on a full tracer shard.",
		obs.KindCounter, nil, func(int64) float64 { return float64(rt.tracer.DroppedSpans()) })
	return m
}

// Metrics returns the runtime's metrics registry (disabled by default;
// see EnableMetrics).
func (rt *Runtime) Metrics() *obs.Registry { return rt.met.reg }

// EnableMetrics turns metric recording on or off. Enabling also starts
// virtual-time periodic sampling of traced metrics at the scheduler-timer
// interval, which feeds the Chrome trace's counter tracks and the JSON
// history.
func (rt *Runtime) EnableMetrics(on bool) {
	if on {
		rt.met.reg.EnableSampling(rt.opts.SchedulerTimer, 4096)
	} else {
		rt.met.reg.EnableSampling(0, 0)
	}
	rt.met.reg.SetEnabled(on)
	rt.ls.wake() // the sample horizon moved
}

// MetricsSnapshot merges every metric at the fleet's current maximum
// virtual time (so window-based occupancy gauges read the live window).
func (rt *Runtime) MetricsSnapshot() obs.Snapshot {
	now := rt.MaxWorkerClock()
	if p := rt.phase.Load(); p > now {
		now = p
	}
	return rt.met.reg.Snapshot(now)
}
