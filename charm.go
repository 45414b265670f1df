// Package charm is a Go reproduction of CHARM — the Chiplet
// Heterogeneity-Aware Runtime Mapping system (Fogli et al., EuroSys 2026).
//
// CHARM schedules fine-grained tasks on chiplet-based CPUs: it places
// worker threads with awareness of the partitioned L3 cache, adapts each
// worker's chiplet footprint (spread rate) to the observed remote-access
// rate, and runs tasks as lightweight coroutines that can suspend, migrate
// across chiplets, and resume.
//
// Because Go cannot pin threads to cores or read hardware PMUs portably,
// this implementation runs against a simulated chiplet machine
// (topology, partitioned caches, interconnect, NUMA memory, PMU counters)
// in virtual time; see DESIGN.md for the substitution argument. The
// runtime algorithms — the chiplet scheduling policy (Alg. 1), the
// collision-free location update (Alg. 2), chiplet-first work stealing,
// and the coroutine concurrency model — are implemented in full.
//
// Basic usage mirrors the paper's API:
//
//	rt, err := charm.Init(charm.Config{Workers: 8})
//	if err != nil { ... }
//	defer rt.Finalize()
//	data := rt.Alloc(1 << 20)
//	rt.AllDo(func(ctx *charm.Ctx) {
//	    ctx.Read(data, 1<<20)
//	    ctx.Yield() // cooperative scheduling + profiling point
//	})
package charm

import (
	"fmt"
	"io"
	"slices"
	"sync/atomic"

	"charm/internal/admit"
	"charm/internal/baselines"
	"charm/internal/core"
	"charm/internal/fabric"
	"charm/internal/fault"
	"charm/internal/mem"
	"charm/internal/obs"
	"charm/internal/pmu"
	"charm/internal/power"
	"charm/internal/sim"
	"charm/internal/tenant"
	"charm/internal/topology"
)

// Re-exported types. The simulation substrate lives in internal packages;
// these aliases form the public surface.
type (
	// Ctx is the execution context of a task: memory access, compute
	// charging, spawn, yield, call, and barrier primitives.
	Ctx = core.Ctx
	// Addr is a simulated memory address.
	Addr = mem.Addr
	// Stats summarizes one submission (makespan, tasks, steals, ...).
	Stats = core.Stats
	// Topology describes a machine layout.
	Topology = topology.Topology
	// CoreID, ChipletID and NodeID identify simulated hardware units.
	CoreID = topology.CoreID
	// ChipletID identifies a chiplet (CCD).
	ChipletID = topology.ChipletID
	// NodeID identifies a NUMA node.
	NodeID = topology.NodeID
	// Barrier synchronizes task groups (the barrier() primitive).
	Barrier = core.RtBarrier
	// Event identifies a simulated PMU counter.
	Event = pmu.Event
	// System names a runtime system (CHARM or a baseline).
	System = baselines.System
	// MemPolicy selects a NUMA allocation policy.
	MemPolicy = mem.Policy
	// FaultSchedule is a seeded list of fault-injection events (core and
	// chiplet offlining, link/memory brownouts, thermal throttling).
	FaultSchedule = fault.Schedule
	// TaskError is the typed, attributed failure a panicking task
	// propagates to its submitter (errors.As-compatible).
	TaskError = core.TaskError
	// JobSpec describes one open-loop job: a DAG of task stages with a
	// priority and a virtual-time deadline (see Runtime.SubmitJob).
	JobSpec = core.JobSpec
	// JobStage is one stage of a job: tasks that run in parallel.
	JobStage = core.JobStage
	// Job is a submitted job's handle (state, cancellation, completion).
	Job = core.Job
	// JobState is a job's lifecycle state.
	JobState = core.JobState
	// JobService is the open-loop admission/dispatch pipeline.
	JobService = core.JobService
	// JobServiceOptions configure Runtime.ServeJobs.
	JobServiceOptions = core.JobServiceOptions
	// JobStats is a job service's admission ledger.
	JobStats = core.JobStats
	// JobSource produces an open-loop arrival stream.
	JobSource = core.JobSource
	// SpecSource adapts an arrival process plus a spec generator into a
	// JobSource.
	SpecSource = core.SpecSource
	// AdmitPolicy selects the backpressure policy of a bounded admission
	// queue: Block, Reject, or Shed.
	AdmitPolicy = admit.Policy
	// JobPlacement selects dispatch placement for JobServiceOptions.
	JobPlacement = core.JobPlacement
	// TraceID identifies one causal job trace (the job's admission ID).
	TraceID = obs.TraceID
	// Span is one typed, virtual-time span event in a job trace.
	Span = obs.Span
	// SpanKind discriminates span event types (admit-queue, stage, task,
	// rehome, shed, breaker, ...).
	SpanKind = obs.SpanKind
	// Trace is one job's merged, canonically ordered span list.
	Trace = obs.Trace
	// Tracer is the sharded span buffer behind Runtime.EnableTracing.
	Tracer = obs.Tracer
	// Breakdown is a per-job critical-path latency attribution.
	Breakdown = obs.Breakdown
	// CritPathReport aggregates breakdowns into top-culprit tables.
	CritPathReport = obs.Report
	// SLOAlert is one burn-rate alert edge (fired or cleared).
	SLOAlert = obs.SLOAlert
	// SLOStatus is a point-in-time per-class error-budget reading.
	SLOStatus = obs.SLOStatus
	// PowerConfig parameterizes the closed-loop thermal/energy plane:
	// per-chiplet energy accounting, the RC thermal model, and the tiered
	// throttle/park governor (see Config.Power).
	PowerConfig = power.Config
	// PowerModel is one chiplet type's energy/thermal coefficients (the
	// per-chiplet-type energy table; PowerConfig.Models cycles them).
	PowerModel = power.Model
	// PowerSnapshot is a copy of the power plane's state at one governor
	// tick: per-chiplet temperatures, watts, energy ledgers, and governor
	// tier-entry counts.
	PowerSnapshot = power.Snapshot
	// PowerPlane is the live closed-loop governor (Runtime.Power).
	PowerPlane = power.Plane
	// TenantSpec is one tenant's admission contract on a multi-tenant job
	// service: fair-share weight, guaranteed chiplet quota, token-bucket
	// rate limit, and overflow policy (see ParseTenantSpec).
	TenantSpec = tenant.Spec
	// TenantConfig pairs a TenantSpec with the tenant's arrival source
	// for JobServiceOptions.Tenants.
	TenantConfig = core.TenantConfig
	// TenantStats is one tenant's admission and lease ledger.
	TenantStats = core.TenantStats
	// ChipletKind classifies a chiplet's compute character (fast,
	// efficient, accelerator); jobs declare a preferred kind via
	// JobSpec.Prefer and the dispatcher capability-matches it.
	ChipletKind = topology.ChipletKind
	// TopoSpec is a parsed topo-spec string (see Config.TopoSpec).
	TopoSpec = topology.TopoSpec
	// FabricLink describes one interconnect link for telemetry and
	// link-map rendering (Runtime.Machine().Fabric.Links()).
	FabricLink = fabric.LinkInfo
)

// Chiplet kinds for JobSpec.Prefer and topology construction. KindAny
// declares no preference.
const (
	KindAny       = topology.KindAny
	KindFast      = topology.KindFast
	KindEfficient = topology.KindEfficient
	KindAccel     = topology.KindAccel
)

// ParseTopoSpec parses a topo-spec string or preset name (Config.TopoSpec
// accepts the same grammar).
var ParseTopoSpec = topology.ParseTopoSpec

// SpecFabrics returns the interconnect fabric names the topo-spec grammar
// accepts.
var SpecFabrics = topology.SpecFabrics

// DefaultPowerModel returns the generic compute-chiplet energy model.
var DefaultPowerModel = power.DefaultModel

// ErrThermalConflict reports a configuration that combines static
// thermal-throttle fault events with the closed-loop power plane — the
// governor owns the thermal timeline, so the combination is ambiguous.
var ErrThermalConflict = fault.ErrThermalConflict

// AnalyzeTrace attributes one completed job trace's latency to queue,
// compute, and stall time (false when the job never dispatched).
var AnalyzeTrace = obs.Analyze

// BuildCritPathReport runs critical-path attribution over every trace in
// a tracer and aggregates the per-chiplet/stage/fault culprit tables.
var BuildCritPathReport = obs.BuildReport

// Dispatch placement strategies for JobServiceOptions.Placement.
const (
	// PlaceLoadAware co-locates each stage on the least-loaded live
	// chiplet group (the default).
	PlaceLoadAware = core.PlaceLoadAware
	// PlaceRoundRobin is the legacy blind worker rotation.
	PlaceRoundRobin = core.PlaceRoundRobin
)

// Admission policies for JobServiceOptions.Policy.
const (
	// AdmitBlock holds arrivals until queue space frees.
	AdmitBlock = admit.Block
	// AdmitReject refuses arrivals at a full queue with ErrQueueFull.
	AdmitReject = admit.Reject
	// AdmitShed drops the job with the least deadline slack — on arrival
	// when the arrival itself is hopeless, by eviction otherwise — and
	// re-checks budgets at dispatch.
	AdmitShed = admit.Shed
)

// Job lifecycle states.
const (
	JobQueued    = core.JobQueued
	JobRunning   = core.JobRunning
	JobCompleted = core.JobCompleted
	JobFailed    = core.JobFailed
	JobCancelled = core.JobCancelled
	JobRejected  = core.JobRejected
	JobShed      = core.JobShed
	JobExpired   = core.JobExpired
)

// Typed admission and lifecycle errors.
var (
	// ErrFinalized reports a submission that raced or followed Finalize.
	ErrFinalized = core.ErrFinalized
	// ErrQueueFull reports a Reject-policy refusal (or a Shed eviction
	// refusal) at a full admission queue.
	ErrQueueFull = admit.ErrQueueFull
	// ErrWouldBlock reports a Block-policy queue that cannot accept a
	// synchronous submission without waiting.
	ErrWouldBlock = admit.ErrWouldBlock
	// ErrHopeless reports a deadline-aware shed of an arrival whose
	// remaining budget is below its estimated service time.
	ErrHopeless = admit.ErrHopeless
	// ErrUnknownTenant reports a submission naming no configured tenant.
	ErrUnknownTenant = core.ErrUnknownTenant
	// ErrRateLimited reports a submission refused by its tenant's token
	// bucket.
	ErrRateLimited = core.ErrRateLimited
)

// ParseTenantSpec parses the tenant-spec grammar
// "[tenant:]name[,weight[,quota]][,key=value...]" (keys: weight, quota,
// gap, burst, queue, policy) into a TenantSpec; Spec.String round-trips
// the canonical form.
var ParseTenantSpec = tenant.ParseSpec

// NewPoissonArrivals builds a seeded open-loop Poisson arrival process of
// n arrivals with the given mean inter-arrival gap in virtual ns.
var NewPoissonArrivals = admit.NewPoisson

// NewTraceArrivals replays a fixed arrival-time sequence.
var NewTraceArrivals = admit.NewTrace

// NewDiurnalArrivals builds a seeded Poisson process whose rate swings
// sinusoidally around the mean gap with the given period and amplitude —
// the multi-tenant harness's daily-wave tenant.
var NewDiurnalArrivals = admit.NewDiurnal

// NewFlashCrowdArrivals builds a seeded Poisson process that multiplies
// its rate by factor inside a periodic burst window — the noisy-neighbor
// tenant of the isolation experiment.
var NewFlashCrowdArrivals = admit.NewFlashCrowd

// NewFaultSchedule starts an empty fault schedule; chain its builder
// methods (OfflineCore, LinkBrownout, ...) to populate it.
var NewFaultSchedule = fault.New

// ParseFaultSpec parses a named fault-scenario spec string (for example
// "chiplet-flap:seed=7,period=2000000" or "chaos") against a topology; see
// internal/fault for the grammar.
var ParseFaultSpec = fault.ParseSpec

// Systems available for Config.System: CHARM, the §5.1 NUMA-aware
// baselines, the std::async OS-thread baseline, and the placements and
// CHARM variants of the ablations (see internal/baselines).
const (
	SystemCHARM         = baselines.CHARM
	SystemRING          = baselines.RING
	SystemSHOAL         = baselines.SHOAL
	SystemAsymSched     = baselines.AsymSched
	SystemSAM           = baselines.SAM
	SystemOSAsync       = baselines.OSAsync
	SystemNaive         = baselines.Naive
	SystemStaticCompact = baselines.StaticCompact
	SystemCHARMSeqSteal = baselines.CHARMSeqSteal
)

// Memory policies for AllocPolicy.
const (
	Bind       = mem.Bind
	Interleave = mem.Interleave
	FirstTouch = mem.FirstTouch
)

// Topology presets.
var (
	// AMDMilan returns the paper's primary testbed topology.
	AMDMilan = topology.AMDMilan7713x2
	// IntelSPR returns the paper's secondary testbed topology.
	IntelSPR = topology.IntelSPR8488Cx2
	// SmallTopology returns a small single-socket machine for
	// experimentation and tests.
	SmallTopology = func() *Topology { return topology.Synthetic(4, 4) }
)

// Config parameterizes Init.
type Config struct {
	// Topology selects the simulated machine; nil uses the AMD EPYC
	// Milan preset.
	Topology *Topology
	// TopoSpec builds the machine from the topo-spec grammar instead
	// (e.g. "mesh:4x2,fast=2,eff=4,accel=2" or a preset name like
	// "het-mesh"; see topology.ParseTopoSpec). It selects both the
	// chiplet layout/kinds and the interconnect fabric; without it the
	// machine keeps the original hub-and-spoke (star) fabric. Mutually
	// exclusive with Topology.
	TopoSpec string
	// CacheScale divides all cache capacities by this factor so scaled
	// workloads preserve working-set-to-cache ratios (0 or 1 = full size).
	CacheScale int64
	// Workers is the number of worker threads (required).
	Workers int
	// System selects the runtime system — CHARM, a baseline, or an
	// ablation variant; empty selects CHARM.
	System System
	// SampleShift simulates 1/2^SampleShift of cache lines exactly
	// (0 = exact simulation; 4-6 recommended for large workloads).
	SampleShift uint
	// SchedulerTimer overrides the Alg. 1 decision interval (virtual ns).
	SchedulerTimer int64
	// RemoteFillThreshold overrides RMT_CHIP_ACCESS_RATE (events per
	// timer interval).
	RemoteFillThreshold int64
	// UseSMT permits up to SMTWays workers per physical core. CHARM
	// itself never co-schedules hyperthread siblings (§4.6); the knob
	// exists for baselines and the SMT ablation.
	UseSMT bool
	// MLP overrides the machine's memory-level parallelism for contiguous
	// accesses (0 = default 8; 1 serializes every miss — the cost-model
	// ablation in DESIGN.md).
	MLP int64
	// Faults injects a fault schedule: the machine's links and memory
	// channels degrade per the compiled plan, and workers on offlined
	// cores drain their queues and re-home or park (see internal/fault).
	// Build one with NewFaultSchedule, or from a named scenario string
	// (e.g. "chiplet-flap:seed=7" or "chaos") with ParseFaultSpec. A
	// schedule with static thermal-throttle events cannot be combined
	// with Power (ErrThermalConflict).
	Faults *FaultSchedule
	// Power enables the closed-loop thermal/energy plane: PMU-driven
	// per-chiplet energy accounting, an RC thermal model advanced in
	// virtual time, and a governor that throttles (and in emergencies
	// parks) chiplets through the fault plan's dynamic overlay. A non-nil
	// zero value selects all defaults. This is the plane's only
	// configuration; it is mutually exclusive with static
	// thermal-throttle fault events.
	Power *PowerConfig
	// Deterministic serializes workers in virtual-clock lockstep: two
	// runs with identical seeds and schedules produce bit-identical
	// results, at the price of host parallelism. Every first-party
	// runtime sets it (the harness, charm-obs, the tests and the
	// examples) except bench's graph-free workload, the smoke test that
	// mirrors it and the recorded benchmarks; the free-running engine
	// goes once those move (ROADMAP 1(d)).
	Deterministic bool
}

// validate rejects an unknown System and malformed numeric knobs with
// errors (a library must not panic on bad configuration). Fault-schedule
// factors are validated by the schedule compiler, which rejects NaN,
// infinite, and sub-unity factors.
func (cfg *Config) validate() error {
	if cfg.Workers <= 0 {
		return fmt.Errorf("charm: Workers must be positive, got %d", cfg.Workers)
	}
	if cfg.System != "" && !slices.Contains(baselines.Systems, cfg.System) {
		return fmt.Errorf("charm: unknown System %q", cfg.System)
	}
	for _, k := range []struct {
		name string
		v    int64
	}{
		{"CacheScale", cfg.CacheScale},
		{"SchedulerTimer", cfg.SchedulerTimer},
		{"RemoteFillThreshold", cfg.RemoteFillThreshold},
		{"MLP", cfg.MLP},
	} {
		if k.v < 0 {
			return fmt.Errorf("charm: %s must be non-negative, got %d", k.name, k.v)
		}
	}
	if cfg.SampleShift > 30 {
		return fmt.Errorf("charm: SampleShift %d leaves no sampled lines", cfg.SampleShift)
	}
	if cfg.Power != nil {
		if err := cfg.Power.Validate(); err != nil {
			return fmt.Errorf("charm: %w", err)
		}
	}
	return nil
}

// MetricsSnapshot is a point-in-time merge of every registered metric.
type MetricsSnapshot = obs.Snapshot

// Runtime is an initialized CHARM runtime bound to one simulated machine.
type Runtime struct {
	rt *core.Runtime
	m  *sim.Machine
	// onFinalize runs at the start of Finalize, while metrics and the
	// profiler are still live (the harness uses it to capture snapshots).
	onFinalize func(*Runtime)
	// finalized makes Finalize idempotent: exactly one caller runs the
	// hook and stops the runtime; the rest return immediately.
	finalized atomic.Bool
}

// Init validates the configuration, builds the simulated machine and the
// runtime, and starts the workers — the CHARM_Init() of the paper's API.
func Init(cfg Config) (*Runtime, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	topo := cfg.Topology
	var fabKind fabric.Kind // the zero Kind is the star fabric
	if cfg.TopoSpec != "" {
		if topo != nil {
			return nil, fmt.Errorf("charm: Topology and TopoSpec are mutually exclusive")
		}
		sp, err := topology.ParseTopoSpec(cfg.TopoSpec)
		if err != nil {
			return nil, fmt.Errorf("charm: %w", err)
		}
		if topo, err = sp.Build(); err != nil {
			return nil, fmt.Errorf("charm: %w", err)
		}
		if fabKind, err = fabric.ParseKind(sp.Fabric); err != nil {
			return nil, fmt.Errorf("charm: %w", err)
		}
	}
	if topo == nil {
		topo = topology.AMDMilan7713x2()
	}
	if cfg.CacheScale > 1 {
		topo = topo.Scaled(cfg.CacheScale)
	}
	if err := topo.Validate(); err != nil {
		return nil, fmt.Errorf("charm: %w", err)
	}
	system := cfg.System
	if system == "" {
		system = baselines.CHARM
	}
	limit := topo.NumCores()
	if cfg.UseSMT {
		limit = topo.NumThreads()
	}
	if system != baselines.OSAsync && cfg.Workers > limit {
		return nil, fmt.Errorf("charm: %d workers exceed the machine's %d schedulable units", cfg.Workers, limit)
	}
	var plan *fault.Plan
	if cfg.Faults != nil {
		var err error
		if plan, err = cfg.Faults.Compile(topo); err != nil {
			return nil, fmt.Errorf("charm: %w", err)
		}
	}
	// The power plane must not meet static thermal-throttle events; refuse
	// them here so NewRuntime, whose plane construction checks the same
	// rule, never panics on a configuration.
	if cfg.Power != nil && plan != nil {
		for _, e := range plan.Events() {
			if e.Kind == fault.ThermalThrottle {
				return nil, fmt.Errorf("charm: %w", fault.ErrThermalConflict)
			}
		}
	}
	m := sim.New(sim.Config{Topo: topo, Fabric: fabKind, SampleShift: cfg.SampleShift, MLP: cfg.MLP})
	// RemoteFillThreshold only parameterizes CharmPolicy's Alg. 1, and
	// UseSMT only the non-oversubscribed worker limit: on the systems that
	// read neither they are inert.
	opts := core.Options{
		Workers:             cfg.Workers,
		SchedulerTimer:      cfg.SchedulerTimer,
		RemoteFillThreshold: cfg.RemoteFillThreshold,
		UseSMT:              cfg.UseSMT,
		Faults:              plan,
		Power:               cfg.Power,
		Deterministic:       cfg.Deterministic,
	}
	system.Configure(m, &opts)
	rt := core.NewRuntime(m, opts)
	rt.Start()
	return &Runtime{rt: rt, m: m}, nil
}

// Finalize stops the runtime — the CHARM_Finalize() of the paper's API.
// Finalize is idempotent and safe to race with submissions: the first call
// wins, waits for in-flight Run/SubmitJob calls to complete, and stops the
// workers; every later submission fails with ErrFinalized (returned by
// SubmitJob, panicked by Run and friends).
func (r *Runtime) Finalize() {
	if !r.finalized.CompareAndSwap(false, true) {
		return
	}
	if r.onFinalize != nil {
		r.onFinalize(r)
		r.onFinalize = nil
	}
	r.rt.Stop()
}

// SetFinalizeHook registers fn to run once at the start of Finalize,
// before the workers stop (observability capture point).
func (r *Runtime) SetFinalizeHook(fn func(*Runtime)) { r.onFinalize = fn }

// Run executes fn as a root task and waits for it and all tasks it spawned.
func (r *Runtime) Run(fn func(*Ctx)) Stats { return r.rt.Run(fn) }

// ServeJobs installs the open-loop job service: jobs admitted through a
// bounded queue under the configured backpressure policy, dispatched while
// the machine runs, optionally driven by a seeded arrival source and
// guarded by per-chiplet circuit breakers. At most one service per
// runtime. On a started Deterministic runtime install with
// ServeJobsFromTask instead, or the first arrivals are not part of the
// replay.
func (r *Runtime) ServeJobs(opts JobServiceOptions) (*JobService, error) {
	return r.rt.ServeJobs(opts)
}

// ServeJobsFromTask is ServeJobs called from inside a root task. ServeJobs
// publishes the service without stopping the lockstep fleet, so from outside
// a task the rotation the service starts from depends on how many idle turns
// the host ran since Init; a task holds the turn. Not for use inside a task
// (a nested Run never returns).
func (r *Runtime) ServeJobsFromTask(opts JobServiceOptions) (svc *JobService, err error) {
	r.Run(func(*Ctx) { svc, err = r.rt.ServeJobs(opts) })
	return svc, err
}

// SubmitJob submits one job through the admission pipeline (installing a
// default Reject-policy service on first use). The returned handle tracks
// the job's lifecycle; the error, if non-nil, is the typed admission
// refusal (ErrQueueFull, ErrWouldBlock, ErrHopeless) or ErrFinalized.
func (r *Runtime) SubmitJob(spec JobSpec) (*Job, error) {
	return r.rt.SubmitJob(spec)
}

// JobServer returns the installed job service, or nil.
func (r *Runtime) JobServer() *JobService { return r.rt.JobServer() }

// AllDo runs fn once on every worker and waits — the all_do() primitive.
func (r *Runtime) AllDo(fn func(*Ctx)) Stats { return r.rt.AllDo(fn) }

// AllDoCo runs fn as a suspendable coroutine once per worker.
func (r *Runtime) AllDoCo(fn func(*Ctx)) Stats { return r.rt.AllDoCo(fn) }

// ParallelFor executes body over [lo,hi) in chunks of grain iterations.
func (r *Runtime) ParallelFor(lo, hi, grain int, body func(ctx *Ctx, i0, i1 int)) Stats {
	return r.rt.ParallelFor(lo, hi, grain, body)
}

// NewBarrier creates a reusable barrier for n parties.
func (r *Runtime) NewBarrier(n int) *Barrier { return r.rt.NewBarrier(n) }

// Alloc reserves simulated memory on NUMA node 0.
func (r *Runtime) Alloc(size int64) Addr { return r.rt.Alloc(size, 0) }

// AllocOn reserves simulated memory bound to a NUMA node.
func (r *Runtime) AllocOn(size int64, node NodeID) Addr { return r.rt.Alloc(size, node) }

// AllocPolicy reserves simulated memory under an explicit policy.
func (r *Runtime) AllocPolicy(size int64, p MemPolicy, node NodeID) Addr {
	return r.rt.AllocPolicy(size, p, node)
}

// Free releases a simulated allocation.
func (r *Runtime) Free(a Addr) { r.m.Space.Free(a) }

// Workers returns the worker count.
func (r *Runtime) Workers() int { return r.rt.Workers() }

// Topology returns the simulated machine's layout.
func (r *Runtime) Topology() *Topology { return r.m.Topo }

// Now returns the current virtual time (ns since Init).
func (r *Runtime) Now() int64 { return r.rt.Now() }

// Counter sums a PMU counter over all cores.
func (r *Runtime) Counter(e Event) int64 { return r.m.PMU.Total(e) }

// CounterOf reads a PMU counter of one core.
func (r *Runtime) CounterOf(c CoreID, e Event) int64 { return r.m.PMU.Read(int(c), e) }

// SpreadRate returns worker w's current Alg. 1 spread rate.
func (r *Runtime) SpreadRate(w int) int { return r.rt.Worker(w).SpreadRate() }

// CoreOfWorker reports worker w's current core.
func (r *Runtime) CoreOfWorker(w int) CoreID { return r.rt.CoreOfWorker(w) }

// LiveTasks returns the instantaneous live-task count (Fig. 12's metric).
func (r *Runtime) LiveTasks() int64 { return r.rt.LiveTasks() }

// OwnerOf returns the worker owning addr under the delegation model
// (a worker co-located with the data's home NUMA node; see Ctx.Delegate).
func (r *Runtime) OwnerOf(addr Addr) int { return r.rt.OwnerOf(addr) }

// EnableProfiler turns the profile on or off: while enabled, every task's
// lifecycle, the Alg. 1 spread_rate and fill-rate samples, and the
// migration and fault instants are recorded into the same tracer that
// EnableTracing gates for jobs (WriteChromeTrace renders them).
func (r *Runtime) EnableProfiler(on bool) { r.rt.EnableProfiler(on) }

// EnableTracing turns causal job tracing on or off. While enabled, every
// job admitted through the service emits typed spans (admit-queue wait,
// per-stage execution, per-task exec/stall, retries, re-homes, terminal
// events) into a per-worker sharded buffer in virtual time; breaker
// transitions and SLO alert edges land as runtime-scoped spans. With it and
// the profiler off, a would-be emission costs at most two atomic loads.
func (r *Runtime) EnableTracing(on bool) { r.rt.EnableTracing(on) }

// Tracer exposes the runtime's span tracer for trace export
// (Tracer.WriteJSON), per-job lookup (Tracer.TraceOf), and critical-path
// attribution (BuildCritPathReport).
func (r *Runtime) Tracer() *Tracer { return r.rt.Tracer() }

// EnableMetrics turns the virtual-time metrics registry on or off. The
// registry covers every layer: task lifecycle counters and latency
// histograms, fabric link occupancy, memory channel bandwidth, per-chiplet
// L3 hit/evict rates, and the simulated PMU events.
func (r *Runtime) EnableMetrics(on bool) { r.rt.EnableMetrics(on) }

// MetricsRegistry exposes the runtime's metrics registry for custom
// instrumentation or exporters.
func (r *Runtime) MetricsRegistry() *obs.Registry { return r.rt.Metrics() }

// TurnStats counts a Deterministic runtime's lockstep grants by how the
// turn was delivered (woke a goroutine, idle turn played inline, came
// straight back). Host-paced: not part of any replay.
type TurnStats = core.TurnStats

// TurnStats returns the lockstep grant counts so far (zero when
// free-running).
func (r *Runtime) TurnStats() TurnStats { return r.rt.TurnStats() }

// MetricsSnapshot merges all metric shards at the current virtual time.
func (r *Runtime) MetricsSnapshot() MetricsSnapshot { return r.rt.MetricsSnapshot() }

// WriteMetricsPrometheus writes the current metrics snapshot in Prometheus
// text exposition format.
func (r *Runtime) WriteMetricsPrometheus(w io.Writer) error {
	return obs.WritePrometheus(w, r.rt.MetricsSnapshot())
}

// WriteMetricsJSON writes the current metrics snapshot — including the
// sampled time-series history of traced metrics — as indented JSON.
func (r *Runtime) WriteMetricsJSON(w io.Writer) error {
	return obs.WriteJSON(w, r.rt.MetricsSnapshot(), r.rt.Metrics().History())
}

// WriteChromeTrace exports the tracer's record (task-lifecycle spans,
// Alg. 1 counter tracks, migration and fault instants, breaker and SLO
// alert edges) and the traced metric history as a Chrome trace-event JSON
// document; see core.Runtime.WriteChromeTrace.
func (r *Runtime) WriteChromeTrace(w io.Writer) error {
	return r.rt.WriteChromeTrace(w)
}

// Power returns the closed-loop thermal/energy plane, or nil when
// Config.Power (and any "power" fault scenario) was absent. Query its
// Stats for per-chiplet temperatures, watts, energy ledgers, and governor
// tier-entry counts.
func (r *Runtime) Power() *PowerPlane { return r.rt.Power() }

// Engine exposes the underlying runtime for advanced integrations
// (the harness and the workload drivers use it).
func (r *Runtime) Engine() *core.Runtime { return r.rt }

// Machine exposes the simulated machine.
func (r *Runtime) Machine() *sim.Machine { return r.m }

// PMU events re-exported for metric queries.
const (
	FillL2             = pmu.FillL2
	FillL3Local        = pmu.FillL3Local
	FillL3RemoteNear   = pmu.FillL3RemoteNear
	FillL3RemoteFar    = pmu.FillL3RemoteFar
	FillL3RemoteSocket = pmu.FillL3RemoteSocket
	FillDRAMLocal      = pmu.FillDRAMLocal
	FillDRAMRemote     = pmu.FillDRAMRemote
	TaskRun            = pmu.TaskRun
	TaskSteal          = pmu.TaskSteal
	StealRemoteChiplet = pmu.StealRemoteChiplet
	Migration          = pmu.Migration
	CtxSwitch          = pmu.CtxSwitch
	BytesRead          = pmu.BytesRead
	BytesWritten       = pmu.BytesWritten
	ComputeNS          = pmu.ComputeNS
)
