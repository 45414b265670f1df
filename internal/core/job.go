package core

import (
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"

	"charm/internal/admit"
	"charm/internal/obs"
	"charm/internal/place"
	"charm/internal/tenant"
	"charm/internal/topology"
)

// This file implements the open-loop job service: jobs — multi-stage
// groups of tasks with a priority and a virtual-time deadline — arrive
// from seeded arrival sources (or external SubmitJob calls) while the
// machine runs, pass their tenant's bounded admission queue with a
// pluggable backpressure policy (block / reject / deadline-aware shed),
// and are dispatched through the placement decision plane
// (internal/place): each stage is co-located on the least-loaded live
// chiplet group whose breaker admits it, with a legacy round-robin mode
// kept as the comparison baseline. There is one pump for every service:
// admission, evaluation, deficit-round-robin dispatch and re-admission run
// over the tenant list in tenants.go, and a service configured without
// Tenants is that list at length one (see setupTenants). Cancellation is
// cooperative:
// a cancelled job's queued tasks are discarded wherever a worker finds
// them (deque, inbox, fault drain), and its running coroutines
// unwind at their next Yield point, so a dead job never consumes a fresh
// coroutine stack.
//
// Determinism: all admission, dispatch, and breaker state lives behind
// svc.mu, and every mutation happens inside a worker's scheduling step.
// Under deterministic lockstep those steps are serialized by the turn
// baton in virtual-clock order, so the whole open-loop run — arrivals
// included — is a pure function of the seeds. (External SubmitJob calls
// pause the fleet like submitWait, but their timing depends on the host;
// deterministic experiments drive arrivals from a Source instead.)

// JobStage is one stage of a job: a set of tasks that run in parallel.
// Stages execute in order; stage k+1 starts when every task of stage k
// (and everything those tasks spawned) has finished — a simple series-
// parallel DAG, which is what the paper's workloads are built from.
type JobStage []func(*Ctx)

// JobSpec describes one job submitted to the open-loop service.
type JobSpec struct {
	// Name labels the job in traces (optional).
	Name string
	// Priority orders admission and dispatch: higher runs first.
	Priority int
	// Deadline is the job's latency budget in virtual ns relative to its
	// arrival (0 = no deadline).
	Deadline int64
	// Cost is the caller's estimate of the job's total service time in
	// virtual ns; used by deadline-aware shedding until the service-time
	// estimator has enough completed-job samples.
	Cost int64
	// Coro runs the job's tasks as suspendable coroutines (cancellation
	// points at every Yield).
	Coro bool
	// Tenant routes the job to one of JobServiceOptions.Tenants by name
	// (empty selects the first; an unknown name is ErrUnknownTenant).
	// Ignored on a service configured without Tenants.
	Tenant string
	// Prefer is the preferred chiplet kind for the job's stages on a
	// heterogeneous machine (zero = KindAny = no preference). It is a
	// soft preference: matching-kind chiplets are tried first in the
	// placement walk, but dispatch falls back to any kind rather than
	// queueing — capability matching must never starve a job.
	Prefer topology.ChipletKind
	// Stages are the job's task stages, run in order.
	Stages []JobStage
}

// JobState is a job's lifecycle state.
type JobState int32

const (
	// JobQueued: admitted, waiting for dispatch.
	JobQueued JobState = iota
	// JobRunning: dispatched, tasks executing.
	JobRunning
	// JobCompleted: all stages finished.
	JobCompleted
	// JobFailed: a task panicked.
	JobFailed
	// JobCancelled: cancelled before completion.
	JobCancelled
	// JobRejected: refused at admission (queue full, Reject policy).
	JobRejected
	// JobShed: dropped by deadline-aware shedding (hopeless budget or
	// evicted for a more viable arrival).
	JobShed
	// JobExpired: deadline passed while queued (dispatch-time check).
	JobExpired
)

// String names the state.
func (s JobState) String() string {
	switch s {
	case JobQueued:
		return "queued"
	case JobRunning:
		return "running"
	case JobCompleted:
		return "completed"
	case JobFailed:
		return "failed"
	case JobCancelled:
		return "cancelled"
	case JobRejected:
		return "rejected"
	case JobShed:
		return "shed"
	case JobExpired:
		return "expired"
	}
	return fmt.Sprintf("JobState(%d)", int32(s))
}

// terminal reports whether the state is final.
func (s JobState) terminal() bool { return s != JobQueued && s != JobRunning }

// Job is a submitted job's handle.
type Job struct {
	id   uint64
	spec JobSpec
	svc  *JobService

	state     atomic.Int32
	cancelled atomic.Bool

	arrival  int64        // virtual arrival time
	deadline int64        // absolute deadline (0 = none)
	started  int64        // dispatch time (set before state flips to Running)
	finished atomic.Int64 // completion time (any terminal state)
	stage    int          // next stage to dispatch; guarded by svc.mu
	ten      int          // index into svc.tens

	// Trace bookkeeping for the currently running stage (guarded by
	// svc.mu): dispatch time, index, and task count — the SpanStage
	// emitted when the stage's barrier releases.
	stageStart int64
	curStage   int32
	stageTasks int64

	// grp counts the running stage's tasks (guarded by svc.mu). It is
	// carved at the first dispatch, so a job refused at admission has none,
	// and serves every stage: the stage that released it has no task left
	// to read it when dispatchStageLocked rearms it for the next.
	grp *group

	err atomic.Pointer[TaskError]
	// done is made by the first Done call and closed by finalizeLocked, or
	// at once when the job had already ended; nil while nobody has asked
	// (guarded by svc.mu).
	done chan struct{}
}

// ID returns the job's service-wide sequence number.
func (j *Job) ID() uint64 { return j.id }

// Name returns the spec's label.
func (j *Job) Name() string { return j.spec.Name }

// Spec returns a copy of the job's submitted spec (stage slices shared).
func (j *Job) Spec() JobSpec { return j.spec }

// Priority returns the job's priority.
func (j *Job) Priority() int { return j.spec.Priority }

// State returns the job's current lifecycle state.
func (j *Job) State() JobState { return JobState(j.state.Load()) }

// Tenant returns the owning tenant's name ("" on a service configured
// without Tenants).
func (j *Job) Tenant() string { return j.svc.tens[j.ten].spec.Name }

// Arrival returns the virtual arrival time.
func (j *Job) Arrival() int64 { return j.arrival }

// Deadline returns the absolute virtual-time deadline (0 = none).
func (j *Job) Deadline() int64 { return j.deadline }

// Finished returns the virtual time the job reached a terminal state
// (0 while still queued or running).
func (j *Job) Finished() int64 { return j.finished.Load() }

// Latency returns arrival→finish in virtual ns (0 until terminal).
func (j *Job) Latency() int64 {
	if f := j.finished.Load(); f > 0 {
		return f - j.arrival
	}
	return 0
}

// MetDeadline reports whether the job completed within its deadline.
// Deadline-free jobs meet trivially when completed.
func (j *Job) MetDeadline() bool {
	if JobState(j.state.Load()) != JobCompleted {
		return false
	}
	return j.deadline == 0 || j.finished.Load() <= j.deadline
}

// Done returns a channel closed when the job reaches a terminal state.
// The channel is made on the first call, so a job nobody waits on never
// has one; made for a job already terminal, it comes back closed.
func (j *Job) Done() <-chan struct{} {
	s := j.svc
	s.mu.Lock()
	if j.done == nil {
		j.done = make(chan struct{})
		if JobState(j.state.Load()).terminal() {
			close(j.done)
		}
	}
	ch := j.done
	s.mu.Unlock()
	return ch
}

// Err returns the task failure that terminated the job (nil otherwise).
func (j *Job) Err() error {
	if e := j.err.Load(); e != nil {
		return e
	}
	return nil
}

// Cancel requests cooperative cancellation: queued tasks are discarded
// where workers find them, running coroutines unwind at their next Yield,
// and re-homing drops the job's tasks instead of re-queueing them.
// Safe to call from any goroutine and idempotent; cancelling a terminal
// job is a no-op.
func (j *Job) Cancel() { j.cancelled.Store(true) }

// JobSource produces the open-loop arrival stream: successive (arrival
// time, spec) pairs in non-decreasing virtual time. Next is called by the
// service with its lock held; implementations must be single-threaded and
// deterministic (seeded).
type JobSource interface {
	Next() (at int64, spec JobSpec, ok bool)
}

// SpecSource adapts an admit.ArrivalProcess plus a spec generator into a
// JobSource — the usual way to build a seeded Poisson or trace workload.
type SpecSource struct {
	// Arrivals yields the arrival times.
	Arrivals admit.ArrivalProcess
	// Gen builds the i-th job's spec (i counts from 0).
	Gen func(i int) JobSpec
	n   int
}

// Next implements JobSource.
func (s *SpecSource) Next() (int64, JobSpec, bool) {
	at, ok := s.Arrivals.Next()
	if !ok {
		return 0, JobSpec{}, false
	}
	spec := s.Gen(s.n)
	s.n++
	return at, spec, true
}

// JobPlacement selects how dispatch maps a stage's tasks onto workers.
type JobPlacement uint8

const (
	// PlaceLoadAware (the default) co-locates each stage's tasks on the
	// least-loaded live chiplet group whose breaker admits them: locality
	// for the stage's shared data, load balance across stages.
	PlaceLoadAware JobPlacement = iota
	// PlaceRoundRobin is the legacy blind rotation over workers, skipping
	// offlined cores and refused chiplets — kept as the comparison
	// baseline for the overload experiment.
	PlaceRoundRobin
)

// JobServiceOptions configure ServeJobs.
type JobServiceOptions struct {
	// QueueCapacity bounds the admission queue (0 = 1024).
	QueueCapacity int
	// MaxInFlight bounds concurrently running jobs (0 = 2×workers).
	MaxInFlight int
	// Policy selects the backpressure policy for a full queue (and, for
	// Shed, deadline-aware dropping). Default admit.Block.
	Policy admit.Policy
	// Source is the open-loop arrival stream (nil = external SubmitJob
	// only).
	Source JobSource
	// Breakers enables per-chiplet circuit breakers (trip at 2.5×
	// slowdown, heal below 1.4×, re-probe after 2ms of virtual time).
	Breakers bool
	// EvalInterval is the breaker/telemetry evaluation period in virtual
	// ns (0 = the runtime's scheduler timer).
	EvalInterval int64
	// Placement selects the dispatch placement strategy (default
	// PlaceLoadAware).
	Placement JobPlacement
	// SLO declares per-priority-class availability objectives: class →
	// target fraction of jobs completing within their deadline (e.g.
	// 0.95), strictly inside (0, 1). Non-empty enables the burn-rate
	// tracker; alert edges surface in metrics, the Chrome trace, and the
	// span stream.
	SLO map[int]float64
	// Tenants declares the service's tenants: one admission queue, token
	// bucket, and service-time estimator each, a deficit-round-robin
	// dispatch mux weighted by each tenant's share, and elastic
	// chiplet-group leases with a guaranteed quota floor. Mutually
	// exclusive with Source (each tenant carries its own); tenant quotas
	// must not oversubscribe the machine's chiplets. Empty means one
	// unnamed tenant built from Policy, QueueCapacity and Source, with no
	// rate limit, no leases and no per-tenant metrics.
	Tenants []TenantConfig
}

// JobStats summarizes a service's admission ledger.
type JobStats struct {
	// Submitted counts every arrival presented to admission.
	Submitted int64
	// Admitted entered the queue (including later-evicted entries).
	Admitted int64
	// Completed ran all stages; Met completed within their deadline.
	Completed int64
	Met       int64
	// Rejected were refused with ErrQueueFull/ErrWouldBlock; Shed were
	// dropped by deadline-aware shedding (hopeless or evicted); Expired
	// timed out in the queue; Cancelled and Failed terminated abnormally
	// after admission.
	Rejected  int64
	Shed      int64
	Expired   int64
	Cancelled int64
	Failed    int64
	// TasksCancelled counts individual tasks discarded by cancellation.
	TasksCancelled int64
	// BreakerTrips counts breaker Closed→Open transitions; BreakersOpen
	// is the current not-Closed count.
	BreakerTrips int64
	BreakersOpen int
	// MaxQueue is the admission queue's high-water mark.
	MaxQueue int
}

// JobService runs the open-loop admission/dispatch pipeline of one
// runtime. Obtain one with Runtime.ServeJobs.
type JobService struct {
	rt   *Runtime
	opts JobServiceOptions

	// nextWork is the earliest virtual time the pump could have work to
	// do (math.MaxInt64 = wait for a completion event). Read lock-free by
	// every worker step; written under mu.
	nextWork atomic.Int64

	mu  sync.Mutex
	brk *admit.Set // nil when breakers are off

	seq       uint64
	rr        int // round-robin dispatch cursor
	inflight  int
	lastEval  int64
	drainOnce sync.Once
	drained   chan struct{}
	stats     JobStats
	maxDepth  []int64 // per-chiplet queue-depth high-water mark
	jobs      []*Job
	// Service-owned storage (see slab): every Job, and the stage group of
	// every dispatched one.
	jobSlab slab[Job]
	grpSlab slab[group]
	// spare holds finished tasks spilled from the free lists of workers
	// that finish stages (spillLocked), for dispatchers whose lists run dry.
	spare []*Task

	latByPrio map[int]*obs.Histogram
	qwByPrio  map[int]*obs.Histogram // charm_admit_queue_wait_ns{priority}
	// SLO burn-rate state (nil without declared objectives). Driven
	// entirely under mu in virtual-time order.
	slo       *obs.SLOTracker
	sloCnt    map[int]*obs.Counter // charm_slo_alerts_total{class}
	sloBurn   map[int]*obs.Gauge   // charm_slo_fast_burn_milli{class}
	trShard   int                  // tracer shard for mu-serialized emissions
	tasksCanc atomic.Int64         // cancelled-task count (updated off-lock)
	chExecSum []atomic.Int64       // per-chiplet job-task exec time
	chExecCnt []atomic.Int64
	lastChSum []int64 // previous eval snapshots (window deltas)
	lastChCnt []int64
	// obsMilli is the last evaluation window's observed per-chiplet
	// slowdown, fed to dispatch views; rewritten in place at each eval.
	obsMilli   []int64
	everServed bool

	// Dispatch scratch, rebuilt under mu for every placement decision and
	// never kept past it: the snapshot and the view built from it
	// (viewLocked), and placeStageLocked's chiplet order, candidate
	// workers and targets.
	snap          place.Snapshot
	view          place.View
	chs           []topology.ChipletID
	cand, targets []int
	// Evaluation scratch, sized by ServeJobs and rewritten under mu at every
	// evaluation tick: evalLocked's per-chiplet queue depths and thermal
	// forecast, and evalLeasesLocked's live chiplets and demanding tenants.
	depth, forecast []int64
	live, demand    []bool

	// Tenants, in configuration order, and the dispatch mux over their
	// queues (immutable after ServeJobs, contents guarded by mu). tenIdx
	// and leases are nil on a service configured without Tenants, whose
	// one tenant is unnamed: leases != nil is what turns on lease
	// arbitration, the lease-restricted placement walk, the steal fence
	// and the Tenant* accessors.
	tens   []*tenantRt
	tenIdx map[string]int
	drr    *tenant.DRR
	leases *tenant.LeaseTable
	// leaseView is the lock-free chiplet→tenant ownership snapshot the
	// steal path consults (republished after every Rebalance): a worker
	// on a chiplet leased to one tenant does not import another tenant's
	// queued tasks, so a flooding neighbor's backlog stays on its own
	// lease instead of riding work stealing across the fence.
	leaseView atomic.Pointer[[]int32]
	// thermMilli inflates Shed-policy service-time estimates when the
	// power plane's temperature forecast predicts chiplets crossing the
	// soft setpoint (1000 = no inflation): jobs that would complete only
	// at pre-throttle speed are shed before the cliff, not after.
	thermMilli int64
}

// ServeJobs installs an open-loop job service on the runtime. At most one
// service per runtime; a second call returns an error. May be called
// before or after Start, but not after Stop. It does not stop a running
// Deterministic fleet (a pause here would deadlock a caller that holds the
// turn), so for a replayable run call it from inside a root task, or before
// Start: from outside, the rotation the first arrivals meet is the host's.
func (rt *Runtime) ServeJobs(opts JobServiceOptions) (*JobService, error) {
	if rt.lifecycle.Load() == lcStopped {
		return nil, ErrFinalized
	}
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if opts.QueueCapacity <= 0 {
		opts.QueueCapacity = 1024
	}
	if opts.MaxInFlight <= 0 {
		opts.MaxInFlight = 2 * len(rt.workers)
	}
	if opts.EvalInterval <= 0 {
		opts.EvalInterval = rt.opts.SchedulerTimer
	}
	nch := rt.M.Topo.NumChiplets()
	s := &JobService{
		rt:        rt,
		opts:      opts,
		drained:   make(chan struct{}),
		maxDepth:  make([]int64, nch),
		latByPrio: map[int]*obs.Histogram{},
		qwByPrio:  map[int]*obs.Histogram{},
		chExecSum: make([]atomic.Int64, nch),
		chExecCnt: make([]atomic.Int64, nch),
		lastChSum: make([]int64, nch),
		lastChCnt: make([]int64, nch),
		depth:     make([]int64, nch),
		forecast:  make([]int64, nch),
		live:      make([]bool, nch),
		trShard:   rt.trShard(),
	}
	if opts.Breakers {
		s.brk = admit.NewSet(nch)
		// Breaker flaps go on the trace timeline: a typed instant span per
		// transition, emitted under svc.mu (EvalPlan's caller).
		s.brk.OnTransition = func(ch int, now int64, from, to admit.BreakerState) {
			if tr := rt.tracer; tr.Enabled() {
				tr.Emit(s.trShard, obs.Span{Kind: obs.SpanBreaker,
					Start: now, End: now, Chiplet: int32(ch),
					Arg: int64(to), Arg2: int64(from)})
			}
		}
	}
	if len(opts.SLO) > 0 {
		s.slo = obs.NewSLOTracker()
		for class, target := range opts.SLO {
			s.slo.SetObjective(class, target)
		}
		s.sloCnt = map[int]*obs.Counter{}
		s.sloBurn = map[int]*obs.Gauge{}
	}
	s.thermMilli = 1000
	if err := s.setupTenants(opts.Tenants); err != nil {
		return nil, err
	}
	s.demand = make([]bool, len(s.tens))
	s.updateNextWorkLocked()
	if !rt.svc.CompareAndSwap(nil, s) {
		return nil, fmt.Errorf("core: runtime already serves jobs")
	}
	rt.ls.wake() // a parked fleet has arrivals to drift toward now
	return s, nil
}

// validate rejects the options ServeJobs cannot honour: an unknown policy
// or placement, and an SLO target that is not a fraction strictly inside
// (0, 1). Configured tenants carry their own policies, checked by
// tenant.Spec.Validate.
func (o *JobServiceOptions) validate() error {
	if o.Policy > admit.Shed {
		return fmt.Errorf("core: unknown admission policy %d", o.Policy)
	}
	if o.Placement > PlaceRoundRobin {
		return fmt.Errorf("core: unknown placement %d", o.Placement)
	}
	for class, target := range o.SLO {
		if !(target > 0 && target < 1) {
			return fmt.Errorf("core: SLO target %v for class %d must lie strictly inside (0, 1)", target, class)
		}
	}
	return nil
}

// JobServer returns the installed job service, or nil.
func (rt *Runtime) JobServer() *JobService { return rt.svc.Load() }

// SubmitJob submits one job at the current virtual time through the
// admission pipeline, installing a default job service on first use. It
// returns the job handle and a typed admission error (admit.ErrQueueFull,
// admit.ErrWouldBlock, admit.ErrHopeless) when the job was refused — the
// handle's state then records Rejected/Shed. After Finalize/Stop it
// returns ErrFinalized.
func (rt *Runtime) SubmitJob(spec JobSpec) (*Job, error) {
	if rt.lifecycle.Load() == lcNew {
		panic("core: runtime not started")
	}
	if !rt.submitBegin() {
		return nil, ErrFinalized
	}
	defer rt.submitEnd()
	svc := rt.svc.Load()
	if svc == nil {
		if _, err := rt.ServeJobs(JobServiceOptions{Policy: admit.Reject}); err != nil && rt.svc.Load() == nil {
			return nil, err
		}
		svc = rt.svc.Load()
	}
	if err := validateSpec(&spec); err != nil {
		return nil, err
	}
	if rt.ls != nil {
		rt.ls.pause()
	}
	now := rt.MaxWorkerClock()
	if p := rt.phase.Load(); p > now {
		now = p
	}
	svc.mu.Lock()
	j, err := svc.admitLocked(now, spec)
	svc.updateNextWorkLocked()
	svc.mu.Unlock()
	if rt.ls != nil {
		rt.ls.resume()
	}
	return j, err
}

func validateSpec(spec *JobSpec) error {
	if spec.Deadline < 0 {
		return fmt.Errorf("core: job %q: negative deadline %d", spec.Name, spec.Deadline)
	}
	if spec.Cost < 0 {
		return fmt.Errorf("core: job %q: negative cost %d", spec.Name, spec.Cost)
	}
	return nil
}

// Stats returns the service's admission ledger.
func (s *JobService) Stats() JobStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.TasksCancelled = s.tasksCanc.Load()
	if s.brk != nil {
		st.BreakerTrips = s.brk.Trips()
		st.BreakersOpen = s.brk.Open()
	}
	return st
}

// Jobs returns every job the service has seen, in submission order.
func (s *JobService) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Job(nil), s.jobs...)
}

// SLOStatus summarizes every declared SLO class at virtual time now
// (nil without declared objectives).
func (s *JobService) SLOStatus(now int64) []obs.SLOStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.slo == nil {
		return nil
	}
	return s.slo.Status(now)
}

// SLOAlerts returns the burn-rate alert-edge log in virtual-time order.
func (s *JobService) SLOAlerts() []obs.SLOAlert {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.slo == nil {
		return nil
	}
	return append([]obs.SLOAlert(nil), s.slo.Alerts()...)
}

// MaxChipletDepth returns the high-water mark of chiplet ch's task-queue
// depth (inbox + deque sums of its workers, sampled at each evaluation).
func (s *JobService) MaxChipletDepth(ch int) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ch < 0 || ch >= len(s.maxDepth) {
		return 0
	}
	return s.maxDepth[ch]
}

// Drain blocks until the arrival source is exhausted, the queue is empty,
// and every admitted job has reached a terminal state. A service without
// a source drains once all externally submitted jobs finish. Under
// Deterministic it then waits for the fleet to park, so what the caller
// reads next (the metrics history, the power plane) has stopped moving; a
// fleet that cannot park (a worker blocked, say on an offline core) lets it
// return at once.
func (s *JobService) Drain() {
	<-s.drained
	if ls := s.rt.ls; ls != nil {
		ls.settle()
	}
}

// newJobLocked registers the handle of tenant ten's arrival.
func (s *JobService) newJobLocked(arrival int64, spec JobSpec, ten int) *Job {
	s.seq++
	j := s.jobSlab.get()
	j.id = s.seq
	j.spec = spec
	j.svc = s
	j.arrival = arrival
	j.ten = ten
	if spec.Deadline > 0 {
		j.deadline = arrival + spec.Deadline
	}
	s.jobs = append(s.jobs, j)
	return j
}

// admitLocked runs the admission decision for a job arriving at time at.
// Returns the job handle and the typed refusal error, if any.
func (s *JobService) admitLocked(at int64, spec JobSpec) (*Job, error) {
	i, err := s.tenantOf(&spec)
	if err != nil {
		return nil, err
	}
	j := s.newJobLocked(at, spec, i)
	// A synchronous submission cannot be held upstream: a token-bucket
	// miss refuses it outright under the tenant's policy.
	if tr := s.tens[i]; !tr.bucket.Take(at) {
		s.rateLimitLocked(tr, j, at)
		return j, ErrRateLimited
	}
	return j, s.offerLocked(j)
}

// jobOutcome names one column of the admission ledger.
type jobOutcome uint8

const (
	outSubmitted jobOutcome = iota
	outAdmitted
	outCompleted
	outMet
	outRejected
	outShed
	outExpired
	outCancelled
	outFailed
	// A token-bucket refusal is a rejection or a shed in both ledgers and
	// in the service's metric, but the tenant's metric files it under
	// outcome="rate-limited" only.
	outLimitedRejected
	outLimitedShed
)

// countLocked is the one ledger funnel: it books outcome o of one of
// tenant tr's jobs in the service ledger, the tenant's ledger and the
// registry mirror of each. A tenant without metric handles (the unnamed
// tenant of a service configured without Tenants) skips its mirror.
func (s *JobService) countLocked(tr *tenantRt, o jobOutcome) {
	m := s.rt.met
	var svc, ten *int64
	var mc, tc *obs.Counter
	switch o {
	case outSubmitted:
		svc, ten = &s.stats.Submitted, &tr.stats.Submitted
	case outAdmitted:
		svc, ten, mc, tc = &s.stats.Admitted, &tr.stats.Admitted, m.jobsAdmitted, tr.mAdmit
	case outCompleted:
		svc, ten, mc, tc = &s.stats.Completed, &tr.stats.Completed, m.jobsCompleted, tr.mDone
	case outMet:
		svc, ten = &s.stats.Met, &tr.stats.Met
	case outRejected:
		svc, ten, mc, tc = &s.stats.Rejected, &tr.stats.Rejected, m.jobsRejected, tr.mReject
	case outShed:
		svc, ten, mc, tc = &s.stats.Shed, &tr.stats.Shed, m.jobsShed, tr.mShed
	case outExpired:
		svc, ten, mc = &s.stats.Expired, &tr.stats.Expired, m.jobsExpired
	case outCancelled:
		svc, ten, mc = &s.stats.Cancelled, &tr.stats.Cancelled, m.jobsCancelled
	case outFailed:
		svc, ten = &s.stats.Failed, &tr.stats.Failed
	case outLimitedRejected:
		svc, ten, mc, tc = &s.stats.Rejected, &tr.stats.Rejected, m.jobsRejected, tr.mLimited
		tr.stats.RateLimited++
	case outLimitedShed:
		svc, ten, mc, tc = &s.stats.Shed, &tr.stats.Shed, m.jobsShed, tr.mLimited
		tr.stats.RateLimited++
	}
	*svc++
	*ten++
	if mc != nil {
		mc.Add(0, 1)
	}
	if tc != nil {
		tc.Add(0, 1)
	}
}

// finalizeLocked moves j to a terminal state at virtual time now.
// Caller holds mu and has already updated the relevant counters. This is
// the one funnel every job exits through, so the observability plane
// hangs off it: the terminal span, the SLO outcome, and the flight-
// recorder retention decision.
func (s *JobService) finalizeLocked(j *Job, st JobState, now int64) {
	if JobState(j.state.Load()).terminal() {
		return
	}
	j.finished.Store(now)
	j.state.Store(int32(st))
	if j.done != nil {
		close(j.done)
	}

	met := st == JobCompleted && (j.deadline == 0 || now <= j.deadline)
	if tr := s.rt.tracer; tr.Enabled() {
		var kind obs.SpanKind
		emit := true
		switch st {
		case JobShed:
			kind = obs.SpanShed
		case JobRejected:
			kind = obs.SpanReject
		case JobExpired:
			kind = obs.SpanExpire
		case JobCancelled:
			kind = obs.SpanCancel
		case JobFailed:
			kind = obs.SpanFail
		default:
			emit = false // completion is covered by the stage spans
		}
		if emit {
			tr.Emit(s.trShard, obs.Span{Trace: obs.TraceID(j.id), Kind: kind,
				Start: j.arrival, End: now, Stage: -1,
				Arg: int64(j.spec.Priority)})
		}
		// Tail-based retention: violators (missed deadline or abnormal
		// termination) keep their full trace; healthy completions release
		// theirs for compaction.
		if met {
			tr.Release(obs.TraceID(j.id))
		} else if st != JobCancelled {
			tr.Retain(obs.TraceID(j.id))
		}
	}
	// SLO accounting: a completed job within deadline is good; sheds,
	// rejections, expiries, and failures burn budget. Cancellation is the
	// caller's choice, not a service failure — skip it.
	if s.slo != nil && st != JobCancelled {
		s.slo.Record(j.spec.Priority, met, now)
	}
}

// updateNextWorkLocked recomputes the pump wake-up time: the earliest of
// a dispatchable backlog (now), the earliest decidable pending arrival —
// pushed out to its token-maturity time when the rate limiter holds it
// upstream — and the next evaluation tick. Caller holds mu.
func (s *JobService) updateNextWorkLocked() {
	next := int64(math.MaxInt64)
	backlog := 0
	pending := false
	for _, tr := range s.tens {
		backlog += tr.q.Len()
		if tr.pending == nil {
			continue
		}
		pending = true
		if tr.spec.Policy == admit.Block && tr.q.Len() >= tr.q.Cap() {
			// A Block-policy arrival facing a full queue waits for space,
			// which only a dispatch or completion (nextWork=0 paths) can
			// create.
			continue
		}
		t := tr.pending.arrival
		if tr.bucketAt > t {
			t = tr.bucketAt
		}
		if t < next {
			next = t
		}
	}
	if backlog > 0 && s.inflight < s.opts.MaxInFlight {
		next = 0 // dispatchable right now
	}
	if s.inflight > 0 || backlog > 0 || pending {
		if due := s.lastEval + s.opts.EvalInterval; due < next {
			next = due
		}
	}
	s.nextWork.Store(next)
}

// checkDrainedLocked closes the drained channel once nothing is pending.
func (s *JobService) checkDrainedLocked() {
	for _, tr := range s.tens {
		if tr.pending != nil || tr.q.Len() > 0 {
			return
		}
	}
	if s.inflight == 0 && s.everServed {
		s.drainOnce.Do(func() { close(s.drained) })
	}
}

// pumpJobs is the worker-side entry: admit due arrivals, evaluate
// breakers, dispatch queued jobs. The fast path — no service, or nothing
// due yet — is one or two atomic loads. Returns true when it did work.
func (w *Worker) pumpJobs() bool {
	s := w.rt.svc.Load()
	if s == nil {
		return false
	}
	now := w.clock.Now()
	if s.nextWork.Load() > now {
		return false
	}
	return s.pump(w, now)
}

// pump runs the service's due work at time now on worker w, whose free
// list supplies the dispatched stage tasks.
func (s *JobService) pump(w *Worker, now int64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.everServed = true

	// 1. Admit every arrival due by now. A Block-policy arrival that
	// finds its queue full stays in the pending cursor — held upstream —
	// and re-offers when space frees.
	did := s.admitDueLocked(now)

	// 2. Periodic evaluation: per-chiplet queue-depth high-water marks,
	// breaker state from fault-plan and observed slowdown, the thermal
	// forecast, and lease arbitration.
	if now-s.lastEval >= s.opts.EvalInterval {
		s.evalLocked(now)
		s.evalSLOLocked(now)
		did = true
	}

	// 3. Dispatch while capacity allows: the DRR mux grants one slot at a
	// time, so over any backlogged window each tenant's share of dispatch
	// slots tracks its weight regardless of how deep any one queue is.
	for s.inflight < s.opts.MaxInFlight {
		ti := s.drr.Next(func(i int) bool { return s.tens[i].q.Len() > 0 })
		if ti < 0 {
			break
		}
		tr := s.tens[ti]
		e, ok := tr.q.Pop()
		if !ok {
			break
		}
		did = true
		s.rt.met.jobQueueDepth.Set(0, int64(s.backlogLocked()))
		j := e.Payload.(*Job)
		if j.cancelled.Load() {
			s.countLocked(tr, outCancelled)
			s.finalizeLocked(j, JobCancelled, now)
			continue
		}
		if tr.q.Policy() == admit.Shed {
			// Dispatch-time re-check: the queueing delay may have consumed
			// the budget since admission.
			if j.deadline != 0 && j.deadline <= now {
				s.countLocked(tr, outExpired)
				s.finalizeLocked(j, JobExpired, now)
				continue
			}
			if j.deadline != 0 && j.deadline-now < s.estimateLocked(tr, j) {
				s.countLocked(tr, outShed)
				s.finalizeLocked(j, JobShed, now)
				continue
			}
		}
		s.startLocked(w, j, now)
	}

	// 4. A Block-policy arrival may have been waiting on the queue space
	// the dispatch loop just created.
	if s.admitDueLocked(now) {
		did = true
	}

	s.updateNextWorkLocked()
	s.checkDrainedLocked()
	return did
}

// evalLocked runs the periodic telemetry and breaker evaluation at
// virtual time now. Depth high-water marks are sampled even with
// breakers off, so breaker-on/off runs compare like for like.
func (s *JobService) evalLocked(now int64) {
	s.lastEval = now
	topo := s.rt.M.Topo
	// Queue-depth high-water marks per chiplet (telemetry for the
	// breaker-capping acceptance check).
	depth := s.depth // zero between evaluations
	for _, w := range s.rt.workers {
		ch := topo.ChipletOf(w.Core())
		depth[ch] += w.inbox.Len() + int64(w.deque.Len())
	}
	for ch, d := range depth {
		if d > s.maxDepth[ch] {
			s.maxDepth[ch] = d
		}
		depth[ch] = 0
	}
	// Pre-cliff shedding pressure from the thermal forecast (a no-op
	// without a power plane), then lease arbitration.
	s.updateThermLocked()
	if s.leases != nil {
		s.evalLeasesLocked(now)
	}
	if s.brk == nil {
		return
	}
	// Observed slowdown: window-delta mean exec time per chiplet vs the
	// fleet mean, in milli-units. Chiplets with too few samples in the
	// window contribute no signal (0).
	n := len(s.maxDepth)
	sums := make([]int64, n)
	cnts := make([]int64, n)
	var fleetSum, fleetCnt int64
	for ch := 0; ch < n; ch++ {
		cs, cc := s.chExecSum[ch].Load(), s.chExecCnt[ch].Load()
		sums[ch] = cs - s.lastChSum[ch]
		cnts[ch] = cc - s.lastChCnt[ch]
		s.lastChSum[ch], s.lastChCnt[ch] = cs, cc
		fleetSum += sums[ch]
		fleetCnt += cnts[ch]
	}
	// Rewritten in place: dispatch views read it only while mu is held.
	om := resize(s.obsMilli, n)
	for ch := 0; ch < n; ch++ {
		om[ch] = 0
		if cnts[ch] < admit.MinSamples || fleetCnt == 0 || fleetSum == 0 {
			continue
		}
		chMean := float64(sums[ch]) / float64(cnts[ch])
		fleetMean := float64(fleetSum) / float64(fleetCnt)
		om[ch] = int64(1000 * chMean / fleetMean)
	}
	s.obsMilli = om
	s.brk.EvalPlan(now, s.rt.opts.Faults, func(ch int) int64 { return om[ch] })
	s.rt.met.breakersOpen.Set(0, int64(s.brk.Open()))
}

// evalSLOLocked runs the burn-rate evaluation and surfaces alert edges:
// typed spans, per-class alert counters, and traced burn gauges. It also
// compacts the span buffer once it passes the high-water mark (released,
// healthy traces are dropped; retained violators survive) — the decision
// keys off virtual-time state only, so replays compact identically.
func (s *JobService) evalSLOLocked(now int64) {
	tr := s.rt.tracer
	if s.slo != nil {
		for _, e := range s.slo.Evaluate(now) {
			if e.Firing {
				c, ok := s.sloCnt[e.Class]
				if !ok {
					c = s.rt.met.reg.Counter("charm_slo_alerts_total",
						"SLO burn-rate alerts fired.",
						obs.Labels{"class": strconv.Itoa(clampPrio(e.Class))})
					s.sloCnt[e.Class] = c
				}
				c.Add(0, 1)
			}
			if tr.Enabled() {
				fired := int64(0)
				if e.Firing {
					fired = 1
				}
				tr.Emit(s.trShard, obs.Span{Kind: obs.SpanSLOAlert,
					Start: now, End: now, Stage: -1,
					Arg: int64(e.Class), Arg2: fired})
			}
		}
		for _, st := range s.slo.Status(now) {
			g, ok := s.sloBurn[st.Class]
			if !ok {
				g = s.rt.met.reg.Gauge("charm_slo_fast_burn_milli",
					"Fast-window SLO burn rate in milli-units (1000 = budget-rate burn).",
					obs.Labels{"class": strconv.Itoa(clampPrio(st.Class))},
					obs.Traced())
				s.sloBurn[st.Class] = g
			}
			g.Set(0, int64(1000*st.FastBurn))
		}
	}
	if tr.Enabled() && tr.SpanCount() >= (s.trShard+1)*obs.DefaultSpanCap/2 {
		tr.Compact()
	}
}

// startLocked dispatches job j's first runnable stage at time now from
// worker w.
func (s *JobService) startLocked(w *Worker, j *Job, now int64) {
	j.started = now
	j.state.Store(int32(JobRunning))
	s.inflight++
	s.tens[j.ten].inflight++
	prio := clampPrio(j.spec.Priority)
	h, ok := s.qwByPrio[prio]
	if !ok {
		h = s.rt.met.reg.Histogram("charm_admit_queue_wait_ns",
			"Virtual ns from job arrival to dispatch (admission-queue wait).",
			obs.Labels{"priority": strconv.Itoa(prio)}, latencyBounds)
		s.qwByPrio[prio] = h
	}
	h.Observe(0, now-j.arrival)
	if tr := s.rt.tracer; tr.Enabled() {
		tr.Emit(s.trShard, obs.Span{Trace: obs.TraceID(j.id), Kind: obs.SpanAdmitQueue,
			Start: j.arrival, End: now, Stage: -1, Arg: int64(j.spec.Priority)})
	}
	s.dispatchStageLocked(w, j, now)
}

// dispatchStageLocked launches j's next non-empty stage, or completes the
// job when none remain. The stage's tasks come from the free list of w,
// the worker running the dispatch, topped up from the service's spare
// tasks. Caller holds mu.
func (s *JobService) dispatchStageLocked(w *Worker, j *Job, now int64) {
	for j.stage < len(j.spec.Stages) && len(j.spec.Stages[j.stage]) == 0 {
		j.stage++
	}
	if j.stage >= len(j.spec.Stages) {
		s.completeLocked(j, now)
		return
	}
	stage := j.spec.Stages[j.stage]
	j.curStage = int32(j.stage)
	j.stageStart = now
	j.stageTasks = int64(len(stage))
	j.stage++
	g := j.grp
	if g == nil {
		g = s.grpSlab.get()
		g.job = j
		j.grp = g
	}
	g.bar.Reset()
	g.add(int64(len(stage)))
	wids := s.placeStageLocked(now, len(stage), j.ten, j.spec.Prefer)
	s.refillLocked(w, len(stage))
	for i, fn := range stage {
		wid := wids[i]
		t := w.newTask(fn, g, now, j.spec.Coro, wid)
		t.job = j
		t.stage = j.curStage
		s.rt.workers[wid].inbox.Put(t)
	}
}

// spillLocked moves the free tasks w holds past half its list's capacity
// into the spare tasks, or drops them to the collector once spareCap is
// reached. Caller holds mu and runs on w. Workers return finished tasks to
// their own free lists, so the workers that run job tasks fill theirs
// while the workers that dispatch them drain theirs: stageDone spills the
// list of the worker that finished a stage and refillLocked tops up a
// dispatcher's, so a steady job stream reuses its tasks instead of
// allocating one for every task a dispatcher's list cannot supply.
func (s *JobService) spillLocked(w *Worker) {
	const keep = taskPoolCap / 2
	if len(w.taskPool) <= keep {
		return
	}
	if len(s.spare) < spareCap {
		s.spare = append(s.spare, w.taskPool[keep:]...)
	}
	clear(w.taskPool[keep:])
	w.taskPool = w.taskPool[:keep]
}

// spareCap bounds the service's spare tasks, as taskPoolCap bounds a
// worker's free list.
const spareCap = 4 * taskPoolCap

// refillLocked moves spare tasks onto w's free list until it holds n or
// the spare tasks run out. Caller holds mu and runs on w.
func (s *JobService) refillLocked(w *Worker, n int) {
	k := min(n-len(w.taskPool), len(s.spare))
	if k <= 0 {
		return
	}
	rest := len(s.spare) - k
	w.taskPool = append(w.taskPool, s.spare[rest:]...)
	clear(s.spare[rest:])
	s.spare = s.spare[:rest]
}

// placeStageLocked picks dispatch targets for a stage's n tasks from a
// single MachineView. Load-aware mode co-locates the stage on the most
// preferable chiplet — live workers, closed breaker, lowest fused health
// penalty, shallowest queues — spreading tasks across that chiplet's
// workers; refused chiplets are ordered last (not excluded) so a breaker
// past its retry window still sees the probe traffic it needs to heal.
// The breaker's Allow remains the authoritative admission gate: it is
// consulted (and its half-open probe budget consumed) per stage here.
//
// With leases (a service configured with Tenants) the candidate walk is
// restricted to the tenant's leased chiplets first: a bursting tenant
// stacks its own lease's queues instead of its neighbors'. Only when the
// lease yields no admissible live worker at all (every leased chiplet died
// or is breaker-refused between rebalances) does the walk run again over
// the whole machine — isolation never starves a compliant tenant.
//
// A job that prefers a chiplet kind (kind != KindAny) walks the chiplets
// of that kind first and the rest after (ChipletsByPreference's leading
// key): the capability match is a soft preference with natural fallback,
// never a hard gate.
//
// The returned targets are service scratch, valid until the next call.
func (s *JobService) placeStageLocked(now int64, n int, ten int, kind topology.ChipletKind) []int {
	v := s.viewLocked(now)
	out := s.targets[:0]
	if s.opts.Placement == PlaceRoundRobin {
		for k := 0; k < n; k++ {
			out = append(out, s.rotateLocked(v, true))
		}
		s.targets = out
		return out
	}
	m := s.rt.met
	// Admit chiplets lazily in preference order until every task in the
	// stage has a dedicated live worker (or the list is exhausted): small
	// stages co-locate on the top group, larger stages spill onto the
	// next-preferred groups instead of stacking one group's queues.
	s.chs = v.ChipletsByPreference(s.chs[:0], s.rr, kind)
	cand := s.cand[:0]
	leased := s.leases != nil && s.leases.Held(ten) > 0
	for {
		for _, ch := range s.chs {
			if len(cand) >= n {
				break
			}
			if leased && s.leases.Owner(int(ch)) != ten {
				continue
			}
			k := len(cand)
			if cand = v.LiveWorkersOn(cand, ch); len(cand) == k {
				continue
			}
			if s.brk != nil && !s.brk.Allow(int(ch)) {
				cand = cand[:k]
				continue
			}
		}
		if !leased || len(cand) > 0 {
			break
		}
		leased = false
	}
	s.cand = cand
	for k := 0; k < n; k++ {
		if len(cand) == 0 {
			out = append(out, s.rotateLocked(v, false))
			continue
		}
		out = append(out, cand[k%len(cand)])
		m.placeJob.Inc(0)
	}
	// Rotate the chiplet tie-break cursor so equally-preferable chiplets
	// take turns across stages instead of pinning the first one.
	s.rr++
	s.targets = out
	return out
}

// rotateLocked returns the next worker in round-robin order whose core
// is live. With breaker set — the legacy round-robin baseline — it also
// skips chiplets whose breaker refuses admission, and falls back to the
// breaker-blind walk when every live worker is refused. Without it — the
// every-worker-refused case of load-aware placement (all breakers open
// and unwilling to probe, or no live chiplet group) — it counts a live
// fallback, and only when the fault plan has downed every core does it
// rotate blind: the work has to go somewhere.
func (s *JobService) rotateLocked(v *place.View, breaker bool) int {
	n := v.NumWorkers()
	for i := 0; i < n; i++ {
		wid := s.rr % n
		s.rr++
		c := v.CoreOf(wid)
		if !v.IsLive(c) {
			continue
		}
		if !breaker {
			s.rt.met.placeFallbackLive.Inc(0)
		} else if s.brk != nil && !s.brk.Allow(int(v.Topology().ChipletOf(c))) {
			continue
		}
		return wid
	}
	if breaker {
		return s.rotateLocked(v, false)
	}
	wid := s.rr % n
	s.rr++
	s.rt.met.placeFallbackBlind.Inc(0)
	return wid
}

// completeLocked finishes job j successfully at time now.
func (s *JobService) completeLocked(j *Job, now int64) {
	tr := s.retireLocked(j, outCompleted)
	// Service times feed only the owning tenant's distribution: one
	// tenant's heavyweight jobs must not get a fresh tenant's first
	// lightweight ones shed as hopeless, or the reverse.
	tr.est.Observe(now - j.started)
	s.finalizeLocked(j, JobCompleted, now)
	if j.MetDeadline() {
		s.countLocked(tr, outMet)
	}
	if tr.lat != nil {
		tr.lat.ObserveT(0, now-j.arrival, obs.TraceID(j.id))
	}
	s.observeLatencyLocked(j, now-j.arrival)
	s.updateNextWorkLocked()
	s.checkDrainedLocked()
}

// retireLocked takes running job j out of flight under outcome o and
// returns its tenant.
func (s *JobService) retireLocked(j *Job, o jobOutcome) *tenantRt {
	tr := s.tens[j.ten]
	s.inflight--
	tr.inflight--
	s.countLocked(tr, o)
	return tr
}

// clampPrio clamps a priority to the [0, 7] label range.
func clampPrio(p int) int {
	if p < 0 {
		return 0
	}
	if p > 7 {
		return 7
	}
	return p
}

// observeLatencyLocked records a completed job's arrival→finish latency
// in the per-priority histogram (priority label clamped to [0, 7]). The
// histogram carries exemplar slots, so tail buckets link back to the
// TraceID of a job that landed there.
func (s *JobService) observeLatencyLocked(j *Job, lat int64) {
	p := clampPrio(j.spec.Priority)
	h, ok := s.latByPrio[p]
	if !ok {
		h = s.rt.met.reg.Histogram("charm_job_latency_ns",
			"Virtual ns from job arrival to completion.",
			obs.Labels{"priority": strconv.Itoa(p)}, latencyBounds,
			obs.WithExemplars())
		s.latByPrio[p] = h
	}
	h.ObserveT(0, lat, obs.TraceID(j.id))
}

// stageDone is the group-completion hook: the last task of a stage, on
// whichever worker w finished it, advances the job — next stage,
// completion, failure, or cancellation.
func (s *JobService) stageDone(w *Worker, j *Job, g *group) {
	end := g.bar.Release(s.rt.barrierCost)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.spillLocked(w)
	if tr := s.rt.tracer; tr.Enabled() {
		// The stage window closes here: dispatch → barrier release.
		// Windows are contiguous (the next stage dispatches at end), so a
		// job's trace covers its whole running phase gap-free.
		tr.Emit(s.trShard, obs.Span{Trace: obs.TraceID(j.id), Kind: obs.SpanStage,
			Start: j.stageStart, End: end, Stage: j.curStage, Arg: j.stageTasks})
	}
	switch {
	case j.cancelled.Load():
		s.retireLocked(j, outCancelled)
		s.finalizeLocked(j, JobCancelled, end)
	case g.panicked.Load() != nil:
		s.retireLocked(j, outFailed)
		j.err.Store(g.panicked.Load())
		s.finalizeLocked(j, JobFailed, end)
	default:
		s.dispatchStageLocked(w, j, end)
		return
	}
	s.updateNextWorkLocked()
	s.checkDrainedLocked()
}

// observeExec records a finished job task's execution time against its
// chiplet (the breaker's PMU-observed slowdown input). Lock-free.
func (s *JobService) observeExec(ch int, exec int64) {
	if ch < 0 || ch >= len(s.chExecSum) {
		return
	}
	s.chExecSum[ch].Add(exec)
	s.chExecCnt[ch].Add(1)
}

// --- cancellation plumbing (worker side) ---

// cancelUnwind is the sentinel a cancelled task's Yield panics with to
// unwind its stack; runTaskRecovered converts it into a TaskError whose
// Val is this type, and the worker discards instead of failing the job.
type cancelUnwind struct{}

func (cancelUnwind) String() string { return "job cancelled" }

// jobCancelled reports whether the task belongs to a cancelled job.
func (t *Task) jobCancelled() bool {
	return t.job != nil && t.job.cancelled.Load()
}

// discardCancelled completes a cancelled task's lifecycle without running
// it: group accounting still fires (so stages drain and the job
// finalizes), but no execution, latency, or PMU accounting is recorded.
func (w *Worker) discardCancelled(t *Task) {
	now := w.clock.Now()
	if t.spawned {
		w.rt.liveTasks.Add(-1)
	}
	w.rt.met.jobTasksCancelled.Inc(w.id)
	if t.job != nil {
		t.job.svc.tasksCanc.Add(1)
	}
	if t.grp != nil {
		t.grp.taskDone(w, now)
	}
	if t.onDone != nil {
		t.onDone.finish.Store(now)
		t.onDone.done.Store(true)
	}
	// Terminal: the discard is the task's last lifecycle event.
	w.freeTask(t)
}

// unwindCancelled resumes a started coroutine of a cancelled job so its
// Yield observes the flag and unwinds; the stack suspends between tasks and
// is recycled. The worker then discards the task.
func (w *Worker) unwindCancelled(t *Task) {
	co := t.co
	co.ctx.w = w
	co.next() // always coFinished: yield panics cancelUnwind on resume
	t.err = nil
	t.co = nil
	w.putCoroutine(co)
	w.discardCancelled(t)
}
