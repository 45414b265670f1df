package core

import (
	"errors"
	"fmt"
	"strconv"

	"charm/internal/admit"
	"charm/internal/obs"
	"charm/internal/tenant"
)

// This file holds the tenants of the job service: the per-tenant state the
// pump in job.go runs over, admission (arrival cursor → token bucket →
// bounded queue, each under the tenant's own overflow policy), and what
// only configured tenants have. Every service has at least one tenant. With
// JobServiceOptions.Tenants set there is one bounded queue per tenant,
// drained by a deficit-round-robin mux so every tenant holds a weighted fair
// share of dispatch slots; per-tenant token buckets rate-limit arrivals; and
// chiplet-group leases — arbitrated at every evaluation tick through the
// placement plane's liveness view — partition the machine elastically, so a
// bursting tenant floods its own lease instead of its neighbors'. Without
// Tenants the same code runs one unnamed tenant, and tenancy is switched off
// by data, not by a second path: no lease table (so no arbitration, no
// lease-restricted placement, no steal fence, no SpanLease), no metric
// handles (so no charm_tenant_* series), an unlimited bucket, and
// JobSpec.Tenant ignored.
//
// All tenant state lives behind svc.mu like the rest of the service, so
// deterministic runs arbitrate identically: queues are scanned in tenant
// index order, the DRR cursor and lease table are pure state machines, and
// every tie-break is total.

// Typed multi-tenant admission errors.
var (
	// ErrUnknownTenant reports a submission naming no configured tenant.
	ErrUnknownTenant = errors.New("core: unknown tenant")
	// ErrRateLimited reports a submission refused by its tenant's token
	// bucket (Reject/Shed overflow policy, or a synchronous submission
	// under Block).
	ErrRateLimited = errors.New("core: tenant rate limit exceeded")
)

// TenantConfig declares one tenant of a multi-tenant job service.
type TenantConfig struct {
	// Spec is the tenant's admission contract (weight, quota, rate
	// limit, backpressure policy). See tenant.ParseSpec for the grammar.
	Spec tenant.Spec
	// Source is the tenant's open-loop arrival stream (nil = external
	// SubmitJob only, routed by JobSpec.Tenant).
	Source JobSource
}

// TenantStats is one tenant's admission and lease ledger.
type TenantStats struct {
	// Name is the tenant's configured name.
	Name string
	// Submitted counts every arrival presented; Admitted entered the
	// tenant's queue; Completed ran to completion; Met completed within
	// deadline.
	Submitted, Admitted, Completed, Met int64
	// Rejected, Shed, Expired, Cancelled, Failed mirror JobStats per
	// tenant. RateLimited counts arrivals refused (or shed) by the token
	// bucket; it is included in Rejected/Shed.
	Rejected, Shed, Expired, Cancelled, Failed, RateLimited int64
	// MaxQueue is the tenant queue's high-water mark.
	MaxQueue int
	// Leases is the tenant's current chiplet-lease count; Quota is its
	// configured guarantee; LeaseGrants and LeaseReclaims are lifetime
	// acquisition/loss counts.
	Leases        int
	Quota         int
	LeaseGrants   int64
	LeaseReclaims int64
}

// tenantRt is one tenant's runtime state, guarded by svc.mu.
type tenantRt struct {
	spec   tenant.Spec
	q      *admit.Queue
	bucket *tenant.Bucket
	// est predicts service times (the median) from this tenant's
	// completions only; until it has enough samples it falls back to
	// the job's own Cost hint, never to another tenant's distribution.
	est *admit.Estimator
	src JobSource
	// pending is the arrival cursor: the next arrival pulled from src, not
	// yet decided (nil = source exhausted, or none).
	pending *Job
	// bucketAt is the virtual time the next token matures for a
	// Block-policy arrival held upstream by the rate limiter (0 = none).
	bucketAt int64
	inflight int
	stats    TenantStats

	// Metric handles: nil on the unnamed tenant.
	lat      *obs.Histogram
	leases   *obs.Gauge
	mAdmit   *obs.Counter
	mDone    *obs.Counter
	mShed    *obs.Counter
	mReject  *obs.Counter
	mLimited *obs.Counter
}

// setupTenants builds the tenant list and the dispatch mux over it during
// ServeJobs, plus what only configured tenants have: the name index, the
// metric handles and the lease table. Caller has already defaulted the
// global options.
func (s *JobService) setupTenants(cfgs []TenantConfig) error {
	named := len(cfgs) > 0
	if !named {
		cfgs = []TenantConfig{{Source: s.opts.Source, Spec: tenant.Spec{
			Weight: 1, Policy: s.opts.Policy, QueueCap: s.opts.QueueCapacity}}}
	} else if err := s.indexTenants(cfgs); err != nil {
		return err
	}
	weights := make([]int64, len(cfgs))
	quotas := make([]int, len(cfgs))
	for i, c := range cfgs {
		spec := c.Spec
		weights[i] = spec.Weight
		quotas[i] = spec.Quota
		qcap := spec.QueueCap
		if qcap <= 0 {
			qcap = s.opts.QueueCapacity
		}
		tr := &tenantRt{
			spec:   spec,
			q:      admit.NewQueue(qcap, spec.Policy),
			bucket: tenant.NewBucket(spec.GapNS, spec.Burst),
			est:    admit.NewEstimator(),
			src:    c.Source,
			stats:  TenantStats{Name: spec.Name},
		}
		if named {
			s.registerTenantMetrics(tr)
		}
		s.tens = append(s.tens, tr)
	}
	s.drr = tenant.NewDRR(weights)
	if named {
		s.leases = tenant.NewLeaseTable(s.rt.M.Topo.NumChiplets(), quotas, weights)
		s.publishLeaseViewLocked()
	}
	for i, tr := range s.tens {
		if tr.src != nil {
			s.advanceSource(i)
		}
	}
	return nil
}

// indexTenants validates the configured tenants and fills the name index.
func (s *JobService) indexTenants(cfgs []TenantConfig) error {
	if s.opts.Source != nil {
		return errors.New("core: Tenants and a global Source are mutually exclusive (give each tenant its own)")
	}
	s.tenIdx = make(map[string]int, len(cfgs))
	quotaSum := 0
	for i := range cfgs {
		spec := &cfgs[i].Spec
		if err := spec.Validate(); err != nil {
			return err
		}
		if _, dup := s.tenIdx[spec.Name]; dup {
			return errors.New("core: duplicate tenant " + strconv.Quote(spec.Name))
		}
		s.tenIdx[spec.Name] = i
		quotaSum += spec.Quota
	}
	if nch := s.rt.M.Topo.NumChiplets(); quotaSum > nch {
		return errors.New("core: tenant quotas oversubscribe the machine: " +
			strconv.Itoa(quotaSum) + " chiplets guaranteed, " + strconv.Itoa(nch) + " exist")
	}
	return nil
}

// registerTenantMetrics creates tr's charm_tenant_* series.
func (s *JobService) registerTenantMetrics(tr *tenantRt) {
	reg := s.rt.met.reg
	l := obs.Labels{"tenant": tr.spec.Name}
	outcome := func(o string) *obs.Counter {
		return reg.Counter("charm_tenant_jobs_total", "Per-tenant job admission outcomes.",
			obs.Labels{"tenant": tr.spec.Name, "outcome": o})
	}
	tr.lat = reg.Histogram("charm_tenant_job_latency_ns",
		"Virtual ns from job arrival to completion, per tenant.",
		l, latencyBounds, obs.WithExemplars())
	tr.leases = reg.Gauge("charm_tenant_leases",
		"Chiplet-group leases currently held by the tenant.", l, obs.Traced())
	tr.mAdmit = outcome("admitted")
	tr.mDone = outcome("completed")
	tr.mShed = outcome("shed")
	tr.mReject = outcome("rejected")
	tr.mLimited = outcome("rate-limited")
}

// tenantOf resolves a spec's tenant name: empty selects tenant 0, and a
// service configured without Tenants has only that one to select.
func (s *JobService) tenantOf(spec *JobSpec) (int, error) {
	if spec.Tenant == "" || s.leases == nil {
		return 0, nil
	}
	i, ok := s.tenIdx[spec.Tenant]
	if !ok {
		return -1, fmt.Errorf("%w: %q", ErrUnknownTenant, spec.Tenant)
	}
	return i, nil
}

// advanceSource pulls tenant i's next arrival into its pending cursor.
// Caller holds mu (or is still constructing the service).
func (s *JobService) advanceSource(i int) {
	tr := s.tens[i]
	at, spec, ok := tr.src.Next()
	if !ok {
		tr.pending = nil
		return
	}
	if err := validateSpec(&spec); err != nil {
		panic(err) // a source generating invalid specs is a programming error
	}
	tr.pending = s.newJobLocked(at, spec, i)
}

// admitDueLocked decides every arrival due by now, tenant by tenant in
// index order: token bucket first (Block holds the arrival upstream until a
// token matures; Reject/Shed refuse outright), then the tenant queue under
// the tenant's own policy. Returns true when it decided at least one.
func (s *JobService) admitDueLocked(now int64) bool {
	did := false
	for i, tr := range s.tens {
		for tr.pending != nil && tr.pending.arrival <= now {
			if tr.spec.Policy == admit.Block && tr.q.Len() >= tr.q.Cap() {
				break // held upstream until dispatch frees queue space
			}
			if tr.bucket.Take(now) {
				tr.bucketAt = 0
				s.offerLocked(tr.pending)
			} else if tr.spec.Policy == admit.Block {
				tr.bucketAt = tr.bucket.NextAt(now)
				break // held upstream until a token matures
			} else {
				s.rateLimitLocked(tr, tr.pending, now)
			}
			did = true
			s.advanceSource(i)
		}
	}
	return did
}

// rateLimitLocked refuses arrival j under tenant tr's overflow policy
// after a token-bucket miss.
func (s *JobService) rateLimitLocked(tr *tenantRt, j *Job, now int64) {
	o, st := outLimitedRejected, JobRejected
	if tr.spec.Policy == admit.Shed {
		o, st = outLimitedShed, JobShed
	}
	s.countLocked(tr, outSubmitted)
	s.countLocked(tr, o)
	s.finalizeLocked(j, st, now)
}

// estimateLocked is tenant tr's service-time estimate for job j; under the
// Shed policy it is inflated by the thermal forecast (updateThermLocked).
func (s *JobService) estimateLocked(tr *tenantRt, j *Job) int64 {
	est := tr.est.Estimate(j.spec.Cost)
	if tr.q.Policy() == admit.Shed && s.thermMilli > 1000 {
		est = est * s.thermMilli / 1000
	}
	return est
}

// offerLocked presents job j to its tenant's admission queue. The token
// bucket has already been consulted.
func (s *JobService) offerLocked(j *Job) error {
	tr := s.tens[j.ten]
	s.countLocked(tr, outSubmitted)
	evicted, err := tr.q.Offer(j.arrival, admit.Entry{
		Seq:      j.id,
		Priority: j.spec.Priority,
		Arrival:  j.arrival,
		Deadline: j.deadline,
		Est:      s.estimateLocked(tr, j),
		Payload:  j,
	})
	if evicted != nil {
		s.countLocked(tr, outShed)
		s.finalizeLocked(evicted.Payload.(*Job), JobShed, j.arrival)
	}
	switch {
	case err == nil:
		s.countLocked(tr, outAdmitted)
		if n := tr.q.Len(); n > tr.stats.MaxQueue {
			tr.stats.MaxQueue = n
		}
		n := s.backlogLocked()
		if n > s.stats.MaxQueue {
			s.stats.MaxQueue = n
		}
		s.rt.met.jobQueueDepth.Set(0, int64(n))
	case err == admit.ErrHopeless:
		s.countLocked(tr, outShed)
		s.finalizeLocked(j, JobShed, j.arrival)
	default: // ErrQueueFull, ErrWouldBlock
		s.countLocked(tr, outRejected)
		s.finalizeLocked(j, JobRejected, j.arrival)
	}
	return err
}

// backlogLocked sums the tenant queues.
func (s *JobService) backlogLocked() int {
	n := 0
	for _, tr := range s.tens {
		n += tr.q.Len()
	}
	return n
}

// evalLeasesLocked arbitrates the chiplet-group leases at an evaluation
// tick: chiplets live (hosting at least one worker on a live core) flow to
// demanding tenants — quota first, then weight-proportional growth — and
// leases on parked or offlined chiplets are voided so the tenant's share
// re-homes instead of starving. Emits a SpanLease per ownership change.
func (s *JobService) evalLeasesLocked(now int64) {
	topo := s.rt.M.Topo
	live := s.live
	clear(live)
	plan := s.rt.opts.Faults
	for _, w := range s.rt.workers {
		c := w.Core()
		if plan == nil || !plan.CoreDown(c, now) {
			live[topo.ChipletOf(c)] = true
		}
	}
	demand := s.demand
	for i, tr := range s.tens {
		demand[i] = tr.q.Len() > 0 || tr.inflight > 0 ||
			(tr.pending != nil && tr.pending.arrival <= now)
	}
	evs := s.leases.Rebalance(live, demand)
	if len(evs) > 0 {
		s.publishLeaseViewLocked()
		if tr := s.rt.tracer; tr.Enabled() {
			for _, e := range evs {
				tr.Emit(s.trShard, obs.Span{Kind: obs.SpanLease,
					Start: now, End: now, Chiplet: int32(e.Chiplet), Stage: -1,
					Arg: int64(e.To), Arg2: int64(e.From)})
			}
		}
		for i, tr := range s.tens {
			tr.leases.Set(0, int64(s.leases.Held(i)))
		}
	}
}

// configuredLocked returns the tenants JobServiceOptions.Tenants declared:
// the unnamed tenant of a service configured without them is not one.
func (s *JobService) configuredLocked() []*tenantRt {
	if s.leases == nil {
		return nil
	}
	return s.tens
}

// TenantStats returns every configured tenant's ledger in configuration
// order (empty for a service configured without Tenants).
func (s *JobService) TenantStats() []TenantStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	tens := s.configuredLocked()
	out := make([]TenantStats, len(tens))
	for i, tr := range tens {
		st := tr.stats
		st.Quota = tr.spec.Quota
		st.Leases = s.leases.Held(i)
		st.LeaseGrants = s.leases.Grants(i)
		st.LeaseReclaims = s.leases.Reclaims(i)
		out[i] = st
	}
	return out
}

// TenantNames returns the configured tenant names in index order.
func (s *JobService) TenantNames() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	tens := s.configuredLocked()
	names := make([]string, len(tens))
	for i, tr := range tens {
		names[i] = tr.spec.Name
	}
	return names
}

// LeaseOwners returns the chiplet→tenant-index ownership map (-1 = free;
// nil for a service configured without Tenants).
func (s *JobService) LeaseOwners() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.leases == nil {
		return nil
	}
	return s.leases.Owners()
}

// DispatchGrants returns the DRR mux's cumulative dispatch slots per
// tenant (nil for a service configured without Tenants).
func (s *JobService) DispatchGrants() []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.leases == nil {
		return nil
	}
	return s.drr.Grants()
}

// publishLeaseViewLocked republishes the lock-free ownership snapshot the
// steal fence reads.
func (s *JobService) publishLeaseViewLocked() {
	owners := s.leases.Owners()
	view := make([]int32, len(owners))
	for ch, o := range owners {
		view[ch] = int32(o)
	}
	s.leaseView.Store(&view)
}

// stealAllowed is the work-stealing lease fence, consulted lock-free on
// the steal path: a thief on chiplet ch may not import a task of a tenant
// that does not own ch. Free chiplets (owner -1), tasks of no job and a
// service without leases (no view was ever published) are unfenced, and
// the caller bypasses the fence for blocked victims — rescue beats
// isolation, exactly like the pinned-task escape hatch.
func (s *JobService) stealAllowed(ch int, t *Task) bool {
	p := s.leaseView.Load()
	if t.job == nil || p == nil || ch < 0 || ch >= len(*p) {
		return true
	}
	owner := (*p)[ch]
	return owner < 0 || owner == int32(t.job.ten)
}

// updateThermLocked refreshes the thermal shed-pressure factor from the
// power plane's temperature forecast: with the horizon set a few governor
// ticks out, the fraction of chiplets forecast to cross the soft
// setpoint scales Shed-policy service estimates toward the soft-throttle
// slowdown — so deadline-hopeless jobs are shed before the throttle
// cliff, not discovered after it. A pure function of the governor state
// at its last tick, so deterministic replays recompute it identically.
func (s *JobService) updateThermLocked() {
	pw := s.rt.power
	if pw == nil {
		s.thermMilli = 1000
		return
	}
	fc := pw.ForecastMilliC(s.forecast, 4*pw.Tick())
	s.forecast = fc
	soft := pw.SoftMilliC()
	over := 0
	for _, f := range fc {
		if f >= soft {
			over++
		}
	}
	factor := pw.SoftTierMilli()
	if over == 0 || len(fc) == 0 || factor <= 1000 {
		s.thermMilli = 1000
		return
	}
	s.thermMilli = 1000 + (factor-1000)*int64(over)/int64(len(fc))
}
