package harness

import (
	"fmt"
	"math"
	"reflect"
	"sort"

	"charm"
	"charm/internal/topology"
)

// The tenant-isolation experiment is the noisy-neighbor containment gate.
// Two tenants share one machine: tenant A runs a diurnal latency-sensitive
// stream well inside its guaranteed share, tenant B flash-crowds to 10x its
// quota. Under the shared-heap baseline (one Block queue, no tenancy) B's
// flood queues ahead of A and A's p99 diverges; under the isolation plane
// (per-tenant queues, token buckets, DRR dispatch, chiplet leases) A's p99
// must stay within 2x of its solo run while the baseline exceeds 10x. A
// fault row offlines one of A's leased chiplets mid-run to show lease
// rebalance instead of starvation, and the repro row replays the isolated
// run and compares the full per-tenant ledger byte for byte.

const (
	tnWorkers  = 8
	tnTasks    = 4
	tnTaskCost = 10_000
	tnWork     = tnTasks * tnTaskCost
	tnDeadline = 200_000
	tnSeed     = 11
	tnQueueCap = 64
	// Tenant A: diurnal arrivals at ~0.4x of its 2-chiplet quota capacity
	// (4 workers drain one job per tnWork/4 = 10k ns; gap 26k ≈ 0.4x).
	tnAJobs = 240
	tnAGap  = 26_000
	// Tenant B: flash crowd bursting to 10x its quota rate (gap 10k → 1k
	// inside each 200k burst window of a 400k period).
	tnBJobs   = 600
	tnBGap    = 10_000
	tnBPeriod = 400_000
	tnBBurst  = 200_000
	tnBFactor = 10
	// B's token bucket caps admitted rate at its quota rate (gap 10k); the
	// rest of the flood is rate-limited at B's doorstep.
	tnBBucketGap   = 10_000
	tnBBucketBurst = 4
	// The in-flight cap stays far above the offered load so the per-tenant
	// queues — not a shared dispatch ceiling — are the serialization point.
	tnMaxInFlight = 256
)

// tnSpecA and tnSpecB build the tenant admission contracts.
func tnSpecA() charm.TenantSpec {
	return charm.TenantSpec{Name: "A", Weight: 1, Quota: 2,
		Policy: charm.AdmitShed, QueueCap: tnQueueCap}
}

func tnSpecB() charm.TenantSpec {
	return charm.TenantSpec{Name: "B", Weight: 1, Quota: 2,
		GapNS: tnBBucketGap, Burst: tnBBucketBurst,
		Policy: charm.AdmitShed, QueueCap: tnQueueCap}
}

// tnGen builds one tenant's job generator; the name prefix keys per-tenant
// accounting in the shared-heap baseline, where the service itself has no
// tenant dimension.
func tnGen(prefix string) func(i int) charm.JobSpec {
	return func(i int) charm.JobSpec {
		stage := make(charm.JobStage, tnTasks)
		for k := range stage {
			stage[k] = func(ctx *charm.Ctx) { ctx.Compute(tnTaskCost) }
		}
		return charm.JobSpec{
			Name:     fmt.Sprintf("%s-%d", prefix, i),
			Deadline: tnDeadline,
			Cost:     tnWork,
			Stages:   []charm.JobStage{stage},
		}
	}
}

func tnSourceA() charm.JobSource {
	return &charm.SpecSource{
		Arrivals: charm.NewDiurnalArrivals(tnSeed, tnAGap, 1_000_000, 0.3, tnAJobs),
		Gen:      tnGen("A"),
	}
}

func tnSourceB() charm.JobSource {
	return &charm.SpecSource{
		Arrivals: charm.NewFlashCrowdArrivals(tnSeed, tnBGap, tnBPeriod, tnBBurst,
			tnBFactor, tnBJobs),
		Gen: tnGen("B"),
	}
}

// mergedSource interleaves two job sources by earliest arrival — the
// shared-heap baseline's single stream.
type mergedSource struct {
	a, b     charm.JobSource
	aAt, bAt int64
	aSp, bSp charm.JobSpec
	aOK, bOK bool
	primed   bool
}

func (m *mergedSource) Next() (int64, charm.JobSpec, bool) {
	if !m.primed {
		m.aAt, m.aSp, m.aOK = m.a.Next()
		m.bAt, m.bSp, m.bOK = m.b.Next()
		m.primed = true
	}
	switch {
	case m.aOK && (!m.bOK || m.aAt <= m.bAt):
		at, sp := m.aAt, m.aSp
		m.aAt, m.aSp, m.aOK = m.a.Next()
		return at, sp, true
	case m.bOK:
		at, sp := m.bAt, m.bSp
		m.bAt, m.bSp, m.bOK = m.b.Next()
		return at, sp, true
	}
	return 0, charm.JobSpec{}, false
}

// tenantResult is one tenant's measured outcome within a run.
type tenantResult struct {
	lats                   []int64 // completed-job latencies, arrival order
	completed, met         int64
	shed, rejected         int64
	rateLimited            int64
	leases                 int
	leaseGrants, leaseRecl int64
}

func (r tenantResult) p99us() float64 {
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

// tenantRun drives one configuration and splits the outcome by tenant.
// isolated=false runs the shared-heap baseline (one Block queue, merged
// streams, tenants distinguished only by name prefix).
func (o Options) tenantRun(isolated, soloA bool, faults *charm.FaultSchedule, turns *charm.TurnStats) map[string]tenantResult {
	rt, err := charm.Init(charm.Config{
		Topology:      topology.Synthetic(4, 2),
		Workers:       tnWorkers,
		Deterministic: true,
		Faults:        faults,
	})
	if err != nil {
		panic(fmt.Sprintf("harness: tenants: %v", err))
	}
	o.observe(rt)
	defer func() {
		ts := rt.TurnStats()
		turns.Handoff += ts.Handoff
		turns.Inline += ts.Inline
		turns.Self += ts.Self
		rt.Finalize()
	}()

	opts := charm.JobServiceOptions{
		MaxInFlight:  tnMaxInFlight,
		EvalInterval: 50_000,
	}
	switch {
	case isolated && soloA:
		opts.Tenants = []charm.TenantConfig{{Spec: tnSpecA(), Source: tnSourceA()}}
	case isolated:
		opts.Tenants = []charm.TenantConfig{
			{Spec: tnSpecA(), Source: tnSourceA()},
			{Spec: tnSpecB(), Source: tnSourceB()},
		}
	default:
		opts.Policy = charm.AdmitBlock
		opts.QueueCapacity = 4 * (tnAJobs + tnBJobs)
		opts.Source = &mergedSource{a: tnSourceA(), b: tnSourceB()}
	}
	svc, err := rt.ServeJobsFromTask(opts)
	if err != nil {
		panic(fmt.Sprintf("harness: tenants: %v", err))
	}
	svc.Drain()

	out := map[string]tenantResult{}
	for _, j := range svc.Jobs() {
		name := "B"
		if len(j.Name()) > 0 && j.Name()[0] == 'A' {
			name = "A"
		}
		r := out[name]
		if j.State() == charm.JobCompleted {
			r.completed++
			r.lats = append(r.lats, j.Latency())
			if j.MetDeadline() {
				r.met++
			}
		}
		out[name] = r
	}
	if isolated {
		for _, st := range svc.TenantStats() {
			r := out[st.Name]
			r.shed, r.rejected, r.rateLimited = st.Shed, st.Rejected, st.RateLimited
			r.leases = st.Leases
			r.leaseGrants, r.leaseRecl = st.LeaseGrants, st.LeaseReclaims
			out[st.Name] = r
		}
	} else {
		st := svc.Stats()
		r := out["B"] // the baseline has no per-tenant ledger; park totals on B
		r.shed, r.rejected = st.Shed, st.Rejected
		out["B"] = r
	}
	return out
}

// tenantSame reports a bit-identical replay of the isolated run: same
// per-tenant latencies and ledgers.
func tenantSame(a, b map[string]tenantResult) bool {
	return reflect.DeepEqual(a, b)
}

// tnFault offlines chiplet 0 — one of tenant A's leased chiplets — for the
// rest of the run, forcing a lease rebalance.
func tnFault() *charm.FaultSchedule {
	return charm.NewFaultSchedule("tenant-fault", tnSeed).
		OfflineChiplet(0, 300_000, math.MaxInt64)
}

// Tenants regenerates the multi-tenant isolation experiment.
func (o Options) Tenants() *Table {
	tab := &Table{
		ID:    "tenants",
		Title: "Multi-tenant isolation: noisy-neighbor containment under a 10x flash crowd",
		Header: []string{"run", "tenant", "completed", "met", "shed", "rejected",
			"rate_limited", "p99_us", "containment_x", "leases", "lease_ev", "repro"},
		Notes: "tenant B flash-crowds to 10x its quota; with per-tenant queues, " +
			"token buckets, DRR dispatch, and chiplet leases, tenant A's p99 stays " +
			"within 2x of its solo run while the shared-heap baseline exceeds 10x; " +
			"the fault row offlines one of A's leased chiplets mid-run (lease " +
			"rebalance, not starvation); repro compares a full replay byte for byte",
	}
	var turns charm.TurnStats
	solo := o.tenantRun(true, true, nil, &turns)
	base := o.tenantRun(false, false, nil, &turns)
	iso := o.tenantRun(true, false, nil, &turns)
	isoAgain := o.tenantRun(true, false, nil, &turns)
	flt := o.tenantRun(true, false, tnFault(), &turns)
	if n := turns.Handoff + turns.Inline + turns.Self; n > 0 {
		tab.Footer = fmt.Sprintf("lockstep turns over the five runs (host-paced): %d, %.1f%% idle turns "+
			"played inline, %.1f%% goroutine handoffs, %.1f%% straight back", n,
			100*float64(turns.Inline)/float64(n), 100*float64(turns.Handoff)/float64(n),
			100*float64(turns.Self)/float64(n))
	}

	soloP99 := solo["A"].p99us()
	repro := "no"
	if tenantSame(iso, isoAgain) {
		repro = "yes"
	}
	row := func(run, tenant string, r tenantResult, rep string) []string {
		cont := "-"
		if tenant == "A" && soloP99 > 0 && run != "solo" {
			cont = f1(r.p99us() / soloP99)
		}
		return []string{
			run, tenant, i64(r.completed), i64(r.met), i64(r.shed), i64(r.rejected),
			i64(r.rateLimited), f1(r.p99us()), cont, i64(int64(r.leases)),
			i64(r.leaseGrants + r.leaseRecl), rep,
		}
	}
	tab.Rows = append(tab.Rows,
		row("solo", "A", solo["A"], "-"),
		row("shared-heap", "A", base["A"], "-"),
		row("shared-heap", "B", base["B"], "-"),
		row("isolated", "A", iso["A"], repro),
		row("isolated", "B", iso["B"], repro),
		row("isolated-fault", "A", flt["A"], "-"),
		row("isolated-fault", "B", flt["B"], "-"),
	)
	return tab
}
