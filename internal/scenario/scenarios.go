package scenario

import (
	"fmt"
	"math"

	"charm"
	"charm/internal/topology"
)

// The overload, thermal and tenants scenarios share one machine and one job
// shape: a 4-chiplet, 8-core package in lockstep, and single-stage jobs of
// four parallel compute-only tasks.
const (
	svcWorkers  = 8
	jobTasks    = 4      // tasks per job (one stage)
	jobTaskCost = 10_000 // virtual ns of compute per task
	jobWork     = jobTasks * jobTaskCost
	// svcGap1x is the capacity-matched mean arrival gap: one job's compute
	// spread over all workers.
	svcGap1x = jobWork / svcWorkers
	// evalInterval is every scenario's breaker/SLO/lease evaluation period.
	evalInterval = 50_000
)

// svcMachine is the shared 4x2 machine, deterministic so every run — and
// every trace of it — replays exactly.
func svcMachine() charm.Config {
	return charm.Config{
		Topology:      topology.Synthetic(4, 2),
		Workers:       svcWorkers,
		Deterministic: true,
	}
}

// svcGap is the mean arrival gap at load times machine capacity.
func svcGap(load float64) int64 { return int64(float64(svcGap1x) / load) }

// computeJobs generates the compute-only jobs, named "<prefix>-<i>" and
// spread over `classes` priority classes.
func computeJobs(prefix string, classes int, deadline int64) func(i int) charm.JobSpec {
	return func(i int) charm.JobSpec {
		stage := make(charm.JobStage, jobTasks)
		for k := range stage {
			stage[k] = func(ctx *charm.Ctx) { ctx.Compute(jobTaskCost) }
		}
		return charm.JobSpec{
			Name:     fmt.Sprintf("%s-%d", prefix, i),
			Priority: i % classes,
			Deadline: deadline,
			Cost:     jobWork,
			Stages:   []charm.JobStage{stage},
		}
	}
}

// Overload: 400 Poisson arrivals at 0.5x-2x of machine capacity against one
// admission policy, optionally with a thermally throttled chiplet.
const (
	ovJobs     = 400
	ovDeadline = 200_000
	ovSeed     = 7
	// OverloadQueueCap is the bounded admission queue of the block, reject
	// and shed policies.
	OverloadQueueCap = 64
	// OverloadBigQueue makes Block never fill: the no-admission baseline.
	OverloadBigQueue = 4 * ovJobs
)

// OverloadParams are what the overload scenario's callers vary.
type OverloadParams struct {
	Policy   charm.AdmitPolicy
	QueueCap int
	// Load is the arrival rate as a multiple of machine capacity.
	Load     float64
	Breakers bool
	// Thermal throttles chiplet 1 by 3x for the bulk of a 2x-load run.
	Thermal   bool
	Placement charm.JobPlacement
	// SLO attaches per-priority-class targets. Higher priority dispatches
	// first, so it carries the tighter target; under overload the low
	// classes burn their budgets first.
	SLO bool
}

// Overload builds the open-loop admission scenario.
func Overload(p OverloadParams) Scenario {
	cfg := svcMachine()
	if p.Thermal {
		cfg.Faults = charm.NewFaultSchedule("overload-thermal", ovSeed).
			ThermalThrottle(1, 100_000, 1_500_000, 3.0)
	}
	return Scenario{
		Name:   "overload",
		Config: cfg,
		Service: func(*charm.Runtime) charm.JobServiceOptions {
			opts := charm.JobServiceOptions{
				Policy:        p.Policy,
				QueueCapacity: p.QueueCap,
				Breakers:      p.Breakers,
				Placement:     p.Placement,
				EvalInterval:  evalInterval,
				Source: &charm.SpecSource{
					Arrivals: charm.NewPoissonArrivals(ovSeed, svcGap(p.Load), ovJobs),
					Gen:      computeJobs("job", 3, ovDeadline),
				},
			}
			if p.SLO {
				opts.SLO = map[int]float64{0: 0.95, 1: 0.99, 2: 0.999}
			}
			return opts
		},
	}
}

// Thermal: 300 Poisson arrivals over a package with one hot die among three
// efficient ones, shed admission, with or without the closed-loop plane.
const (
	thJobs     = 300
	thDeadline = 400_000
	thSeed     = 11
	thQueueCap = 256
)

// hotDiePower builds the heterogeneous package: chiplet 0 runs a hot model
// (12000/1500 = 8x the dynamic energy per compute-ns of its three efficient
// siblings) with a fast thermal time constant, so sustained full load
// drives it through every governor tier while the cool chiplets never
// leave the nominal band.
func hotDiePower() *charm.PowerConfig {
	hot := charm.DefaultPowerModel()
	hot.Name = "hot"
	hot.EnergyPJ[charm.ComputeNS] = 12000
	hot.CThermal = 4e-5 // tau = 200 us: ten governor ticks, so the tiers regulate instead of overshooting
	cool := charm.DefaultPowerModel()
	cool.Name = "cool"
	cool.EnergyPJ[charm.ComputeNS] = 1500
	cool.CThermal = 4e-5
	return &charm.PowerConfig{
		TDPWatts: 20,
		SoftC:    65, HardC: 75, ParkC: 85,
		TickNS: 20_000, ParkNS: 500_000,
		Models: []charm.PowerModel{hot, cool, cool, cool},
	}
}

// Thermal builds the thermal-cliff scenario at load times machine capacity
// under one dispatch placement; power arms the closed-loop plane. At 0.7
// the three cool chiplets (six of eight cores) can absorb the whole stream,
// so a dispatcher that sees temperatures has real slack to steer into; at
// 1.3 there is nowhere left to steer, the hot die must work, and the
// governor's emergency tiers are what keep the machine alive.
func Thermal(placement charm.JobPlacement, power bool, load float64) Scenario {
	cfg := svcMachine()
	if power {
		cfg.Power = hotDiePower()
	}
	return Scenario{
		Name:   "thermal",
		Config: cfg,
		Service: func(*charm.Runtime) charm.JobServiceOptions {
			return charm.JobServiceOptions{
				Policy:        charm.AdmitShed,
				QueueCapacity: thQueueCap,
				Placement:     placement,
				EvalInterval:  evalInterval,
				Source: &charm.SpecSource{
					Arrivals: charm.NewPoissonArrivals(thSeed, svcGap(load), thJobs),
					Gen:      computeJobs("job", 3, thDeadline),
				},
			}
		},
	}
}

// Tenants: tenant A's diurnal stream beside tenant B's flash crowd.
const (
	tnDeadline = 200_000
	tnSeed     = 11
	tnQueueCap = 64
	// Tenant A: diurnal arrivals at ~0.4x of its 2-chiplet quota capacity
	// (4 workers drain one job per jobWork/4 = 10k ns; gap 26k ≈ 0.4x).
	tnAJobs = 240
	tnAGap  = 26_000
	// Tenant B: flash crowd bursting to TenantBFactor times its quota rate
	// (gap 10k → 1k inside each 200k burst window of a 400k period).
	tnBJobs   = 600
	tnBGap    = 10_000
	tnBPeriod = 400_000
	tnBBurst  = 200_000
	// TenantBFactor is the experiment's flash-crowd multiplier.
	TenantBFactor = 10
	// B's token bucket caps admitted rate at its quota rate (gap 10k); the
	// rest of the flood is rate-limited at B's doorstep.
	tnBBucketGap   = 10_000
	tnBBucketBurst = 4
	// The in-flight cap stays far above the offered load so the per-tenant
	// queues — not a shared dispatch ceiling — are the serialization point.
	tnMaxInFlight = 256
)

// TenantMode selects who shares the machine, and how.
type TenantMode int

const (
	// Isolated runs A and B on the isolation plane: per-tenant queues,
	// token buckets, DRR dispatch, chiplet leases.
	Isolated TenantMode = iota
	// SoloA runs tenant A alone on the isolation plane.
	SoloA
	// SharedHeap is the baseline: both streams merged into one unbounded
	// Block queue with no tenancy.
	SharedHeap
)

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

// Tenants builds the noisy-neighbor scenario. fault offlines chiplet 0 —
// one of tenant A's leased chiplets — for the rest of the run, forcing a
// lease rebalance; factor is B's flash-crowd rate as a multiple of its
// quota rate.
func Tenants(mode TenantMode, fault bool, factor float64) Scenario {
	cfg := svcMachine()
	if fault {
		cfg.Faults = charm.NewFaultSchedule("tenant-fault", tnSeed).
			OfflineChiplet(0, 300_000, math.MaxInt64)
	}
	return Scenario{
		Name:   "tenants",
		Config: cfg,
		Service: func(*charm.Runtime) charm.JobServiceOptions {
			a := charm.TenantConfig{
				Spec: charm.TenantSpec{Name: "A", Weight: 1, Quota: 2,
					Policy: charm.AdmitShed, QueueCap: tnQueueCap},
				Source: &charm.SpecSource{
					Arrivals: charm.NewDiurnalArrivals(tnSeed, tnAGap, 1_000_000, 0.3, tnAJobs),
					Gen:      computeJobs("A", 1, tnDeadline),
				},
			}
			b := charm.TenantConfig{
				Spec: charm.TenantSpec{Name: "B", Weight: 1, Quota: 2,
					GapNS: tnBBucketGap, Burst: tnBBucketBurst,
					Policy: charm.AdmitShed, QueueCap: tnQueueCap},
				Source: &charm.SpecSource{
					Arrivals: charm.NewFlashCrowdArrivals(tnSeed, tnBGap, tnBPeriod, tnBBurst,
						factor, tnBJobs),
					Gen: computeJobs("B", 1, tnDeadline),
				},
			}
			opts := charm.JobServiceOptions{MaxInFlight: tnMaxInFlight, EvalInterval: evalInterval}
			switch mode {
			case SoloA:
				opts.Tenants = []charm.TenantConfig{a}
			case Isolated:
				opts.Tenants = []charm.TenantConfig{a, b}
			default:
				opts.Policy = charm.AdmitBlock
				opts.QueueCapacity = 4 * (tnAJobs + tnBJobs)
				opts.Source = &mergedSource{a: a.Source, b: b.Source}
			}
			return opts
		},
		// The name prefix keys per-tenant accounting in every mode: the
		// shared-heap service itself has no tenant dimension.
		TenantOf: func(j *charm.Job) string { return j.Name()[:1] },
	}
}

// Topo: one mixed stream on a 16-worker spec-built machine. Memory-heavy
// jobs stream a shared array that lives spread across the package's L3s,
// so nearly every access is a cross-chiplet transfer and per-link fabric
// queueing — not the DRAM ceiling — is the bottleneck; compute-heavy jobs
// prefer accelerator dies, which only capability-aware dispatch can honor.
const (
	tpWorkers  = 16
	tpJobs     = 200
	tpShared   = 256 << 10 // shared hot array: fits the aggregate L3, not any one chiplet's
	tpChunk    = 32 << 10  // bytes per streamed read
	tpSweeps   = 2         // full sweeps of the hot array per memory task
	tpMLP      = 32        // DMA-like streaming: queueing, not latency, is the bottleneck
	tpComputeN = 12_000    // virtual ns of compute per compute task
	tpTasks    = 4         // tasks per job (one stage)
	tpDeadline = 2_000_000
	tpSeed     = 23
	tpQueueCap = 256
	tpGapNS    = 9_000 // mean arrival gap
)

// Topo builds the topology-sensitivity scenario on one topo-spec machine
// under one dispatch placement.
func Topo(spec string, placement charm.JobPlacement) Scenario {
	return Scenario{
		Name: "topo",
		Config: charm.Config{
			TopoSpec:      spec,
			Workers:       tpWorkers,
			Deterministic: true,
			MLP:           tpMLP,
		},
		Service: func(rt *charm.Runtime) charm.JobServiceOptions {
			hot := rt.Alloc(tpShared)
			return charm.JobServiceOptions{
				Policy:        charm.AdmitShed,
				QueueCapacity: tpQueueCap,
				Placement:     placement,
				EvalInterval:  evalInterval,
				Source: &charm.SpecSource{
					Arrivals: charm.NewPoissonArrivals(tpSeed, tpGapNS, tpJobs),
					Gen:      func(i int) charm.JobSpec { return topoJob(i, hot) },
				},
			}
		},
	}
}

// topoJob is job i of the mixed stream: even jobs stream the hot array,
// odd jobs compute.
func topoJob(i int, hot charm.Addr) charm.JobSpec {
	stage := make(charm.JobStage, tpTasks)
	spec := charm.JobSpec{
		Name:     fmt.Sprintf("job-%d", i),
		Deadline: tpDeadline,
		Stages:   []charm.JobStage{stage},
	}
	if i%2 == 0 {
		for k := range stage {
			k := k
			stage[k] = func(ctx *charm.Ctx) {
				start := charm.Addr((i*137 + k*61) % (tpShared / tpChunk) * tpChunk)
				for s := 0; s < tpSweeps; s++ {
					for off := 0; off < tpShared; off += tpChunk {
						ctx.Read(hot+(start+charm.Addr(off))%tpShared, tpChunk)
					}
				}
			}
		}
		spec.Prefer, spec.Cost = charm.KindEfficient, 120_000
	} else {
		// Pure busy time that an accelerator die finishes 2.5x sooner
		// than a fast one.
		for k := range stage {
			stage[k] = func(ctx *charm.Ctx) { ctx.Compute(tpComputeN) }
		}
		spec.Prefer, spec.Cost = charm.KindAccel, tpTasks*tpComputeN
	}
	return spec
}
