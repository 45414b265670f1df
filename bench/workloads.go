package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"math"
	"sort"

	"charm"
	"charm/internal/topology"
	"charm/internal/workloads/graph"
	"charm/internal/workloads/gups"
)

// sizes are the input-size knobs of a run. The full sizes are the issue's
// sizing scaled down until a pass takes about a second on a 2-core host, so
// that a 12 s measuring window holds well over five passes; smoke sizes run
// every code path in milliseconds.
type sizes struct {
	graphScale int // log2 Kronecker vertices (edge factor 16)
	gupsLog    int // log2 GUPS table words (4 updates per word)
	topoJobs   int // jobs per fabric in topo-fabrics
	tenantMul  int // multiplier on the tenants scenario's 240 + 600 arrivals
}

var (
	fullSizes  = sizes{graphScale: 15, gupsLog: 18, topoJobs: 60, tenantMul: 50}
	smokeSizes = sizes{graphScale: 10, gupsLog: 10, topoJobs: 4, tenantMul: 1}
)

// workload is one named traffic shape. gen builds the inputs from the seed
// (untimed); run executes one pass — charm.Init through Finalize — and
// returns what the untimed verification and the metrics need.
type workload struct {
	name string
	// det marks a Deterministic-mode workload: its virtual-time results and
	// sim_digest must repeat exactly from pass to pass.
	det bool
	gen func(seed uint64, sz sizes) any
	run func(in any, tr *tracer) *outcome
}

// Each workload is here for the layers it stresses and the ones it leaves
// alone (README.md has the measured shares; BENCHMARK.json repeats the why).
var workloads = []workload{
	// The access path (cache, sim, core.ctx) under the free-running
	// throttle-gate engine: no lockstep, no job service.
	{
		name: "graph-free",
		gen:  genGraph,
		run:  func(in any, tr *tracer) *outcome { return runGraph(in.(*graphInput), false, tr) },
	},
	// The same input and kernels under the lockstep baton; with graph-free
	// the pair behind "deterministic no slower than free-running".
	{
		name: "graph-det",
		det:  true,
		gen:  genGraph,
		run:  func(in any, tr *tracer) *outcome { return runGraph(in.(*graphInput), true, tr) },
	},
	// The miss path: cross-chiplet fills, directory, routed fabric charging.
	// Turns are long, so the baton is under 3%: bypasses engine changes.
	{
		name: "topo-fabrics",
		det:  true,
		gen:  genTopo,
		run:  func(in any, tr *tracer) *outcome { return runTopo(in.(*topoInput), tr) },
	},
	// Job service, turn handoff and obs export with zero memory traffic:
	// bypasses access-path changes.
	{
		name: "svc-tenants",
		det:  true,
		gen:  genTenants,
		run:  func(in any, tr *tracer) *outcome { return runTenants(in.(*tenantInput), tr) },
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// simStats are one pass's virtual-time results and simulated work counts.
type simStats struct {
	accesses    int64 // Σ seven fill.* PMU totals
	remoteFills int64 // fills from beyond the local chiplet
	tasks       int64 // task.run
	jobs        int64 // jobs resolved, any terminal state
	makespanNS  int64 // Σ run makespans, or first arrival → last finish
	lats        []int64
}

// remoteFillPct is Alg. 1's signal over the whole pass.
func (s *simStats) remoteFillPct() float64 {
	if s.accesses == 0 {
		return 0
	}
	return 100 * float64(s.remoteFills) / float64(s.accesses)
}

// outcome is what one pass hands back. check runs after the timed region
// and reports how many checks it made and which failed; it also feeds
// everything the sim_digest covers into digest.
type outcome struct {
	sim    simStats
	counts map[string]float64 // per-layer counters read at the phase boundaries
	digest hash.Hash
	// ledgers and jobs wait for digestJobs (one ledger per job service).
	ledgers []charm.JobStats
	jobs    []*charm.Job
	check   func() (checks int, failures []string)
}

func newOutcome() *outcome {
	return &outcome{counts: map[string]float64{}, digest: sha256.New()}
}

func (o *outcome) digestString() string {
	return hex.EncodeToString(o.digest.Sum(nil)[:12])
}

// pmuEvents is the full PMU as the facade exports it, in digest order.
var pmuEvents = []charm.Event{
	charm.FillL2, charm.FillL3Local, charm.FillL3RemoteNear, charm.FillL3RemoteFar,
	charm.FillL3RemoteSocket, charm.FillDRAMLocal, charm.FillDRAMRemote,
	charm.TaskRun, charm.TaskSteal, charm.StealRemoteChiplet, charm.Migration,
	charm.CtxSwitch, charm.BytesRead, charm.BytesWritten, charm.ComputeNS,
}

// collectPMU adds one runtime's PMU totals to the pass: the simulated work
// counts, the per-layer counters, and the digest.
func (o *outcome) collectPMU(rt *charm.Runtime) {
	c := func(e charm.Event) int64 { return rt.Counter(e) }
	for _, e := range pmuEvents {
		fmt.Fprintf(o.digest, "%s=%d\n", e, c(e))
	}
	local := c(charm.FillL2) + c(charm.FillL3Local)
	l3remote := c(charm.FillL3RemoteNear) + c(charm.FillL3RemoteFar) + c(charm.FillL3RemoteSocket)
	dram := c(charm.FillDRAMLocal) + c(charm.FillDRAMRemote)
	o.sim.accesses += local + l3remote + dram
	o.sim.remoteFills += l3remote + dram
	o.sim.tasks += c(charm.TaskRun)
	o.counts["pmu.fill_l2"] += float64(c(charm.FillL2))
	o.counts["pmu.fill_l3_local"] += float64(c(charm.FillL3Local))
	o.counts["pmu.fill_l3_remote"] += float64(l3remote)
	o.counts["pmu.fill_dram"] += float64(dram)
	o.counts["pmu.bytes_mb"] += float64(c(charm.BytesRead)+c(charm.BytesWritten)) / 1e6
	o.counts["core.tasks"] += float64(c(charm.TaskRun))
	o.counts["core.steals"] += float64(c(charm.TaskSteal))
	o.counts["core.steals_remote"] += float64(c(charm.StealRemoteChiplet))
	o.counts["core.migrations"] += float64(c(charm.Migration))
	o.counts["core.ctx_switches"] += float64(c(charm.CtxSwitch))
}

// collectMetrics reads the fabric, power and obs counters that exist only
// in the metrics registry; the traced pass turns the registry on.
func (o *outcome) collectMetrics(rt *charm.Runtime) {
	snap := rt.MetricsSnapshot()
	o.counts["obs.series"] += float64(len(snap.Samples))
	for i := range snap.Samples {
		s := &snap.Samples[i]
		switch s.Name {
		case "charm_fabric_bytes_total":
			o.counts["fabric.link_bytes_mb"] += s.Value / 1e6
		case "charm_fabric_queue_delay_ns_total":
			o.counts["fabric.queue_delay_us"] += s.Value / 1e3
		}
	}
	// Occupancy is a current-window gauge, so its peak is in the sampled
	// history, not in the end-of-run snapshot.
	for _, h := range rt.MetricsRegistry().History() {
		for i := range h.Samples {
			if s := &h.Samples[i]; s.Name == "charm_fabric_occupancy" {
				o.counts["fabric.max_link_util_milli"] = math.Max(
					o.counts["fabric.max_link_util_milli"], 1000*s.Value)
			}
		}
	}
}

// collectJobs folds a drained job service into the pass: the ledger, the
// per-job latencies and the arrival-to-finish span. The jobs are kept for
// digestJobs, which runs untimed.
func (o *outcome) collectJobs(svc *charm.JobService) charm.JobStats {
	st := svc.Stats()
	jobs := svc.Jobs()
	first, last := int64(math.MaxInt64), int64(0)
	for _, j := range jobs {
		if j.Arrival() < first {
			first = j.Arrival()
		}
		if j.State() == charm.JobCompleted {
			o.sim.lats = append(o.sim.lats, j.Latency())
			if f := j.Finished(); f > last {
				last = f
			}
		}
	}
	if last > first {
		o.sim.makespanNS += last - first
	}
	o.sim.jobs += st.Completed + st.Shed + st.Rejected + st.Expired + st.Cancelled + st.Failed
	o.counts["core.job.submitted"] += float64(st.Submitted)
	o.counts["core.job.completed"] += float64(st.Completed)
	o.counts["core.job.met"] += float64(st.Met)
	o.counts["core.job.shed"] += float64(st.Shed)
	o.ledgers = append(o.ledgers, st)
	o.jobs = append(o.jobs, jobs...)
	return st
}

// digestJobs feeds the job ledgers and every job's outcome into the digest.
func (o *outcome) digestJobs() {
	for _, st := range o.ledgers {
		fmt.Fprintf(o.digest, "%+v\n", st)
	}
	for _, j := range o.jobs {
		fmt.Fprintf(o.digest, "%d %d %d\n", j.ID(), j.State(), j.Latency())
	}
}

// ledgerHolds is job-ledger conservation: every arrival presented to
// admission ends in exactly one terminal state once the service drained.
func ledgerHolds(submitted, completed, shed, rejected, expired, cancelled, failed int64) bool {
	return submitted == completed+shed+rejected+expired+cancelled+failed
}

func mustInit(cfg charm.Config) *charm.Runtime {
	rt, err := charm.Init(cfg)
	if err != nil {
		panic(fmt.Sprintf("bench: charm.Init: %v", err))
	}
	return rt
}

// serveJobs installs the job service from inside a root task. Called from
// outside, Runtime.ServeJobs publishes the service without pausing the
// lockstep fleet, so which idle worker pumps the first arrival depends on how
// many idle turns the host happened to run since Init, and about one pass in
// a hundred places its first jobs differently. A task holds the turn, so the
// rotation the service starts from is fixed.
func serveJobs(rt *charm.Runtime, opts charm.JobServiceOptions) *charm.JobService {
	var svc *charm.JobService
	var err error
	rt.Run(func(*charm.Ctx) { svc, err = rt.ServeJobs(opts) })
	if err != nil {
		panic(fmt.Sprintf("bench: ServeJobs: %v", err))
	}
	return svc
}

// ---- graph-free / graph-det ------------------------------------------------

const (
	grWorkers        = 32
	grSampleShift    = 2
	grSchedulerTimer = 25_000
	grPageRankIters  = 3
	// The issue sizes CacheScale 16 for a 2^17 graph; smaller graphs divide
	// the caches further so the working-set-to-cache ratio stays put.
	grRefScale      = 17
	grRefCacheScale = 16
)

type graphInput struct {
	g       *graph.CSR
	scale   int
	gupsLog int
	seed    uint64
	ranks   []float64 // plain-Go PageRank, the reference for every pass
}

func genGraph(seed uint64, sz sizes) any {
	g := graph.Kronecker(graph.GenConfig{LogVertices: sz.graphScale, EdgeFactor: 16, Seed: seed})
	return &graphInput{g: g, scale: sz.graphScale, gupsLog: sz.gupsLog, seed: seed,
		ranks: pageRankReference(g, grPageRankIters)}
}

// pageRankReference is the same pull iteration Bound.PageRank runs, without
// a runtime: each rank depends only on the previous vector and sums its
// neighbours in CSR order, so a parallel run must match it bit for bit.
func pageRankReference(g *graph.CSR, iters int) []float64 {
	rank, next := make([]float64, g.N), make([]float64, g.N)
	inv := 1.0 / float64(g.N)
	for i := range rank {
		rank[i] = inv
	}
	for it := 0; it < iters; it++ {
		for v := 0; v < g.N; v++ {
			var sum float64
			for _, u := range g.Neighbors(int32(v)) {
				if d := g.Degree(u); d > 0 {
					sum += rank[u] / float64(d)
				}
			}
			next[v] = 0.15*inv + 0.85*sum
		}
		rank, next = next, rank
	}
	return rank
}

// graphGrain sizes tasks so every worker gets at least 8 chunks per round
// (copied from the harness's graph experiments).
func graphGrain(n, workers int) int {
	g := n / (workers * 8)
	if g < 16 {
		g = 16
	}
	if g > 2048 {
		g = 2048
	}
	return g
}

func runGraph(in *graphInput, det bool, tr *tracer) *outcome {
	o := newOutcome()
	cacheScale := int64(grRefCacheScale)
	if in.scale < grRefScale {
		cacheScale <<= grRefScale - in.scale
	}

	sp := tr.begin("init")
	rt := mustInit(charm.Config{
		Topology:       charm.AMDMilan(),
		CacheScale:     cacheScale,
		Workers:        grWorkers,
		SampleShift:    grSampleShift,
		SchedulerTimer: grSchedulerTimer,
		Deterministic:  det,
	})
	if tr != nil {
		rt.EnableMetrics(true)
	}
	tr.end(sp)

	sp = tr.begin("alloc")
	b := graph.Bind(rt, in.g, graphGrain(in.g.N, grWorkers))
	tr.end(sp)

	sp = tr.begin("run")
	parent, bfs := b.BFS(0)
	ranks, pr := b.PageRank(grPageRankIters)
	updates := 4 << in.gupsLog
	gu := gups.Run(rt, gups.Config{
		LogTableSize: in.gupsLog,
		Grain:        graphGrain(updates, grWorkers),
		Seed:         in.seed,
	})
	tr.end(sp)

	sp = tr.begin("collect")
	o.collectPMU(rt)
	if tr != nil {
		o.collectMetrics(rt)
	}
	o.sim.makespanNS = bfs.Makespan + pr.Makespan + gu.Makespan
	fmt.Fprintf(o.digest, "%+v\n%+v\n%+v\n", bfs, pr, gu)
	tr.end(sp)

	sp = tr.begin("finalize")
	b.Free()
	rt.Finalize()
	tr.end(sp)

	o.check = func() (int, []string) {
		var fails []string
		if err := graph.ValidateBFS(in.g, 0, parent); err != nil {
			fails = append(fails, "bfs: "+err.Error())
		}
		for v := range ranks {
			if ranks[v] != in.ranks[v] {
				fails = append(fails, fmt.Sprintf("pagerank: rank[%d] = %g, plain-Go run gives %g", v, ranks[v], in.ranks[v]))
				break
			}
		}
		if gu.Updates != int64(updates) {
			fails = append(fails, fmt.Sprintf("gups: %d updates, want %d", gu.Updates, updates))
		}
		return 3, fails
	}
	return o
}

// ---- topo-fabrics ----------------------------------------------------------

// The topo experiment's mixed stream; constants copied from the harness so
// a harness refactor cannot change the measured traffic.
const (
	tpWorkers  = 16
	tpShared   = 256 << 10 // shared hot array: fits the aggregate L3, not one chiplet's
	tpChunk    = 32 << 10  // bytes per streamed read
	tpSweeps   = 2         // full sweeps of the hot array per memory task
	tpMLP      = 32        // DMA-like streaming: queueing, not latency, is the bottleneck
	tpComputeN = 12_000    // virtual ns per compute task
	tpTasks    = 4         // tasks per job (one stage)
	tpDeadline = 2_000_000
	tpQueueCap = 256
	tpGapNS    = 9_000 // mean arrival gap
	tpHetMix   = ":4x2,fast=2,eff=4,accel=2"
)

type topoInput struct {
	seed uint64
	jobs int
}

func genTopo(seed uint64, sz sizes) any { return &topoInput{seed: seed, jobs: sz.topoJobs} }

// topoSpec builds job i of the mixed stream: even jobs stream the shared
// hot array (nearly every line a cross-chiplet transfer), odd jobs are pure
// compute that prefers accelerator dies.
func topoSpec(i int, hot charm.Addr) charm.JobSpec {
	stage := make(charm.JobStage, tpTasks)
	prefer, cost := charm.KindAccel, int64(tpTasks*tpComputeN)
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
		prefer, cost = charm.KindEfficient, 120_000
	} else {
		for k := range stage {
			stage[k] = func(ctx *charm.Ctx) { ctx.Compute(tpComputeN) }
		}
	}
	return charm.JobSpec{
		Name:     fmt.Sprintf("job-%d", i),
		Deadline: tpDeadline,
		Cost:     cost,
		Prefer:   prefer,
		Stages:   []charm.JobStage{stage},
	}
}

func runTopo(in *topoInput, tr *tracer) *outcome {
	o := newOutcome()
	ledgerOK := true
	fabrics := charm.SpecFabrics()
	for _, fab := range fabrics {
		sp := tr.begin("init")
		rt := mustInit(charm.Config{
			TopoSpec:      fab + tpHetMix,
			Workers:       tpWorkers,
			Deterministic: true,
			MLP:           tpMLP,
		})
		if tr != nil {
			rt.EnableMetrics(true)
		}
		tr.end(sp)

		sp = tr.begin("alloc")
		hot := rt.Alloc(tpShared)
		svc := serveJobs(rt, charm.JobServiceOptions{
			Policy:        charm.AdmitShed,
			QueueCapacity: tpQueueCap,
			Placement:     charm.PlaceLoadAware,
			EvalInterval:  50_000,
			Source: &charm.SpecSource{
				Arrivals: charm.NewPoissonArrivals(in.seed, tpGapNS, in.jobs),
				Gen:      func(i int) charm.JobSpec { return topoSpec(i, hot) },
			},
		})
		tr.end(sp)

		sp = tr.begin("run")
		svc.Drain()
		tr.end(sp)

		sp = tr.begin("collect")
		fmt.Fprintf(o.digest, "fabric %s\n", fab)
		o.collectPMU(rt)
		st := o.collectJobs(svc)
		if tr != nil {
			o.collectMetrics(rt)
		}
		ledgerOK = ledgerOK && st.Submitted == int64(in.jobs) &&
			ledgerHolds(st.Submitted, st.Completed, st.Shed, st.Rejected, st.Expired, st.Cancelled, st.Failed)
		tr.end(sp)

		sp = tr.begin("finalize")
		rt.Finalize()
		tr.end(sp)
	}
	o.check = func() (int, []string) {
		o.digestJobs()
		if !ledgerOK {
			return 1, []string{"topo-fabrics: job ledger does not conserve arrivals"}
		}
		return 1, nil
	}
	return o
}

// ---- svc-tenants -----------------------------------------------------------

// The tenants experiment's "isolated" scenario; constants copied from the
// harness. Tenant A is a diurnal stream at ~0.4x of its 2-chiplet quota,
// tenant B flash-crowds to 10x its quota behind a token bucket.
const (
	tnWorkers      = 8
	tnTasks        = 4
	tnTaskCost     = 10_000
	tnDeadline     = 200_000
	tnQueueCap     = 64
	tnAJobs        = 240
	tnAGap         = 26_000
	tnAPeriod      = 1_000_000
	tnAAmp         = 0.3
	tnBJobs        = 600
	tnBGap         = 10_000
	tnBPeriod      = 400_000
	tnBBurst       = 200_000
	tnBFactor      = 10
	tnBBucketGap   = 10_000
	tnBBucketBurst = 4
	tnMaxInFlight  = 256
)

type tenantInput struct {
	seed uint64
	mul  int
}

func genTenants(seed uint64, sz sizes) any { return &tenantInput{seed: seed, mul: sz.tenantMul} }

func tenantGen(prefix string) func(i int) charm.JobSpec {
	return func(i int) charm.JobSpec {
		stage := make(charm.JobStage, tnTasks)
		for k := range stage {
			stage[k] = func(ctx *charm.Ctx) { ctx.Compute(tnTaskCost) }
		}
		return charm.JobSpec{
			Name:     fmt.Sprintf("%s-%d", prefix, i),
			Deadline: tnDeadline,
			Cost:     tnTasks * tnTaskCost,
			Stages:   []charm.JobStage{stage},
		}
	}
}

func runTenants(in *tenantInput, tr *tracer) *outcome {
	o := newOutcome()

	sp := tr.begin("init")
	rt := mustInit(charm.Config{
		Topology:      topology.Synthetic(4, 2),
		Workers:       tnWorkers,
		Deterministic: true,
		Power:         &charm.PowerConfig{},
	})
	rt.EnableMetrics(true)
	rt.EnableTracing(true)
	tr.end(sp)

	sp = tr.begin("alloc")
	svc := serveJobs(rt, charm.JobServiceOptions{
		MaxInFlight:  tnMaxInFlight,
		EvalInterval: 50_000,
		Tenants: []charm.TenantConfig{
			{
				Spec: charm.TenantSpec{Name: "A", Weight: 1, Quota: 2,
					Policy: charm.AdmitShed, QueueCap: tnQueueCap},
				Source: &charm.SpecSource{
					Arrivals: charm.NewDiurnalArrivals(in.seed, tnAGap, tnAPeriod, tnAAmp, tnAJobs*in.mul),
					Gen:      tenantGen("A"),
				},
			},
			{
				Spec: charm.TenantSpec{Name: "B", Weight: 1, Quota: 2,
					GapNS: tnBBucketGap, Burst: tnBBucketBurst,
					Policy: charm.AdmitShed, QueueCap: tnQueueCap},
				Source: &charm.SpecSource{
					Arrivals: charm.NewFlashCrowdArrivals(in.seed, tnBGap, tnBPeriod, tnBBurst,
						tnBFactor, tnBJobs*in.mul),
					Gen: tenantGen("B"),
				},
			},
		},
	})
	tr.end(sp)

	sp = tr.begin("run")
	svc.Drain()
	tr.end(sp)

	sp = tr.begin("collect")
	o.collectPMU(rt)
	st := o.collectJobs(svc)
	o.collectMetrics(rt)
	tenants := svc.TenantStats()
	for _, ts := range tenants {
		fmt.Fprintf(o.digest, "%+v\n", ts)
		o.counts["tenant.rate_limited"] += float64(ts.RateLimited)
		o.counts["tenant.lease_events"] += float64(ts.LeaseGrants + ts.LeaseReclaims)
	}
	if ps := rt.Power().Stats(); ps != nil {
		var pj int64
		for _, e := range ps.EnergyPJ {
			pj += e
		}
		o.counts["power.max_temp_mC"] = float64(ps.MaxTempMilliC)
		o.counts["power.energy_mJ"] = float64(pj) / 1e9
	}
	dropped := rt.Tracer().DroppedSpans()
	o.counts["obs.spans"] = float64(rt.Tracer().SpanCount())
	tr.end(sp)

	sp = tr.begin("export")
	rep := charm.BuildCritPathReport(rt.Tracer())
	// The document is exported, not digested: its sampled history is not
	// replay-stable (a power-temperature sample differs by 1 mC about once
	// in 700 small passes).
	if err := rt.WriteMetricsJSON(io.Discard); err != nil {
		panic(fmt.Sprintf("bench: svc-tenants: %v", err))
	}
	tr.end(sp)

	sp = tr.begin("finalize")
	rt.Finalize()
	tr.end(sp)

	want := int64((tnAJobs + tnBJobs) * in.mul)
	o.check = func() (int, []string) {
		o.digestJobs()
		fmt.Fprintf(o.digest, "report %d %d %d\n", len(rep.Jobs), rep.TotalNS, rep.AttribNS)
		var fails []string
		if st.Submitted != want || !ledgerHolds(st.Submitted, st.Completed, st.Shed, st.Rejected, st.Expired, st.Cancelled, st.Failed) {
			fails = append(fails, fmt.Sprintf("svc-tenants: service ledger does not conserve %d arrivals: %+v", want, st))
		}
		for _, ts := range tenants {
			if !ledgerHolds(ts.Submitted, ts.Completed, ts.Shed, ts.Rejected, ts.Expired, ts.Cancelled, ts.Failed) ||
				ts.RateLimited > ts.Shed+ts.Rejected {
				fails = append(fails, fmt.Sprintf("svc-tenants: tenant %s ledger does not conserve: %+v", ts.Name, ts))
			}
		}
		if dropped != 0 {
			fails = append(fails, fmt.Sprintf("svc-tenants: tracer dropped %d spans", dropped))
		}
		return 2 + len(tenants), fails
	}
	return o
}

// nearestRank returns the p-th percentile (0 < p <= 100) of vals by the
// nearest-rank rule: the smallest value with at least p% of the samples at
// or below it. It returns 0 for an empty slice.
func nearestRank(vals []int64, p int) int64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]int64(nil), vals...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := (p*len(s) + 99) / 100
	if idx < 1 {
		idx = 1
	}
	return s[idx-1]
}
