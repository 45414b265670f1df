// Command charm-obs is the observability front-end: it runs a workload on
// the simulated machine with the metrics registry and profiler enabled and
// exports what they saw.
//
// Subcommands:
//
//	charm-obs trace   [-workers N] [-workload W] [-o trace.json]
//	    Chrome trace-event JSON: per-task B/E spans, per-worker counter
//	    tracks (spread_rate, fill rate, live tasks), migration instants,
//	    and machine-level counter tracks for every traced metric (fabric
//	    link occupancy, memory channel utilization). Load the output at
//	    chrome://tracing or https://ui.perfetto.dev.
//
//	charm-obs metrics [-workers N] [-workload W] [-prom FILE] [-json FILE]
//	    Final metrics snapshot. -prom writes Prometheus text exposition
//	    format (default stdout, "-" for stdout); -json writes the JSON
//	    document including the sampled history of traced metrics.
//
//	charm-obs top     [-workers N] [-workload W]
//	    Per-chiplet summary table: L3 hit/evict rates, fill mix, and the
//	    fabric/memory utilization peaks — a post-mortem `top` for the run.
//
//	charm-obs slo      [-load F] [-thermal]
//	    Runs the deterministic overload scenario (open-loop Poisson job
//	    arrivals under deadline-aware shedding) with per-priority-class
//	    SLOs and prints the error-budget status and the multi-window
//	    burn-rate alert log.
//
//	charm-obs critpath [-load F] [-thermal] [-top N]
//	    Runs the same scenario with causal job tracing on and prints the
//	    critical-path attribution report: per-job latency breakdowns
//	    (queue vs compute vs stall) and the aggregate top-culprit
//	    tables per chiplet, stage, and fault kind.
//
//	charm-obs job <trace-id> [-load F] [-thermal]
//	    Replays the scenario and prints one job's full span trace and its
//	    critical-path breakdown. Trace IDs come from the critpath report
//	    or the flight recorder's retained list.
//
//	charm-obs tenants [-factor N] [-fault]
//	    Runs the deterministic multi-tenant isolation scenario (tenant A's
//	    diurnal stream beside tenant B's flash crowd at N times its quota
//	    rate) and prints the per-tenant post-mortem: goodput, p99 latency,
//	    quota utilization, DRR dispatch share, the chiplet lease map, and
//	    the shed/reject/rate-limit breakdown. -fault offlines one of A's
//	    leased chiplets mid-run to show lease rebalance.
//
//	charm-obs power   [-load F] [-blind]
//	    Runs the job stream over a heterogeneous package (one hot compute
//	    die among three efficient ones) with the closed-loop thermal/energy
//	    plane on and prints the per-chiplet post-mortem: final junction
//	    temperature, last-window power, lifetime energy ledger, and the
//	    governor tier events (soft/hard throttles, emergency parks).
//	    -blind switches dispatch from thermal-aware load-aware placement
//	    to round-robin, which rides the governor through its tiers.
//
//	charm-obs topo    [-machine amd|intel|amd-nps4|small] [-cdf] [-matrix] [-diagram]
//	    Inspects a machine model without running anything: the topology
//	    summary, the chiplet-to-chiplet latency matrix, the core-to-core
//	    latency CDF behind Fig. 3, and a Fig. 2 style package diagram.
//
// Workloads: quickstart (default; the Example_quickstart kernel), phases
// (growing/shrinking working set), bfs (Kronecker graph BFS).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"charm"
	"charm/internal/obs"
	"charm/internal/scenario"
	"charm/internal/topology"
	"charm/internal/workloads/graph"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "trace":
		cmdTrace(os.Args[2:])
	case "metrics":
		cmdMetrics(os.Args[2:])
	case "top":
		cmdTop(os.Args[2:])
	case "fabric":
		cmdFabric(os.Args[2:])
	case "slo":
		cmdSLO(os.Args[2:])
	case "critpath":
		cmdCritpath(os.Args[2:])
	case "job":
		cmdJob(os.Args[2:])
	case "power":
		cmdPower(os.Args[2:])
	case "tenants":
		cmdTenants(os.Args[2:])
	case "topo":
		cmdTopo(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "charm-obs: unknown subcommand %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: charm-obs <trace|metrics|top|fabric|slo|critpath|job|power|tenants|topo> [flags]

  trace     write a Chrome trace-event JSON file (task spans + counter tracks)
  metrics   write the final metrics snapshot (Prometheus text and/or JSON)
  top       print a per-chiplet summary table
  fabric    print the per-link interconnect table (-spec picks the machine,
            -topo renders the link map)
  slo       run the overload scenario; print SLO budgets and burn-rate alerts
  critpath  run the overload scenario; print critical-path attribution
  job <id>  run the overload scenario; print one job's trace and breakdown
  power     run the hot-die scenario; print the per-chiplet thermal/energy table
  tenants   run the multi-tenant scenario; print the per-tenant isolation table
  topo      print a machine model: summary, latency matrix, latency CDF, diagram

Common flags: -workers N, -workload quickstart|phases|bfs (trace/metrics/top/fabric);
-load F, -thermal (slo/critpath/job); -load F, -blind (power);
-factor N, -fault (tenants); -machine M, -cdf, -matrix, -diagram (topo).
Run 'charm-obs <subcommand> -h' for subcommand flags.
`)
}

// commonFlags registers the flags every subcommand shares.
func commonFlags(fs *flag.FlagSet) (workers *int, workload *string) {
	workers = fs.Int("workers", 16, "worker count")
	workload = fs.String("workload", "quickstart", "workload: quickstart, phases, or bfs")
	return
}

// workloadConfig is the machine the workload views run on.
func workloadConfig(workers int) charm.Config {
	return charm.Config{Workers: workers, CacheScale: 256, SchedulerTimer: 25_000}
}

// runWorkload initializes a runtime with observability on, executes the
// named workload, and returns the runtime still live (caller finalizes).
func runWorkload(workers int, workload string) *charm.Runtime {
	return runWorkloadOn(workloadConfig(workers), workload)
}

// runWorkloadOn is runWorkload on a caller-chosen machine config, so
// subcommands can run the same kernels on a spec-built topology.
func runWorkloadOn(cfg charm.Config, workload string) *charm.Runtime {
	rt, _ := runObserved(cfg, workload, func(rt *charm.Runtime) {
		rt.EnableProfiler(true)
		rt.EnableMetrics(true)
	})
	return rt
}

// runObserved initializes a runtime on cfg, lets observe switch on what
// watches the run (nil for nothing), executes the named workload, and
// returns the runtime still live with the Stats of each submission. The
// runtime runs in lockstep, on the engine the harness tables come from, so
// two runs export the same trace and metrics.
func runObserved(cfg charm.Config, workload string, observe func(*charm.Runtime)) (*charm.Runtime, []charm.Stats) {
	cfg.Deterministic = true
	rt, err := charm.Init(cfg)
	if err != nil {
		fatal(err)
	}
	if observe != nil {
		observe(rt)
	}

	var stats []charm.Stats
	switch workload {
	case "quickstart":
		// The Example_quickstart kernel: private-segment writes then a
		// shared full scan, so both local and cross-chiplet traffic show up.
		const size = 1 << 20
		data := rt.Alloc(size)
		seg := int64(size / rt.Workers())
		stats = append(stats, rt.AllDo(func(ctx *charm.Ctx) {
			own := data + charm.Addr(int64(ctx.Worker())*seg)
			ctx.Write(own, seg)
			ctx.Read(data, size)
			ctx.Yield()
		}))
	case "phases":
		l3 := rt.Topology().L3PerChiplet
		for _, size := range []int64{l3 / 2, 8 * l3, l3 / 2} {
			data := rt.AllocPolicy(size, charm.FirstTouch, 0)
			seg := size / int64(rt.Workers())
			stats = append(stats, rt.AllDo(func(ctx *charm.Ctx) {
				own := data + charm.Addr(int64(ctx.Worker())*seg)
				for r := 0; r < 800; r++ {
					ctx.Read(own, seg)
					ctx.Write(own, seg)
					ctx.Yield()
				}
			}))
			rt.Free(data)
		}
	case "bfs":
		g := graph.Kronecker(graph.GenConfig{LogVertices: 13, EdgeFactor: 16, Seed: 42})
		b := graph.Bind(rt, g, 128)
		b.BFS(0)
	default:
		fmt.Fprintf(os.Stderr, "charm-obs: unknown workload %q\n", workload)
		os.Exit(2)
	}
	return rt, stats
}

func cmdTrace(args []string) {
	fs := flag.NewFlagSet("charm-obs trace", flag.ExitOnError)
	workers, workload := commonFlags(fs)
	out := fs.String("o", "trace.json", "output file")
	fs.Parse(args)

	rt := runWorkload(*workers, *workload)
	defer rt.Finalize()

	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := rt.WriteChromeTrace(f); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s (%d tasks, %d migrations, final virtual time %.3f ms)\n",
		*out, rt.Counter(charm.TaskRun), rt.Counter(charm.Migration),
		float64(rt.Now())/1e6)
}

func cmdMetrics(args []string) {
	fs := flag.NewFlagSet("charm-obs metrics", flag.ExitOnError)
	workers, workload := commonFlags(fs)
	prom := fs.String("prom", "-", `Prometheus text output file ("-" = stdout, "" = skip)`)
	jsonOut := fs.String("json", "", `JSON output file ("-" = stdout, "" = skip)`)
	fs.Parse(args)

	rt := runWorkload(*workers, *workload)
	defer rt.Finalize()

	if *prom != "" {
		if err := writeTo(*prom, rt.WriteMetricsPrometheus); err != nil {
			fatal(err)
		}
	}
	if *jsonOut != "" {
		if err := writeTo(*jsonOut, rt.WriteMetricsJSON); err != nil {
			fatal(err)
		}
	}
}

func cmdTop(args []string) {
	fs := flag.NewFlagSet("charm-obs top", flag.ExitOnError)
	workers, workload := commonFlags(fs)
	fs.Parse(args)

	rt := runWorkload(*workers, *workload)
	defer rt.Finalize()
	snap := rt.MetricsSnapshot()

	fmt.Printf("virtual time %.3f ms, %d workers, workload %s\n\n",
		float64(snap.T)/1e6, *workers, *workload)

	// Per-chiplet table from the chiplet-labelled samples.
	type row struct {
		hits, misses, evicts        float64
		fillLocal, fillRemote, dram float64
	}
	rows := map[int]*row{}
	chip := func(s *obs.Sample) (*row, bool) {
		c, ok := s.Labels["chiplet"]
		if !ok {
			return nil, false
		}
		n, err := strconv.Atoi(c)
		if err != nil {
			return nil, false
		}
		r := rows[n]
		if r == nil {
			r = &row{}
			rows[n] = r
		}
		return r, true
	}
	for i := range snap.Samples {
		s := &snap.Samples[i]
		r, ok := chip(s)
		if !ok {
			continue
		}
		switch s.Name {
		case "charm_l3_hits_total":
			r.hits = s.Value
		case "charm_l3_misses_total":
			r.misses = s.Value
		case "charm_l3_evictions_total":
			r.evicts = s.Value
		case "charm_pmu_fill_l3_local_total":
			r.fillLocal = s.Value
		case "charm_pmu_fill_l3_remote_near_total",
			"charm_pmu_fill_l3_remote_far_total",
			"charm_pmu_fill_l3_remote_socket_total":
			r.fillRemote += s.Value
		case "charm_pmu_fill_dram_local_total", "charm_pmu_fill_dram_remote_total":
			r.dram += s.Value
		}
	}
	ids := make([]int, 0, len(rows))
	for id := range rows {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	fmt.Println("chiplet   l3-hits  l3-miss  hit%   evicts  fill-l3-local  fill-l3-remote  fill-dram")
	for _, id := range ids {
		r := rows[id]
		hitPct := 0.0
		if r.hits+r.misses > 0 {
			hitPct = 100 * r.hits / (r.hits + r.misses)
		}
		fmt.Printf("%7d %9.0f %8.0f %5.1f %8.0f %14.0f %15.0f %10.0f\n",
			id, r.hits, r.misses, hitPct, r.evicts, r.fillLocal, r.fillRemote, r.dram)
	}

	// Utilization gauges (fabric links, memory channels) at snapshot time.
	var utils []string
	for i := range snap.Samples {
		s := &snap.Samples[i]
		if s.Name == "charm_fabric_occupancy" || s.Name == "charm_mem_bandwidth_util" {
			if s.Value > 0 {
				utils = append(utils, fmt.Sprintf("  %-28s %.3f", s.Key(), s.Value))
			}
		}
	}
	if len(utils) > 0 {
		fmt.Println("\nnon-idle fabric/memory utilization at snapshot:")
		fmt.Println(strings.Join(utils, "\n"))
	}

	// Task latency summary from the histogram.
	for i := range snap.Samples {
		s := &snap.Samples[i]
		if s.Name == "charm_task_latency_ns" && s.Hist != nil && s.Hist.Count > 0 {
			fmt.Printf("\ntasks: %d, mean latency %.0f ns\n",
				s.Hist.Count, float64(s.Hist.Sum)/float64(s.Hist.Count))
		}
	}
}

// cmdFabric runs a workload on a spec-built machine and prints the
// per-link interconnect table from the fabric's link telemetry: bytes
// moved, queueing delay absorbed, share of total fabric traffic, and the
// snapshot-time occupancy gauge. -topo first renders the link map — which
// chiplets (and kinds) every link joins — so the hot links can be read
// against the interconnect's shape.
func cmdFabric(args []string) {
	fs := flag.NewFlagSet("charm-obs fabric", flag.ExitOnError)
	workers, workload := commonFlags(fs)
	spec := fs.String("spec", "het-mesh",
		`topo spec or preset (e.g. "mesh:4x2,fast=2,eff=4,accel=2", "ring:4x2", "hub")`)
	showMap := fs.Bool("topo", false, "render the link map before the table")
	fs.Parse(args)

	rt := runWorkloadOn(charm.Config{
		TopoSpec:       *spec,
		Workers:        *workers,
		CacheScale:     256,
		SchedulerTimer: 25_000,
	}, *workload)
	defer rt.Finalize()

	fab := rt.Machine().Fabric
	links := fab.Links()
	snap := rt.MetricsSnapshot()
	fmt.Printf("spec %s (fabric %s), %d links, workload %s, virtual time %.3f ms\n",
		*spec, fab.Kind(), len(links), *workload, float64(snap.T)/1e6)

	if *showMap {
		fmt.Printf("\nlink map:\n")
		for _, l := range links {
			fmt.Printf("  %-12s %s\n", l.Name, linkEnds(rt.Topology(), l))
		}
	}

	// Per-link counters from the already-collected telemetry, keyed by the
	// "link" label that Fabric.Instrument stamps on every sample.
	type row struct {
		bytes, delay, occ float64
	}
	rows := map[string]*row{}
	get := func(s *obs.Sample) *row {
		name, ok := s.Labels["link"]
		if !ok {
			return nil
		}
		r := rows[name]
		if r == nil {
			r = &row{}
			rows[name] = r
		}
		return r
	}
	var total float64
	for i := range snap.Samples {
		s := &snap.Samples[i]
		switch s.Name {
		case "charm_fabric_bytes_total":
			if r := get(s); r != nil {
				r.bytes = s.Value
				total += s.Value
			}
		case "charm_fabric_queue_delay_ns_total":
			if r := get(s); r != nil {
				r.delay = s.Value
			}
		case "charm_fabric_occupancy":
			if r := get(s); r != nil {
				r.occ = s.Value
			}
		}
	}

	fmt.Println("\nlink          endpoints                                      bytes  share%  queue-delay-us  occupancy")
	for _, l := range links {
		r := rows[l.Name]
		if r == nil {
			r = &row{}
		}
		share := 0.0
		if total > 0 {
			share = 100 * r.bytes / total
		}
		fmt.Printf("%-12s  %-38s %12.0f  %6.2f  %14.1f  %9.3f\n",
			l.Name, linkEnds(rt.Topology(), l), r.bytes, share, r.delay/1000, r.occ)
	}
	fmt.Printf("\ntotal fabric traffic: %.0f bytes across %d links\n", total, len(links))
}

// linkEnds renders a link's endpoints for the fabric table and link map:
// the chiplets it joins (with their kinds on a heterogeneous machine), the
// I/O-die hub for a star spoke, or the owning socket for an external link.
func linkEnds(topo *charm.Topology, l charm.FabricLink) string {
	kind := func(ch topology.ChipletID) string {
		if topo.Heterogeneous() {
			return fmt.Sprintf("%d(%s)", ch, topo.KindOf(ch))
		}
		return strconv.Itoa(int(ch))
	}
	switch {
	case l.Socket >= 0:
		return fmt.Sprintf("socket %d <-> remote socket", l.Socket)
	case l.A == l.B:
		return fmt.Sprintf("chiplet %s <-> I/O die", kind(l.A))
	default:
		return fmt.Sprintf("chiplet %s <-> chiplet %s", kind(l.A), kind(l.B))
	}
}

// ovFlags registers the flags the job-service subcommands share.
func ovFlags(fs *flag.FlagSet) (load *float64, thermal *bool) {
	load = fs.Float64("load", 2, "arrival rate as a multiple of machine capacity")
	thermal = fs.Bool("thermal", false, "thermally throttle chiplet 1 by 3x mid-run")
	return
}

// serve runs one service scenario to the drain and returns it with the
// runtime still live: the post-mortems read the tracer, the SLO log and the
// lease map (caller finalizes).
func serve(s scenario.Scenario, hook func(*charm.Runtime)) *scenario.Run {
	run, err := s.Run(hook)
	if err != nil {
		fatal(err)
	}
	return run
}

// serveOverload serves the harness overload scenario under deadline-aware
// shedding with breakers, per-priority SLOs, metrics and tracing on.
func serveOverload(load float64, thermal bool) *scenario.Run {
	return serve(scenario.Overload(scenario.OverloadParams{
		Policy:   charm.AdmitShed,
		QueueCap: scenario.OverloadQueueCap,
		Load:     load,
		Breakers: true,
		Thermal:  thermal,
		SLO:      true,
	}), func(rt *charm.Runtime) {
		rt.EnableMetrics(true)
		rt.EnableTracing(true)
	})
}

func cmdSLO(args []string) {
	fs := flag.NewFlagSet("charm-obs slo", flag.ExitOnError)
	load, thermal := ovFlags(fs)
	fs.Parse(args)

	run := serveOverload(*load, *thermal)
	defer run.RT.Finalize()
	now := run.RT.Engine().MaxWorkerClock()
	st := run.Svc.SLOStatus(now)
	stats := run.Stats

	fmt.Printf("overload scenario: load %gx, thermal=%v, %d jobs "+
		"(completed %d, met %d, shed %d, expired %d), virtual time %.3f ms\n\n",
		*load, *thermal, stats.Submitted, stats.Completed, stats.Met,
		stats.Shed, stats.Expired, float64(now)/1e6)
	fmt.Println("class  target   achieved  good   bad   fast-burn  slow-burn  firing  alerts")
	for _, s := range st {
		fmt.Printf("%5d  %6.3f%%  %7.3f%%  %4d  %4d  %9.2f  %9.2f  %6v  %6d\n",
			s.Class, 100*s.Target, 100*s.Achieved, s.Good, s.Bad,
			s.FastBurn, s.SlowBurn, s.Firing, s.Alerts)
	}
	alerts := run.Svc.SLOAlerts()
	if len(alerts) > 0 {
		fmt.Println("\nalert log (virtual time order):")
		for _, a := range alerts {
			verb := "cleared"
			if a.Firing {
				verb = "FIRED"
			}
			fmt.Printf("  t=%-10d class %d %-7s (fast %.2f, slow %.2f)\n",
				a.T, a.Class, verb, a.FastBurn, a.SlowBurn)
		}
	}
}

func cmdCritpath(args []string) {
	fs := flag.NewFlagSet("charm-obs critpath", flag.ExitOnError)
	load, thermal := ovFlags(fs)
	top := fs.Int("top", 10, "slowest jobs to list")
	fs.Parse(args)

	rt := serveOverload(*load, *thermal).RT
	defer rt.Finalize()

	fmt.Printf("overload scenario: load %gx, thermal=%v\n\n", *load, *thermal)
	rep := charm.BuildCritPathReport(rt.Tracer())
	rep.WriteText(os.Stdout, *top)
	if ids := rt.Tracer().RetainedIDs(); len(ids) > 0 {
		fmt.Printf("\nflight recorder retained %d SLO-violating traces; "+
			"inspect one with: charm-obs job <id>\n", len(ids))
	}
}

func cmdJob(args []string) {
	fs := flag.NewFlagSet("charm-obs job", flag.ExitOnError)
	load, thermal := ovFlags(fs)
	if len(args) < 1 || strings.HasPrefix(args[0], "-") {
		fmt.Fprintln(os.Stderr, "usage: charm-obs job <trace-id> [-load F] [-thermal]")
		os.Exit(2)
	}
	id, err := strconv.ParseUint(args[0], 10, 64)
	if err != nil {
		fatal(fmt.Errorf("charm-obs: bad trace ID %q: %w", args[0], err))
	}
	fs.Parse(args[1:])

	rt := serveOverload(*load, *thermal).RT
	defer rt.Finalize()
	tr := rt.Tracer().TraceOf(charm.TraceID(id))
	if len(tr.Spans) == 0 {
		fmt.Fprintf(os.Stderr, "charm-obs: no spans for trace %d; "+
			"run 'charm-obs critpath' to list live trace IDs\n", id)
		os.Exit(1)
	}

	fmt.Printf("trace %d (%d spans):\n", id, len(tr.Spans))
	fmt.Println("  kind         start        end          stage  worker  chiplet  arg      arg2")
	for _, s := range tr.Spans {
		fmt.Printf("  %-11s  %-11d  %-11d  %5d  %6d  %7d  %-7d  %d\n",
			s.Kind, s.Start, s.End, s.Stage, s.Worker, s.Chiplet, s.Arg, s.Arg2)
	}
	if b, ok := charm.AnalyzeTrace(tr); ok {
		fmt.Println()
		b.WriteJobText(os.Stdout)
	} else {
		fmt.Println("\nno critical path: the job never dispatched a stage " +
			"(shed, rejected, or expired in the admission queue)")
	}
}

// cmdPower runs the harness thermal-cliff scenario with the closed-loop
// thermal/energy plane on and prints the per-chiplet post-mortem: the
// default is the thermal table's closed-loop row, -blind its static-rr
// row. Chiplet 0 is a hot compute die (8x the dynamic energy per
// compute-ns of its efficient siblings), so dispatch policy decides whether
// the governor stays in the nominal band or rides its throttle/park tiers.
func cmdPower(args []string) {
	fs := flag.NewFlagSet("charm-obs power", flag.ExitOnError)
	load := fs.Float64("load", 0.7, "arrival rate as a multiple of machine capacity")
	blind := fs.Bool("blind", false, "round-robin dispatch instead of thermal-aware load-aware placement")
	fs.Parse(args)

	placement := charm.PlaceLoadAware
	name := "load-aware"
	if *blind {
		placement = charm.PlaceRoundRobin
		name = "round-robin"
	}
	sc := scenario.Thermal(placement, true, *load)
	run := serve(sc, nil)
	defer run.RT.Finalize()

	stats, snap, pcfg := run.Stats, run.Power, sc.Config.Power
	fmt.Printf("thermal/energy plane: load %gx, dispatch %s, %d jobs "+
		"(completed %d, met %d, shed %d, expired %d), virtual time %.3f ms\n",
		*load, name, stats.Submitted, stats.Completed, stats.Met,
		stats.Shed, stats.Expired, float64(snap.At)/1e6)
	fmt.Printf("peak junction temperature across the package: %.1f C "+
		"(setpoints: soft %.0f, hard %.0f, park %.0f)\n\n",
		float64(snap.MaxTempMilliC)/1000, pcfg.SoftC, pcfg.HardC, pcfg.ParkC)
	fmt.Println("chiplet  model  temp_C  watts  energy_mJ  soft  hard  parks")
	var totalPJ int64
	for c := range snap.TempMilliC {
		m := pcfg.Models[c%len(pcfg.Models)]
		totalPJ += snap.EnergyPJ[c]
		fmt.Printf("%7d  %-5s  %6.1f  %5.2f  %9.3f  %4d  %4d  %5d\n",
			c, m.Name, float64(snap.TempMilliC[c])/1000,
			float64(snap.WattsMilli[c])/1000,
			float64(snap.EnergyPJ[c])/1e9,
			snap.SoftEvents[c], snap.HardEvents[c], snap.ParkEvents[c])
	}
	fmt.Printf("\ntotal energy: %.3f mJ\n", float64(totalPJ)/1e9)
}

// cmdTenants runs the harness multi-tenant isolation scenario (tenant A's
// diurnal stream well inside its 2-chiplet quota, tenant B flash-crowding
// to -factor times its contracted rate) and prints the per-tenant
// post-mortem: goodput, p99, quota utilization, dispatch share, the lease
// map, and the shed/reject/rate-limit breakdown.
func cmdTenants(args []string) {
	fs := flag.NewFlagSet("charm-obs tenants", flag.ExitOnError)
	factor := fs.Int("factor", scenario.TenantBFactor, "tenant B's flash-crowd rate as a multiple of its quota rate")
	withFault := fs.Bool("fault", false, "offline chiplet 0 (leased) mid-run to force a lease rebalance")
	fs.Parse(args)

	run := serve(scenario.Tenants(scenario.Isolated, *withFault, float64(*factor)), nil)
	defer run.RT.Finalize()
	svc := run.Svc

	stats := svc.TenantStats()
	grants := svc.DispatchGrants()
	var totalGrants int64
	for _, g := range grants {
		totalGrants += g
	}
	fmt.Printf("multi-tenant isolation: B bursting at %dx quota, fault=%v, "+
		"virtual time %.3f ms\n\n", *factor, *withFault,
		float64(run.RT.Engine().MaxWorkerClock())/1e6)
	fmt.Println("tenant  submitted  admitted  completed  met  goodput%  p99_us  " +
		"shed  rejected  rate_lim  leases  quota_util%  dispatch%")
	for i, st := range stats {
		goodput := 0.0
		if st.Submitted > 0 {
			goodput = 100 * float64(st.Met) / float64(st.Submitted)
		}
		quotaUtil := 0.0
		if st.Quota > 0 {
			quotaUtil = 100 * float64(st.Leases) / float64(st.Quota)
		}
		share := 0.0
		if totalGrants > 0 && i < len(grants) {
			share = 100 * float64(grants[i]) / float64(totalGrants)
		}
		fmt.Printf("%6s  %9d  %8d  %9d  %4d  %7.1f  %6.1f  %4d  %8d  %8d  %6d  %10.0f  %8.1f\n",
			st.Name, st.Submitted, st.Admitted, st.Completed, st.Met, goodput,
			run.Tenants[st.Name].P99us(), st.Shed, st.Rejected, st.RateLimited,
			st.Leases, quotaUtil, share)
	}

	// The chiplet lease map: which tenant owns which chiplet now.
	names := svc.TenantNames()
	owners := svc.LeaseOwners()
	fmt.Print("\nlease map:")
	for ch, o := range owners {
		who := "free"
		if o >= 0 && o < len(names) {
			who = names[o]
		}
		fmt.Printf("  chiplet %d: %s", ch, who)
	}
	fmt.Println()
	for _, st := range stats {
		fmt.Printf("tenant %s lease churn: %d grants, %d reclaims\n",
			st.Name, st.LeaseGrants, st.LeaseReclaims)
	}
}

// writeTo opens path ("-" = stdout) and applies write.
func writeTo(path string, write func(w io.Writer) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := write(f); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
