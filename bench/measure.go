package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// metric is one reported number. Timings carry the spread and the sample
// count beside the median.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Min   float64 `json:"min,omitempty"`
	Max   float64 `json:"max,omitempty"`
	N     int     `json:"n,omitempty"`
}

// metricSpec names a per-layer metric and its unit; BENCHMARK.json lists the same
// names and units, and bench_test.go checks that the two agree.
type metricSpec struct{ name, unit string }

// tracedSpecs are the per-layer metrics one workload's traced section
// yields; probeSpecs (probes.go) are the workload-independent rest.
var tracedSpecs = func() []metricSpec {
	var s []metricSpec
	for _, l := range cpuLayers {
		s = append(s, metricSpec{l + ".cpu_s", "s"})
	}
	s = append(s, metricSpec{"profile.total_cpu_s", "s"})
	for _, p := range phaseNames {
		s = append(s, metricSpec{"phase." + p + "_s", "s"})
	}
	return append(s, []metricSpec{
		{"trace.overhead_pct", "%"},
		{"accesses_per_s", "1/s"}, {"jobs_per_s", "1/s"},
		{"sim_makespan_ms", "ms"}, {"sim_p99_us", "us"}, {"sim_remote_fill_pct", "%"},
		{"pmu.fill_l2", "count"}, {"pmu.fill_l3_local", "count"},
		{"pmu.fill_l3_remote", "count"}, {"pmu.fill_dram", "count"},
		{"pmu.bytes_mb", "MB"}, {"cache.hit_ratio", "ratio"},
		{"core.tasks", "count"}, {"core.steals", "count"},
		{"core.steal_remote_ratio", "ratio"}, {"core.migrations", "count"},
		{"core.ctx_switches", "count"},
		{"core.job.submitted", "count"}, {"core.job.completed", "count"},
		{"core.job.met_ratio", "ratio"}, {"core.job.shed", "count"},
		{"core.job.allocs_per_job", "count"},
		{"tenant.rate_limited", "count"}, {"tenant.lease_events", "count"},
		{"fabric.link_bytes_mb", "MB"}, {"fabric.queue_delay_us", "us"},
		{"fabric.max_link_util_milli", "milli"},
		{"power.max_temp_mC", "mC"}, {"power.energy_mJ", "mJ"},
		{"obs.spans", "count"}, {"obs.series", "count"},
		{"vtime.makespan_ms", "ms"}, {"vtime.makespan_spread_pct", "%"},
		{"sim.host_ns_per_access", "ns"},
	}...)
}()

var phaseNames = []string{"gen", "init", "alloc", "run", "collect", "export", "finalize"}

// accessPathLayers are the layers under sim.Machine.Access.
var accessPathLayers = []string{"sim", "cache", "mem", "fabric", "topology", "pmu"}

// report is one workload's results.
type report struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Passes    int               `json:"passes"`
	OpsTotal  int               `json:"ops_total"`
	OpsFailed int               `json:"ops_failed"`
	SimDigest string            `json:"sim_digest,omitempty"`
	Failures  []string          `json:"failures,omitempty"`
	EndToEnd  map[string]metric `json:"end_to_end,omitempty"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
}

// options select what one workload run measures.
type options struct {
	seed   uint64
	sz     sizes
	window time.Duration // measuring window of the timed passes
	passes int           // minimum timed passes
	e2e    bool          // end-to-end section: set-up x3, timed passes
	traced bool          // traced section: spans, counters, CPU profile
	probes bool          // probe section
	// Each probe reports the median of probeRounds rounds of probeOp each.
	probeRounds int
	probeOp     time.Duration
}

// passSample is one timed pass.
type passSample struct {
	wall    float64 // host seconds, Init through Finalize
	allocMB float64
	allocsK float64
	sim     simStats
}

// verify runs a pass's untimed checks and folds them into the report. For
// a deterministic workload every pass must reproduce the first digest.
func (r *report) verify(w *workload, o *outcome) {
	checks, fails := o.check()
	if w.det {
		checks++
		d := o.digestString()
		if r.SimDigest == "" {
			r.SimDigest = d
		} else if d != r.SimDigest {
			fails = append(fails, fmt.Sprintf("%s: sim_digest %s differs from the first pass's %s", w.name, d, r.SimDigest))
		}
	}
	r.OpsTotal += checks
	r.OpsFailed += len(fails)
	r.Failures = append(r.Failures, fails...)
}

// timedPasses runs untraced passes one after another (closed loop, one
// client) until both the window and the minimum count are met.
func (r *report) timedPasses(w *workload, in any, window time.Duration, min int) []passSample {
	var out []passSample
	var before, after runtime.MemStats
	for start := time.Now(); len(out) < min || time.Since(start) < window; {
		runtime.GC()
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		o := w.run(in, nil)
		wall := time.Since(t0).Seconds()
		runtime.ReadMemStats(&after)
		out = append(out, passSample{
			wall:    wall,
			allocMB: float64(after.TotalAlloc-before.TotalAlloc) / 1e6,
			allocsK: float64(after.Mallocs-before.Mallocs) / 1e3,
			sim:     o.sim,
		})
		r.verify(w, o)
	}
	return out
}

// measure runs one workload's sections in this process and reports them.
func measure(w *workload, opt options) *report {
	r := &report{Workload: w.name, Seed: opt.seed}

	// Set-up: input generation plus one untimed warm-up pass. The
	// end-to-end section repeats it so setup_s is a median.
	setups := 1
	if opt.e2e {
		setups = 3
	}
	var in any
	var setupS []float64
	var genS float64
	for i := 0; i < setups; i++ {
		runtime.GC()
		t0 := time.Now()
		in = w.gen(opt.seed, opt.sz)
		genS = time.Since(t0).Seconds()
		o := w.run(in, nil)
		setupS = append(setupS, time.Since(t0).Seconds())
		r.verify(w, o)
	}

	window := opt.window
	if !opt.e2e {
		window /= 3 // the traced section only needs a baseline
	}
	passes := r.timedPasses(w, in, window, opt.passes)
	r.Passes = len(passes)
	col := func(f func(p passSample) float64) []float64 {
		v := make([]float64, len(passes))
		for i, p := range passes {
			v[i] = f(p)
		}
		return v
	}
	walls := col(func(p passSample) float64 { return p.wall })
	allocsK := col(func(p passSample) float64 { return p.allocsK })

	if opt.e2e {
		r.EndToEnd = map[string]metric{
			"wall_s":      summarize(walls, "s"),
			"setup_s":     summarize(setupS, "s"),
			"tasks_per_s": summarize(col(func(p passSample) float64 { return float64(p.sim.tasks) / p.wall }), "1/s"),
			"alloc_mb":    summarize(col(func(p passSample) float64 { return p.allocMB }), "MB"),
			"allocs_k":    summarize(allocsK, "k"),
			"peak_rss_mb": {Value: peakRSSMB(), Unit: "MB"},
		}
	}
	if !opt.traced && !opt.probes {
		return r
	}

	pl := map[string]float64{}
	if opt.traced {
		first := passes[0].sim
		makespans := col(func(p passSample) float64 { return float64(p.sim.makespanNS) / 1e6 })
		pl["accesses_per_s"] = median(col(func(p passSample) float64 { return float64(p.sim.accesses) / p.wall }))
		pl["jobs_per_s"] = median(col(func(p passSample) float64 { return float64(p.sim.jobs) / p.wall }))
		pl["sim_makespan_ms"] = median(makespans)
		pl["sim_p99_us"] = float64(nearestRank(first.lats, 99)) / 1e3
		pl["sim_remote_fill_pct"] = first.remoteFillPct()
		if m := median(makespans); m > 0 {
			lo, hi := minMax(makespans)
			pl["vtime.makespan_spread_pct"] = 100 * (hi - lo) / m
		}
		if first.jobs > 0 {
			pl["core.job.allocs_per_job"] = 1e3 * median(allocsK) / float64(first.jobs)
		}
		pl["phase.gen_s"] = genS
		r.tracedPasses(w, in, opt.window/3, median(walls), pl)
	}
	if opt.probes {
		checks, fails := runProbes(opt.probeRounds, opt.probeOp, pl)
		r.OpsTotal += checks
		r.OpsFailed += len(fails)
		r.Failures = append(r.Failures, fails...)
	}

	r.PerLayer = map[string]metric{}
	var specs []metricSpec
	if opt.traced {
		specs = append(specs, tracedSpecs...)
	}
	if opt.probes {
		specs = append(specs, probeSpecs()...)
	}
	for _, s := range specs {
		r.PerLayer[s.name] = metric{Value: pl[s.name], Unit: s.unit}
	}
	return r
}

// tracedPasses repeats the pass under a 100 Hz CPU profile with phase
// spans and the metrics registry on, and files the per-layer numbers into
// pl. CPU and phase times are per pass.
func (r *report) tracedPasses(w *workload, in any, window time.Duration, untracedWall float64, pl map[string]float64) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		r.fail("cpu profile: " + err.Error())
		return
	}
	tr := newTracer()
	var outs []*outcome
	var walls []float64
	for start := time.Now(); len(outs) == 0 || time.Since(start) < window; {
		root := tr.begin("pass")
		o := w.run(in, tr)
		tr.end(root)
		s := tr.spans[root]
		walls = append(walls, (s.end - s.start).Seconds())
		outs = append(outs, o)
	}
	pprof.StopCPUProfile()
	// Checks run after the profile stops: they are the benchmark's work,
	// and ValidateBFS would otherwise be charged to the workloads layer.
	for _, o := range outs {
		r.verify(w, o)
	}
	n := float64(len(outs))

	samples, err := parseProfile(prof.Bytes())
	if err != nil {
		r.fail(err.Error())
		return
	}
	var total, access int64
	folded := foldProfile(samples)
	for layer, ns := range folded {
		pl[layer+".cpu_s"] = float64(ns) / 1e9 / n
		total += ns
	}
	for _, l := range accessPathLayers {
		access += folded[l]
	}
	pl["profile.total_cpu_s"] = float64(total) / 1e9 / n

	for name, d := range selfTimes(tr.spans) {
		pl["phase."+name+"_s"] = d.Seconds() / n
	}
	pl["trace.overhead_pct"] = 100 * (median(walls) - untracedWall) / untracedWall

	o := outs[0]
	for k, v := range o.counts {
		pl[k] = v
	}
	c := o.counts
	if fills := float64(o.sim.accesses); fills > 0 {
		pl["cache.hit_ratio"] = (c["pmu.fill_l2"] + c["pmu.fill_l3_local"]) / fills
		var accesses float64
		for _, o := range outs {
			accesses += float64(o.sim.accesses)
		}
		pl["sim.host_ns_per_access"] = float64(access) / accesses
	}
	if c["core.steals"] > 0 {
		pl["core.steal_remote_ratio"] = c["core.steals_remote"] / c["core.steals"]
	}
	if c["core.job.completed"] > 0 {
		pl["core.job.met_ratio"] = c["core.job.met"] / c["core.job.completed"]
	}
	pl["vtime.makespan_ms"] = float64(o.sim.makespanNS) / 1e6
}

func (r *report) fail(msg string) {
	r.OpsTotal++
	r.OpsFailed++
	r.Failures = append(r.Failures, msg)
}

// summarize reports the median of vals with min, max and count beside it.
func summarize(vals []float64, unit string) metric {
	lo, hi := minMax(vals)
	return metric{Value: median(vals), Unit: unit, Min: lo, Max: hi, N: len(vals)}
}

func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func minMax(vals []float64) (lo, hi float64) {
	if len(vals) == 0 {
		return 0, 0
	}
	lo, hi = vals[0], vals[0]
	for _, v := range vals[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// peakRSSMB is the process's high-water resident set (VmHWM), 0 where
// /proc is not available.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		var kb float64
		if n, _ := fmt.Sscanf(line, "VmHWM: %f kB", &kb); n == 1 {
			return kb / 1024
		}
	}
	return 0
}
