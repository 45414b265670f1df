package harness

import (
	"charm"
	"charm/internal/core"
	"charm/internal/workloads/oltp"
	"charm/internal/workloads/sgd"
	"charm/internal/workloads/streamcluster"
)

// scCores returns the Fig. 9 core sweep.
func scCores() []int { return []int{1, 4, 8, 16, 24, 32, 48, 64, 96, 128} }

// scConfig builds the streamcluster configuration under the options,
// sizing tasks so every worker gets several chunks per phase.
func (o Options) scConfig(replicate bool, workers int) streamcluster.Config {
	points := 1 << (o.GraphScale + 2)
	if o.Full {
		points = 1_000_000
	}
	batch := points / 4
	grain := batch / (workers * 4)
	if grain < 32 {
		grain = 32
	}
	if grain > 512 {
		grain = 512
	}
	return streamcluster.Config{
		Points:          points,
		Dims:            32,
		Batch:           batch,
		CandidateRounds: 6,
		Grain:           grain,
		Seed:            9,
		ReplicatePoints: replicate,
	}
}

// fig9Run measures one system's streamcluster makespan; SHOAL replicates
// the points per NUMA node.
func (o Options) fig9Run(sys charm.System, workers int) int64 {
	rt := o.runtime(o.amd(), sys, workers)
	defer rt.Finalize()
	res := streamcluster.Run(rt, o.scConfig(sys == charm.SystemSHOAL, workers))
	return res.Makespan
}

// fig9NoSupport measures the baseline the paper normalizes to: the same
// core count but without any architecture-aware runtime support (OS-style
// scatter, churned assignment, main-thread allocation on node 0).
func (o Options) fig9NoSupport(workers int) int64 {
	rt := o.start(charm.Config{
		Topology:    o.amd(),
		CacheScale:  o.CacheScale,
		Workers:     workers,
		System:      charm.SystemNaive,
		SampleShift: o.SampleShift,
	})
	defer rt.Finalize()
	cfg := o.scConfig(false, workers)
	cfg.CentralAlloc = true
	return streamcluster.Run(rt, cfg).Makespan
}

// Fig9 regenerates the streamcluster speedup curves: CHARM vs SHOAL,
// normalized to the single-core unoptimized run.
func (o Options) Fig9() *Table {
	t := &Table{
		ID:     "fig9",
		Title:  "Streamcluster speedup over no-runtime-support execution",
		Header: []string{"cores", "charm", "shoal"},
		Notes:  "CHARM peaks ~21x around 24 cores, SHOAL ~16x around 32; both decay toward 1x at 128 as fragmentation dominates",
	}
	// Normalize to the serial unoptimized execution: the rise-peak-decline
	// curve of the paper emerges as parallel overheads erode the gains.
	base := o.fig9NoSupport(1)
	for _, c := range scCores() {
		charmT := o.fig9Run(charm.SystemCHARM, c)
		shoalT := o.fig9Run(charm.SystemSHOAL, c)
		t.Rows = append(t.Rows, []string{
			i64(int64(c)),
			f1(float64(base) / float64(charmT)),
			f1(float64(base) / float64(shoalT)),
		})
	}
	return t
}

// Tab2 regenerates the memory/cache access comparison between CHARM and
// SHOAL across core counts (x1000 accesses).
func (o Options) Tab2() *Table {
	t := &Table{
		ID:    "tab2",
		Title: "Memory and cache accesses (x1000): CHARM vs SHOAL",
		Header: []string{"cores", "localchip CHARM", "localchip SHOAL",
			"remotechip CHARM", "remotechip SHOAL", "mainmem CHARM", "mainmem SHOAL"},
		Notes: "at low core counts SHOAL reaches main memory far more than CHARM; access patterns converge at 64 cores",
	}
	for _, c := range []int{8, 16, 32, 64} {
		var localchip, remotechip, mainmem [2]int64
		for i, sys := range []charm.System{charm.SystemCHARM, charm.SystemSHOAL} {
			rt := o.runtime(o.amd(), sys, c)
			streamcluster.Run(rt, o.scConfig(sys == charm.SystemSHOAL, c))
			localchip[i] = rt.Counter(charm.FillL3Local)
			remotechip[i] = rt.Counter(charm.FillL3RemoteNear) + rt.Counter(charm.FillL3RemoteFar)
			mainmem[i] = rt.Counter(charm.FillDRAMLocal) + rt.Counter(charm.FillDRAMRemote)
			rt.Finalize()
		}
		t.Rows = append(t.Rows, []string{i64(int64(c)),
			i64(localchip[0] / 1000), i64(localchip[1] / 1000),
			i64(remotechip[0] / 1000), i64(remotechip[1] / 1000),
			i64(mainmem[0] / 1000), i64(mainmem[1] / 1000)})
	}
	return t
}

// sgdConfig builds the §5.5 problem under the options.
func (o Options) sgdConfig() sgd.Config {
	samples, features := 1<<(o.GraphScale-4), 512
	if o.Full {
		samples, features = 10_000, 8192
	}
	return sgd.Config{Samples: samples, Features: features, Epochs: 2, Grain: 8, Seed: 11}
}

// Fig11 regenerates the SGD throughput comparison: loss and gradient GB/s
// for DimmWitted's native strategies, DW+CHARM, and DW+CHARM+std::async.
func (o Options) Fig11() *Table {
	t := &Table{
		ID:     "fig11",
		Title:  "SGD logistic regression throughput (GB/s)",
		Header: []string{"system", "cores", "loss GB/s", "grad GB/s"},
		Notes:  "DW+CHARM scales with cores (paper peaks 165/106 GB/s); DW natives plateau (best ~50/40); std::async trails CHARM",
	}
	cfg := o.sgdConfig()
	cores := []int{8, 16, 32, 64, 128}
	type variant struct {
		name     string
		sys      charm.System
		strategy sgd.Strategy
	}
	variants := []variant{
		{"DW+CHARM", charm.SystemCHARM, sgd.PerNode},
		{"DW-per-core", charm.SystemRING, sgd.PerCore},
		{"DW-NUMA-node", charm.SystemRING, sgd.PerNode},
		{"DW-per-machine", charm.SystemRING, sgd.PerMachine},
		{"DW+CHARM+async", charm.SystemOSAsync, sgd.PerNode},
	}
	for _, v := range variants {
		for _, c := range cores {
			rt := o.runtime(o.amd(), v.sys, c)
			res := sgd.Run(rt, cfg, v.strategy)
			rt.Finalize()
			t.Rows = append(t.Rows, []string{v.name, i64(int64(c)),
				f2(res.LossGBps()), f2(res.GradGBps())})
		}
	}
	return t
}

// Fig12 regenerates the thread-concurrency trace during SGD at 32 cores:
// live task/thread counts at every scheduler tick of the run's virtual time.
func (o Options) Fig12() *Table {
	t := &Table{
		ID:     "fig12",
		Title:  "Thread concurrency during SGD (32 cores)",
		Header: []string{"system", "samples", "mean live", "min", "max"},
		Notes:  "std::async fluctuates well below core count (paper mean 16.2); CHARM holds a stable count near cores (31.1)",
	}
	for _, v := range []struct {
		name string
		sys  charm.System
	}{
		{"DW+CHARM", charm.SystemCHARM},
		{"DW+std::async", charm.SystemOSAsync},
	} {
		rt := o.runtime(o.amd(), v.sys, 32)
		rt.EnableProfiler(true)
		sgd.Run(rt, o.sgdConfig(), sgd.PerNode)
		_, samples := core.LiveTaskSamples(rt.Tracer().Spans(), o.SchedulerTimer)
		rt.Finalize()
		var sum, min, max int64
		min = 1 << 62
		for _, v := range samples {
			sum += v
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		mean := 0.0
		if len(samples) > 0 {
			mean = float64(sum) / float64(len(samples))
		} else {
			min = 0
		}
		t.Rows = append(t.Rows, []string{v.name, i64(int64(len(samples))),
			f1(mean), i64(min), i64(max)})
	}
	return t
}

// Fig14 regenerates the OLTP commits/s comparison between the LocalCache
// and DistributedCache static policies on YCSB and TPC-C.
func (o Options) Fig14() *Table {
	t := &Table{
		ID:     "fig14",
		Title:  "OLTP commits/s: LocalCache vs DistributedCache",
		Header: []string{"workload", "cores", "local kc/s", "distributed kc/s", "ratio"},
		Notes:  "throughput nearly identical across placements at every core count (commit/sync bound)",
	}
	for _, wl := range []string{"ycsb", "tpcc"} {
		for _, c := range []int{8, 16, 32, 64} {
			var vals [2]float64
			for i, local := range []bool{true, false} {
				rt := o.oltpRuntime(local, c)
				e := oltp.New(rt, oltp.Config{
					Records: 1 << (o.GraphScale + 2), TxPerWorker: 400, Seed: 5,
					Warehouses: 8, Items: 512,
				})
				var res oltp.Result
				if wl == "ycsb" {
					res = e.RunYCSB()
				} else {
					res = e.RunTPCC()
				}
				vals[i] = res.CommitsPerSec() / 1000
				rt.Finalize()
			}
			t.Rows = append(t.Rows, []string{wl, i64(int64(c)),
				f1(vals[0]), f1(vals[1]), f2(vals[0] / vals[1])})
		}
	}
	return t
}

// oltpRuntime builds a statically placed runtime: compact (LocalCache) or
// chiplet-spread (DistributedCache), mirroring the §5.7 ERMIA policies.
func (o Options) oltpRuntime(local bool, workers int) *charm.Runtime {
	rt := o.start(charm.Config{
		Topology:    o.amd(),
		CacheScale:  o.CacheScale,
		Workers:     workers,
		System:      charm.SystemStaticCompact,
		SampleShift: o.SampleShift,
	})
	if !local {
		spreadChiplets(rt, rt.Topology().ChipletsPerNode)
	}
	return rt
}

// spreadChiplets statically moves every worker of rt to spread rate r
// through Alg. 2.
func spreadChiplets(rt *charm.Runtime, r int) {
	onEachWorker(rt, func(w *core.Worker) {
		w.SetSpreadRate(r)
		core.UpdateLocation(w)
	})
}
