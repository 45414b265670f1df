package harness

import (
	"charm"
	"charm/internal/core"
	"charm/internal/workloads/graph"
	"charm/internal/workloads/sgd"
	"charm/internal/workloads/spmv"
	"charm/internal/workloads/streamcluster"
)

// Fig1 regenerates the headline summary: CHARM's speedup over the best
// NUMA-aware baseline per benchmark family at 64 cores.
func (o Options) Fig1() *Table {
	t := &Table{
		ID:     "fig1",
		Title:  "CHARM speedup over NUMA-aware baselines (64 cores)",
		Header: []string{"benchmark", "baseline", "speedup"},
		Notes:  "graph 1.8-2.3x, statistical analytics up to 3.9x, streamcluster ~1.3x over SHOAL, OLTP ~1x",
	}
	workers := 64
	g := kronecker(o.GraphScale)

	// Graph benchmarks vs the best of RING/AsymSched/SAM.
	measure := func(sys charm.System, bench string) float64 {
		rt := o.runtime(o.amd(), sys, workers)
		defer rt.Finalize()
		return o.runGraphBenchmark(rt, bench, g)
	}
	for _, bench := range []string{"bfs", "cc", "sssp", "gups"} {
		vC := measure(charm.SystemCHARM, bench)
		best := 0.0
		bestName := ""
		for _, sys := range []charm.System{charm.SystemRING, charm.SystemAsymSched, charm.SystemSAM} {
			if v := measure(sys, bench); v > best {
				best, bestName = v, string(sys)
			}
		}
		t.Rows = append(t.Rows, []string{bench, bestName, f2(vC / best)})
	}

	// Streamcluster vs SHOAL at 16 cores, where the paper's gap peaks
	// (SHOAL's sequential placement is stuck on 2 of 8 chiplets).
	rtC := o.runtime(o.amd(), charm.SystemCHARM, 16)
	cT := streamcluster.Run(rtC, o.scConfig(false, 16)).Makespan
	rtC.Finalize()
	rtS := o.runtime(o.amd(), charm.SystemSHOAL, 16)
	sT := streamcluster.Run(rtS, o.scConfig(true, 16)).Makespan
	rtS.Finalize()
	t.Rows = append(t.Rows, []string{"streamcluster", "shoal", f2(float64(sT) / float64(cT))})

	// SGD vs DimmWitted's best native strategy.
	cfg := o.sgdConfig()
	rtC = o.runtime(o.amd(), charm.SystemCHARM, workers)
	gC := sgd.Run(rtC, cfg, sgd.PerNode).GradGBps()
	rtC.Finalize()
	rtD := o.runtime(o.amd(), charm.SystemRING, workers)
	gD := sgd.Run(rtD, cfg, sgd.PerNode).GradGBps()
	rtD.Finalize()
	t.Rows = append(t.Rows, []string{"sgd", "dimmwitted-numa", f2(gC / gD)})

	// Sparse linear algebra (SpMV) vs RING — the second irregular family
	// the paper's Q4 names.
	spmvCfg := spmv.Config{LogRows: o.GraphScale - 1, Iters: 3, Seed: 7}
	rtC = o.runtime(o.amd(), charm.SystemCHARM, workers)
	sC := spmv.Run(rtC, spmvCfg).GFLOPS()
	rtC.Finalize()
	rtR := o.runtime(o.amd(), charm.SystemRING, workers)
	sR := spmv.Run(rtR, spmvCfg).GFLOPS()
	rtR.Finalize()
	t.Rows = append(t.Rows, []string{"spmv", "ring", f2(sC / sR)})
	return t
}

// Sensitivity regenerates the §4.6 threshold study: sweeping
// RMT_CHIP_ACCESS_RATE around the chosen default and measuring BFS
// throughput at 32 cores.
func (o Options) Sensitivity() *Table {
	t := &Table{
		ID:     "sens",
		Title:  "RMT_CHIP_ACCESS_RATE sensitivity (BFS, 32 cores, MTEPS)",
		Header: []string{"threshold/interval", "mteps", "migrations"},
		Notes:  "performance is flat near the chosen threshold, degrading at extremes (too eager or too inert)",
	}
	g := kronecker(o.GraphScale)
	base := o.SchedulerTimer / 500
	for _, mult := range []int64{1, 4, 16, 64, 256} {
		thr := maxI64(base*mult/16, 1)
		rt := o.start(charm.Config{
			Topology:            o.amd(),
			CacheScale:          o.CacheScale,
			Workers:             32,
			SampleShift:         o.SampleShift,
			SchedulerTimer:      o.SchedulerTimer,
			RemoteFillThreshold: thr,
		})
		b := graph.Bind(rt, g, 128)
		_, res := b.BFS(0)
		mig := rt.Counter(charm.Migration)
		rt.Finalize()
		t.Rows = append(t.Rows, []string{i64(thr), f1(res.TEPS() / 1e6), i64(mig)})
	}
	return t
}

// Ablation regenerates the DESIGN.md ablations: each CHARM mechanism
// disabled in isolation on a representative workload.
func (o Options) Ablation() *Table {
	t := &Table{
		ID:     "abl",
		Title:  "Ablation: CHARM mechanisms on BFS (32 cores, MTEPS) and SGD (GB/s)",
		Header: []string{"variant", "bfs mteps", "sgd grad GB/s"},
		Notes:  "full CHARM leads; static compact loses cache capacity; static spread loses locality; OS threads lose switch overhead",
	}
	g := kronecker(o.GraphScale)
	cfg := o.sgdConfig()

	mkCfg := func(mutate func(*charm.Config)) func() *charm.Runtime {
		return func() *charm.Runtime {
			c := charm.Config{
				Topology:       o.amd(),
				CacheScale:     o.CacheScale,
				Workers:        32,
				SampleShift:    o.SampleShift,
				SchedulerTimer: o.SchedulerTimer,
			}
			if mutate != nil {
				mutate(&c)
			}
			return o.start(c)
		}
	}
	mkSys := func(sys charm.System) func() *charm.Runtime {
		return mkCfg(func(c *charm.Config) { c.System = sys })
	}
	// row measures one variant: BFS and SGD, each on a fresh runtime.
	row := func(name string, mk func() *charm.Runtime) {
		rt := mk()
		b := graph.Bind(rt, g, 128)
		_, res := b.BFS(0)
		rt.Finalize()
		rt2 := mk()
		gr := sgd.Run(rt2, cfg, sgd.PerNode).GradGBps()
		rt2.Finalize()
		t.Rows = append(t.Rows, []string{name, f1(res.TEPS() / 1e6), f2(gr)})
	}
	row("charm-full", mkCfg(nil))
	row("static-compact", mkSys(charm.SystemStaticCompact))
	row("os-threads", mkSys(charm.SystemOSAsync))
	// Cost-model ablation: serialize every miss (no memory-level
	// parallelism) — streaming becomes latency-bound.
	row("no-mlp", mkCfg(func(c *charm.Config) { c.MLP = 1 }))
	// Static spread variant via explicit placement.
	row("static-spread", func() *charm.Runtime { return o.oltpRuntime(false, 32) })
	// Hyperthread-sharing variant: the same 32 workers packed as SMT
	// siblings onto 16 physical cores — the contention §4.6 says CHARM
	// avoids by scheduling physical cores only.
	row("smt-siblings", func() *charm.Runtime {
		rt := mkCfg(func(c *charm.Config) { c.System, c.UseSMT = charm.SystemStaticCompact, true })()
		// Compact placement with worker%cores maps workers 16-31 onto
		// the same cores as 0-15 when we halve the core range: emulate
		// by pinning pairs explicitly.
		onEachWorker(rt, func(w *core.Worker) {
			if id := w.ID(); id >= 16 {
				w.Migrate(charm.CoreID(id - 16))
			}
		})
		return rt
	})
	// Steal-order variant: full CHARM but with topology-oblivious
	// (worker-ID ring) stealing instead of chiplet-first (§4.4).
	row("charm-seq-steal", mkSys(charm.SystemCHARMSeqSteal))
	// NPS4 variant: the same machine partitioned into 8 NUMA nodes;
	// strict NUMA-aware policies confine workers to quarter sockets
	// (§1 insight 4: overly strict NUMA awareness can hurt).
	row("ring-nps4", func() *charm.Runtime { return o.runtime(topology4(), charm.SystemRING, 32) })
	return t
}
