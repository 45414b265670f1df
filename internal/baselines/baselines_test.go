package baselines

import (
	"testing"

	"charm/internal/core"
	"charm/internal/mem"
	"charm/internal/place"
	"charm/internal/sim"
	"charm/internal/topology"
)

// newRuntime builds a runtime for system s the way charm.Init does.
func newRuntime(m *sim.Machine, s System, workers int, schedTimer int64) *core.Runtime {
	opts := core.Options{Workers: workers, SchedulerTimer: schedTimer, Deterministic: true}
	s.Configure(m, &opts)
	return core.NewRuntime(m, opts)
}

func TestSystemPolicies(t *testing.T) {
	for _, s := range Systems {
		p := s.Policy()
		if p == nil || p.Name() == "" {
			t.Errorf("%s: bad policy", s)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown system must panic")
		}
	}()
	System("bogus").Policy()
}

func TestRingBalancesNodes(t *testing.T) {
	topo := topology.AMDMilan7713x2()
	p := (&ringPolicy{})
	counts := map[topology.NodeID]int{}
	chiplets := map[topology.ChipletID]bool{}
	for w := 0; w < 16; w++ {
		c := p.InitialCore(w, 16, topo)
		counts[topo.NodeOfCore(c)]++
		chiplets[topo.ChipletOf(c)] = true
	}
	if counts[0] != 8 || counts[1] != 8 {
		t.Errorf("RING node balance = %v, want 8/8", counts)
	}
	// Chiplet-oblivious scatter: 16 workers land on many chiplets.
	if len(chiplets) < 8 {
		t.Errorf("RING used %d chiplets, expected scatter across >= 8", len(chiplets))
	}
}

func TestShoalSequential(t *testing.T) {
	topo := topology.AMDMilan7713x2()
	p := &shoalPolicy{}
	for w := 0; w < 32; w++ {
		if c := p.InitialCore(w, 32, topo); c != topology.CoreID(w) {
			t.Errorf("SHOAL worker %d on core %d, want %d", w, c, w)
		}
	}
	// The paper's observation: 16 sequential workers occupy only 2 of 8
	// chiplets.
	chiplets := map[topology.ChipletID]bool{}
	for w := 0; w < 16; w++ {
		chiplets[topo.ChipletOf(p.InitialCore(w, 16, topo))] = true
	}
	if len(chiplets) != 2 {
		t.Errorf("SHOAL 16 workers on %d chiplets, want 2", len(chiplets))
	}
}

func TestPlacementsCollisionFree(t *testing.T) {
	topo := topology.AMDMilan7713x2()
	for _, s := range []System{RING, SHOAL, AsymSched, SAM} {
		p := s.Policy()
		for _, workers := range []int{1, 8, 16, 64, 128} {
			seen := map[topology.CoreID]bool{}
			for w := 0; w < workers; w++ {
				c := p.InitialCore(w, workers, topo)
				if seen[c] {
					t.Errorf("%s workers=%d: core %d reused", s, workers, c)
				}
				seen[c] = true
			}
		}
	}
}

func TestAsymSchedMigratesTowardTraffic(t *testing.T) {
	topo := topology.SyntheticDual(2, 4)
	m := sim.New(sim.Config{Topo: topo})
	rt := newRuntime(m, AsymSched, 2, 20_000)
	rt.Start()
	defer rt.Stop()
	// Workers are node-balanced: worker 1 starts on node 1. All data is
	// bound to node 0, so worker 1's remote fills dominate and AsymSched
	// should pull it to node 0.
	data := rt.AllocPolicy(1<<20, mem.Bind, 0)
	rt.AllDo(func(ctx *core.Ctx) {
		for i := 0; i < 30; i++ {
			ctx.Read(data, 1<<20)
			ctx.Yield()
		}
	})
	if got := topo.NodeOfCore(rt.CoreOfWorker(1)); got != 0 {
		t.Errorf("AsymSched left worker 1 on node %d, want 0 (traffic home)", got)
	}
}

func TestSAMSpreadsBandwidthBound(t *testing.T) {
	topo := topology.SyntheticDual(2, 4)
	m := sim.New(sim.Config{Topo: topo})
	rt := newRuntime(m, SAM, 4, 20_000)
	rt.Start()
	defer rt.Stop()
	// DRAM-bound private working sets: SAM keeps workers spread across
	// sockets by parity.
	rt.AllDo(func(ctx *core.Ctx) {
		priv := ctx.Alloc(1 << 20)
		for i := 0; i < 20; i++ {
			ctx.Read(priv, 1<<20)
			ctx.Yield()
		}
	})
	for w := 0; w < 4; w++ {
		want := topology.NodeID(w % 2)
		if got := topo.NodeOfCore(rt.CoreOfWorker(w)); got != want {
			t.Errorf("SAM worker %d on node %d, want %d", w, got, want)
		}
	}
}

func TestOSAsyncOversubscribes(t *testing.T) {
	topo := topology.Synthetic(2, 4) // 8 cores
	m := sim.New(sim.Config{Topo: topo})
	rt := newRuntime(m, OSAsync, 8, 1<<40)
	rt.Start()
	defer rt.Stop()
	if rt.Workers() != 8*osAsyncThreadFactor {
		t.Fatalf("workers = %d, want %d", rt.Workers(), 8*osAsyncThreadFactor)
	}
	// The thread flood timeshares cores: a fixed amount of parallel work
	// takes ~threadFactor times longer than on a clean runtime.
	st := rt.AllDo(func(ctx *core.Ctx) { ctx.Compute(10_000) })
	if st.Makespan < 10_000*osAsyncThreadFactor {
		t.Errorf("oversubscribed makespan = %d, want >= %d", st.Makespan, 10_000*osAsyncThreadFactor)
	}
}

func TestOSAsyncChargesThreadSpawn(t *testing.T) {
	topo := topology.Synthetic(2, 4)
	m := sim.New(sim.Config{Topo: topo})
	rt := newRuntime(m, OSAsync, 8, 1<<40)
	rt.Start()
	defer rt.Stop()
	st := rt.ParallelFor(0, 64, 1, func(ctx *core.Ctx, i0, i1 int) {})
	// 64 empty tasks must still pay 64 thread spawns (possibly inflated
	// by occupancy).
	if st.Makespan < topo.Cost.ThreadSpawn {
		t.Errorf("makespan = %d, cheaper than one thread spawn %d", st.Makespan, topo.Cost.ThreadSpawn)
	}
}

func TestCharmVsRingOnSharedData(t *testing.T) {
	// Integration check of the paper's core claim at micro scale: on
	// read-write shared data, CHARM's socket-filling placement keeps
	// coherence ping-pong within one socket (near/far chiplet transfers),
	// while RING's NUMA-balanced scatter pays cross-socket transfers.
	topo := topology.SyntheticDual(4, 2) // L3 64 KiB/chiplet
	run := func(s System) int64 {
		m := sim.New(sim.Config{Topo: topo})
		rt := newRuntime(m, s, 4, 50_000)
		rt.Start()
		defer rt.Stop()
		shared := rt.AllocPolicy(32<<10, mem.Bind, 0) // fits one L3
		var total int64
		for rep := 0; rep < 6; rep++ {
			st := rt.AllDo(func(ctx *core.Ctx) {
				for i := 0; i < 10; i++ {
					ctx.Read(shared, 32<<10)
					ctx.Write(shared, 32<<10)
					ctx.Yield()
				}
			})
			total = st.Makespan + total
		}
		return total
	}
	charm := run(CHARM)
	ring := run(RING)
	if charm >= ring {
		t.Errorf("CHARM (%d) must beat RING (%d) on read-write shared data", charm, ring)
	}
}

func TestNodeBalancedCoreScattersChiplets(t *testing.T) {
	topo := topology.AMDMilan7713x2()
	// Consecutive same-node workers land on different chiplets.
	c0 := place.NodeBalancedCore(0, topo) // node 0, local 0
	c2 := place.NodeBalancedCore(2, topo) // node 0, local 1
	if topo.ChipletOf(c0) == topo.ChipletOf(c2) {
		t.Errorf("consecutive node-0 workers share chiplet %d", topo.ChipletOf(c0))
	}
	if topo.NodeOfCore(c0) != topo.NodeOfCore(c2) {
		t.Error("both should be on node 0")
	}
}

func TestOSAsyncInitialCoreFoldsOntoRequestedCores(t *testing.T) {
	topo := topology.AMDMilan7713x2()
	p := &osAsyncPolicy{}
	// 32 requested cores x factor threads: all threads land on cores 0-31.
	workers := 32 * osAsyncThreadFactor
	for w := 0; w < workers; w++ {
		c := p.InitialCore(w, workers, topo)
		if int(c) >= 32 {
			t.Fatalf("thread %d on core %d, want < 32", w, c)
		}
	}
	// Degenerate worker counts fall back to all cores.
	if c := p.InitialCore(1, 2, topo); int(c) >= topo.NumCores() {
		t.Errorf("fallback core %d out of range", c)
	}
}

func TestAssignWorkerBehaviors(t *testing.T) {
	// SHOAL keeps task->worker stable across phases; RING churns.
	shoal := &shoalPolicy{}
	ring := &ringPolicy{}
	if shoal.AssignWorker(5, 1, 8) != shoal.AssignWorker(5, 2, 8) {
		t.Error("SHOAL assignment must be phase-stable")
	}
	changed := false
	for phase := uint64(1); phase < 8; phase++ {
		if ring.AssignWorker(5, phase, 8) != ring.AssignWorker(5, phase+1, 8) {
			changed = true
		}
	}
	if !changed {
		t.Error("RING assignment never churned across phases")
	}
	for _, p := range []core.Policy{shoal, ring, &asymSchedPolicy{}, &samPolicy{}, &osAsyncPolicy{}} {
		for i := 0; i < 32; i++ {
			w := p.AssignWorker(i, 3, 8)
			if w < 0 || w >= 8 {
				t.Fatalf("%s: assignment %d out of range", p.Name(), w)
			}
		}
	}
}
