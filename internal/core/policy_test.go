package core

import (
	"testing"

	"charm/internal/mem"
	"charm/internal/obs"
	"charm/internal/sim"
	"charm/internal/topology"
)

// stoppedRuntime builds a runtime without starting workers, for direct
// manipulation of placement state.
func stoppedRuntime(t *testing.T, topo *topology.Topology, workers int, p Policy) *Runtime {
	t.Helper()
	m := sim.New(sim.Config{Topo: topo})
	return NewRuntime(m, Options{Workers: workers, Policy: p, Deterministic: true})
}

func TestUpdateLocationCollisionFree(t *testing.T) {
	topo := topology.AMDMilan7713x2()
	for _, workers := range []int{8, 16, 32, 64, 128} {
		for spread := 1; spread <= topo.ChipletsPerNode; spread++ {
			rt := stoppedRuntime(t, topo, workers, NewCharmPolicy())
			for i := 0; i < workers; i++ {
				rt.workers[i].spreadRate = spread
				UpdateLocation(rt.workers[i])
			}
			seen := map[topology.CoreID][]int{}
			for i := 0; i < workers; i++ {
				c := rt.workers[i].Core()
				seen[c] = append(seen[c], i)
			}
			for c, ws := range seen {
				if len(ws) > 1 {
					t.Errorf("workers=%d spread=%d: core %d shared by %v", workers, spread, c, ws)
				}
			}
		}
	}
}

// TestUpdateLocationCollisionFreeIntel repeats the collision property on
// the Intel SPR preset (4 chiplets x 12 cores per socket), whose
// chiplet/slot divisors differ from Milan's — the shape where the paper's
// published wrap-around term breaks.
func TestUpdateLocationCollisionFreeIntel(t *testing.T) {
	topo := topology.IntelSPR8488Cx2()
	for workers := 1; workers <= topo.NumCores(); workers++ {
		for spread := 1; spread <= topo.ChipletsPerNode*topo.NodesPerSocket; spread++ {
			rt := stoppedRuntime(t, topo, workers, NewCharmPolicy())
			for i := 0; i < workers; i++ {
				rt.workers[i].spreadRate = spread
				UpdateLocation(rt.workers[i])
			}
			seen := map[topology.CoreID][]int{}
			for i := 0; i < workers; i++ {
				seen[rt.workers[i].Core()] = append(seen[rt.workers[i].Core()], i)
			}
			for c, ws := range seen {
				if len(ws) > 1 {
					t.Fatalf("workers=%d spread=%d: core %d shared by %v", workers, spread, c, ws)
				}
			}
		}
	}
}

func TestUpdateLocationBoundsCheck(t *testing.T) {
	topo := topology.AMDMilan7713x2()
	rt := stoppedRuntime(t, topo, 64, NewCharmPolicy())
	w := rt.workers[0]
	before := w.Core()

	// 64 workers on one socket: spread 1 cannot give each a dedicated
	// core (the paper's example); the migration must be skipped.
	w.spreadRate = 1
	UpdateLocation(w)
	if w.Core() != before {
		t.Errorf("invalid spread 1 migrated worker to %d", w.Core())
	}
	// Spread beyond the physical chiplet count is also skipped.
	w.spreadRate = topo.ChipletsPerNode + 5
	UpdateLocation(w)
	if w.Core() != before {
		t.Errorf("overlarge spread migrated worker to %d", w.Core())
	}
	// Spread 8 is the unique valid value for 64 workers per socket: the
	// formula round-robins consecutive workers across chiplets, fully
	// occupying the socket without collisions.
	seen := map[topology.CoreID]bool{}
	for i := 0; i < 64; i++ {
		rt.workers[i].spreadRate = 8
		UpdateLocation(rt.workers[i])
		c := rt.workers[i].Core()
		if want := topology.ChipletID(i % 8); topo.ChipletOf(c) != want {
			t.Errorf("worker %d at spread 8 on chiplet %d, want %d", i, topo.ChipletOf(c), want)
		}
		if seen[c] {
			t.Errorf("core %d assigned twice", c)
		}
		seen[c] = true
	}
}

func TestUpdateLocationSpreadSemantics(t *testing.T) {
	topo := topology.AMDMilan7713x2()
	rt := stoppedRuntime(t, topo, 8, NewCharmPolicy())
	// 8 workers, spread 1: all consolidate on chiplet 0.
	for _, w := range rt.workers {
		w.spreadRate = 1
		UpdateLocation(w)
		if got := topo.ChipletOf(w.Core()); got != 0 {
			t.Errorf("spread 1: worker %d on chiplet %d, want 0", w.id, got)
		}
	}
	// Spread 8: one worker per chiplet.
	used := map[topology.ChipletID]bool{}
	for _, w := range rt.workers {
		w.spreadRate = 8
		UpdateLocation(w)
		used[topo.ChipletOf(w.Core())] = true
	}
	if len(used) != 8 {
		t.Errorf("spread 8: %d distinct chiplets, want 8", len(used))
	}
	// Spread 2: workers split over exactly 2 chiplets.
	used = map[topology.ChipletID]bool{}
	for _, w := range rt.workers {
		w.spreadRate = 2
		UpdateLocation(w)
		used[topo.ChipletOf(w.Core())] = true
	}
	if len(used) != 2 {
		t.Errorf("spread 2: %d distinct chiplets, want 2", len(used))
	}
}

func TestUpdateLocationSocketAware(t *testing.T) {
	topo := topology.AMDMilan7713x2()
	rt := stoppedRuntime(t, topo, 128, NewCharmPolicy())
	for _, w := range rt.workers {
		w.spreadRate = 8
		UpdateLocation(w)
	}
	// Workers 0-63 stay on socket 0; 64-127 on socket 1.
	for _, w := range rt.workers {
		wantSocket := topology.SocketID(w.id / 64)
		if got := topo.SocketOfCore(w.Core()); got != wantSocket {
			t.Errorf("worker %d on socket %d, want %d", w.id, got, wantSocket)
		}
	}
}

func TestUpdateLocationBindsMemoryNode(t *testing.T) {
	topo := topology.AMDMilan7713x2()
	rt := stoppedRuntime(t, topo, 128, NewCharmPolicy())
	w := rt.workers[100] // socket 1
	w.spreadRate = 8
	UpdateLocation(w)
	if got := w.allocNode; got != topo.NodeOfCore(w.Core()) {
		t.Errorf("allocNode = %d, want %d", got, topo.NodeOfCore(w.Core()))
	}
}

func TestCharmInitialPlacementSocketFill(t *testing.T) {
	topo := topology.AMDMilan7713x2()
	p := NewCharmPolicy()
	// First 64 workers land on socket 0 even with 96 workers total.
	for w := 0; w < 64; w++ {
		c := p.InitialCore(w, 96, topo)
		if topo.SocketOfCore(c) != 0 {
			t.Errorf("worker %d initially on socket %d", w, topo.SocketOfCore(c))
		}
	}
	for w := 64; w < 96; w++ {
		c := p.InitialCore(w, 96, topo)
		if topo.SocketOfCore(c) != 1 {
			t.Errorf("worker %d initially on socket %d, want 1", w, topo.SocketOfCore(c))
		}
	}
}

func TestStaticPolicyPlacements(t *testing.T) {
	topo := topology.AMDMilan7713x2()
	compact := NewStaticPolicy(Compact)
	// 8 compact workers share chiplet 0.
	for w := 0; w < 8; w++ {
		if ch := topo.ChipletOf(compact.InitialCore(w, 8, topo)); ch != 0 {
			t.Errorf("compact worker %d on chiplet %d", w, ch)
		}
	}
	spread := NewStaticPolicy(SpreadChiplets)
	chs := map[topology.ChipletID]bool{}
	cores := map[topology.CoreID]bool{}
	for w := 0; w < 8; w++ {
		c := spread.InitialCore(w, 8, topo)
		chs[topo.ChipletOf(c)] = true
		cores[c] = true
	}
	if len(chs) != 8 {
		t.Errorf("spread-chiplets used %d chiplets, want 8", len(chs))
	}
	if len(cores) != 8 {
		t.Errorf("spread-chiplets collided: %d distinct cores", len(cores))
	}
	nodes := NewStaticPolicy(SpreadSockets)
	n0, n1 := 0, 0
	for w := 0; w < 8; w++ {
		if topo.NodeOfCore(nodes.InitialCore(w, 8, topo)) == 0 {
			n0++
		} else {
			n1++
		}
	}
	if n0 != 4 || n1 != 4 {
		t.Errorf("spread-sockets split %d/%d, want 4/4", n0, n1)
	}
}

func TestStaticPolicyNoCollisionProperty(t *testing.T) {
	topo := topology.AMDMilan7713x2()
	for _, mode := range []StaticMode{Compact, SpreadChiplets, SpreadSockets} {
		p := NewStaticPolicy(mode)
		for _, workers := range []int{1, 7, 8, 16, 64, 128} {
			seen := map[topology.CoreID]int{}
			for w := 0; w < workers; w++ {
				c := p.InitialCore(w, workers, topo)
				if prev, dup := seen[c]; dup {
					t.Errorf("%s workers=%d: core %d shared by %d and %d", p.Name(), workers, c, prev, w)
				}
				seen[c] = w
			}
		}
	}
}

// TestAdaptiveSpreadGrowsUnderDRAMPressure drives a DRAM-bound worker and
// checks Alg. 1 raises spread_rate toward the chiplet count.
func TestAdaptiveSpreadGrowsUnderDRAMPressure(t *testing.T) {
	topo := topology.Synthetic(4, 2) // tiny L3: 64 KiB/chiplet
	m := sim.New(sim.Config{Topo: topo})
	rt := NewRuntime(m, Options{
		Workers:        2,
		SchedulerTimer: 20_000,
		Deterministic:  true,
	})
	rt.Start()
	defer rt.Stop()

	big := rt.AllocPolicy(4<<20, mem.Bind, 0) // 4 MiB >> all caches
	rt.AllDo(func(ctx *Ctx) {
		for i := 0; i < 40; i++ {
			ctx.Read(big, 4<<20)
			ctx.Yield()
		}
	})
	for i := 0; i < rt.Workers(); i++ {
		if got := rt.Worker(i).SpreadRate(); got < 2 {
			t.Errorf("worker %d spread = %d, want >= 2 under DRAM pressure", i, got)
		}
	}
}

// TestAdaptiveSpreadShrinksWhenCached drives a cache-resident worker and
// checks Alg. 1 consolidates.
func TestAdaptiveSpreadShrinksWhenCached(t *testing.T) {
	topo := topology.Synthetic(4, 2)
	m := sim.New(sim.Config{Topo: topo})
	rt := NewRuntime(m, Options{Workers: 2, SchedulerTimer: 20_000, Deterministic: true})
	rt.Start()
	defer rt.Stop()

	for i := 0; i < rt.Workers(); i++ {
		rt.Worker(i).SetSpreadRate(4)
		UpdateLocation(rt.Worker(i))
	}
	small := rt.AllocPolicy(8<<10, mem.Bind, 0) // 8 KiB fits everywhere
	rt.AllDo(func(ctx *Ctx) {
		// Streamed cache hits are cheap, so many iterations are needed
		// to span several scheduler-timer intervals.
		for i := 0; i < 3000; i++ {
			ctx.Read(small, 8<<10)
			ctx.Yield()
		}
	})
	for i := 0; i < rt.Workers(); i++ {
		if got := rt.Worker(i).SpreadRate(); got != 1 {
			t.Errorf("worker %d spread = %d, want 1 when cache-resident", i, got)
		}
	}
}

func TestProfilerRecordsSpreadSeries(t *testing.T) {
	topo := topology.Synthetic(4, 2)
	m := sim.New(sim.Config{Topo: topo})
	rt := NewRuntime(m, Options{Workers: 2, SchedulerTimer: 20_000, Deterministic: true})
	rt.EnableProfiler(true)
	rt.Start()
	defer rt.Stop()
	big := rt.AllocPolicy(2<<20, mem.Bind, 0)
	rt.AllDo(func(ctx *Ctx) {
		for i := 0; i < 20; i++ {
			ctx.Read(big, 2<<20)
			ctx.Yield()
		}
	})
	samples := map[obs.SpanKind]int{}
	for _, s := range rt.Tracer().Spans() {
		samples[s.Kind]++
	}
	if samples[obs.SpanSpread] == 0 {
		t.Error("profiler recorded no spread samples")
	}
	if samples[obs.SpanFillRate] == 0 {
		t.Error("profiler recorded no fill-rate samples")
	}
}
