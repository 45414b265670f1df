package core

import (
	"sync/atomic"
	"testing"

	"charm/internal/mem"
	"charm/internal/pmu"
	"charm/internal/sim"
	"charm/internal/topology"
)

func TestOwnerOfStableAndHomeNode(t *testing.T) {
	m := sim.New(sim.Config{Topo: topology.SyntheticDual(2, 4)})
	// 16 workers fill both sockets, so each node has owner candidates.
	rt := NewRuntime(m, Options{Workers: 16, Deterministic: true})
	a0 := m.Space.AllocLocal(mem.PageSize, 0)
	a1 := m.Space.AllocLocal(mem.PageSize, 1)
	o0 := rt.OwnerOf(a0)
	o1 := rt.OwnerOf(a1)
	nodeOf := func(id int) topology.NodeID { return m.Topo.NodeOfCore(rt.workers[id].Core()) }
	if nodeOf(o0) != 0 {
		t.Errorf("owner of node-0 data on node %d", nodeOf(o0))
	}
	if nodeOf(o1) != 1 {
		t.Errorf("owner of node-1 data on node %d", nodeOf(o1))
	}
	// Stability: repeated queries return the same owner.
	for i := 0; i < 10; i++ {
		if rt.OwnerOf(a0) != o0 {
			t.Fatal("owner not stable")
		}
	}
	// Different lines spread across the node's workers.
	owners := map[int]bool{}
	big := m.Space.AllocLocal(1<<16, 0)
	for off := int64(0); off < 1<<16; off += 64 {
		owners[rt.OwnerOf(big+mem.Addr(off))] = true
	}
	if len(owners) < 2 {
		t.Errorf("line ownership not spread: %v", owners)
	}
}

func TestOwnerOfFallbackWithoutNodeWorkers(t *testing.T) {
	m := sim.New(sim.Config{Topo: topology.SyntheticDual(2, 4)})
	rt := NewRuntime(m, Options{Workers: 2, Deterministic: true}) // both workers on node 0
	a1 := m.Space.AllocLocal(mem.PageSize, 1)
	o := rt.OwnerOf(a1)
	if o < 0 || o >= 2 {
		t.Errorf("fallback owner %d out of range", o)
	}
}

func TestDelegateRunsOnOwner(t *testing.T) {
	rt := newTestRT(t, 8)
	a := rt.M.Space.AllocLocal(mem.PageSize, 1)
	owner := rt.OwnerOf(a)
	var ranOn atomic.Int64
	ranOn.Store(-1)
	rt.Run(func(ctx *Ctx) {
		ctx.Delegate(a, func(c *Ctx) {
			ranOn.Store(int64(c.Worker()))
			c.RMW(a, 8)
		})
	})
	if int(ranOn.Load()) != owner {
		t.Errorf("delegate ran on %d, want owner %d", ranOn.Load(), owner)
	}
}

func TestDelegateAsyncJoinsGroup(t *testing.T) {
	rt := newTestRT(t, 4)
	a := rt.M.Space.AllocLocal(mem.PageSize, 0)
	var n atomic.Int64
	rt.Run(func(ctx *Ctx) {
		for i := 0; i < 50; i++ {
			ctx.DelegateAsync(a, func(c *Ctx) { n.Add(1) })
		}
	})
	if n.Load() != 50 {
		t.Errorf("completed %d of 50 async delegations before Run returned", n.Load())
	}
}

func TestDelegateBatch(t *testing.T) {
	rt := newTestRT(t, 8)
	// Addresses spread across both nodes.
	var addrs []mem.Addr
	var fns []func(*Ctx)
	var n atomic.Int64
	ranOnOwner := atomic.Bool{}
	ranOnOwner.Store(true)
	for i := 0; i < 64; i++ {
		node := topology.NodeID(i % 2)
		a := rt.M.Space.AllocLocal(mem.PageSize, node)
		owner := rt.OwnerOf(a)
		addrs = append(addrs, a)
		fns = append(fns, func(c *Ctx) {
			if c.Worker() != owner {
				ranOnOwner.Store(false)
			}
			n.Add(1)
		})
	}
	rt.Run(func(ctx *Ctx) {
		ctx.DelegateBatch(addrs, fns)
	})
	if n.Load() != 64 {
		t.Errorf("batch completed %d of 64", n.Load())
	}
	if !ranOnOwner.Load() {
		t.Error("a batched delegation ran off its owner")
	}
}

func TestDelegateBatchValidation(t *testing.T) {
	rt := newTestRT(t, 2)
	a := rt.M.Space.AllocLocal(mem.PageSize, 0)
	rt.Run(func(ctx *Ctx) {
		mustPanic(t, "length mismatch", func() {
			ctx.DelegateBatch([]mem.Addr{a}, nil)
		})
	})
}

func TestDelegationAvoidsCoherenceTraffic(t *testing.T) {
	// A hot counter on node 0 updated by all workers: direct RMWs
	// ping-pong the line across chiplets; delegation keeps the line in
	// one chiplet's cache and pays message latency instead.
	topo := topology.SyntheticDual(4, 2)
	const updates = 300

	run := func(delegate bool) int64 {
		m := sim.New(sim.Config{Topo: topo})
		rt := NewRuntime(m, Options{Workers: 8, SchedulerTimer: 1 << 60,
			Policy: NewStaticPolicy(Compact), Deterministic: true})
		rt.Start()
		defer rt.Stop()
		hot := m.Space.AllocLocal(64, 0)
		rt.AllDo(func(ctx *Ctx) {
			for i := 0; i < updates; i++ {
				if delegate {
					ctx.DelegateAsync(hot, func(c *Ctx) { c.RMW(hot, 8) })
				} else {
					ctx.RMW(hot, 8)
				}
				ctx.Yield()
			}
		})
		return m.PMU.Total(pmu.FillL3RemoteNear) + m.PMU.Total(pmu.FillL3RemoteFar) +
			m.PMU.Total(pmu.FillL3RemoteSocket)
	}
	direct := run(false)
	delegated := run(true)
	if delegated >= direct {
		t.Errorf("delegation coherence fills (%d) must be below direct RMW (%d)", delegated, direct)
	}
}

func TestRebindAllocsMovesWorkerMemory(t *testing.T) {
	rt := newTestRT(t, 2)
	var a mem.Addr
	rt.AllDo(func(ctx *Ctx) {
		if ctx.Worker() == 0 {
			a = ctx.Alloc(4 * mem.PageSize)
		}
	})
	if got := rt.M.Space.HomeOf(a, 0); got != 0 {
		t.Fatalf("initial home = %d", got)
	}
	w := rt.Worker(0)
	before := w.Clock().Now()
	var moved int64
	done := make(chan struct{})
	// RebindAllocs must run on the owner goroutine; drive it via a task.
	rt.AllDo(func(ctx *Ctx) {
		if ctx.Worker() == 0 {
			moved = w.RebindAllocs(1)
			close(done)
		}
	})
	<-done
	if moved != 4*mem.PageSize {
		t.Errorf("moved %d bytes, want %d", moved, 4*mem.PageSize)
	}
	if got := rt.M.Space.HomeOf(a, 0); got != 1 {
		t.Errorf("home after rebind = %d, want 1", got)
	}
	if w.Clock().Now() <= before {
		t.Error("rebind charged no virtual time")
	}
	// Freed regions are skipped, not fatal.
	rt.M.Space.Free(a)
	rt.AllDo(func(ctx *Ctx) {
		if ctx.Worker() == 0 {
			if n := w.RebindAllocs(0); n != 0 {
				t.Errorf("rebind of freed region moved %d bytes", n)
			}
		}
	})
}
