package core

import "charm/internal/mem"

// Delegation: the Grappa/RING task-and-RPC model the paper builds on
// (§4.6). Instead of pulling remote data through the cache hierarchy, a
// task ships a small closure to a worker co-located with the data and gets
// the result back — one message pair instead of a coherence ping-pong.
// CHARM keeps this model and adds chiplet-aware owner selection: the owner
// is a worker on the data's home NUMA node, chosen deterministically per
// cache line so the same line is always served by the same worker (its
// chiplet L3 keeps the line).

// OwnerOf returns the worker that owns addr under the delegation model:
// a worker on the page's home NUMA node, selected by line hash so
// ownership is stable and spread across that node's workers.
func (rt *Runtime) OwnerOf(addr mem.Addr) int {
	node := rt.M.Space.HomeOf(addr, 0)
	var candidates []int
	for _, w := range rt.workers {
		if rt.M.Topo.NodeOfCore(w.Core()) == node {
			candidates = append(candidates, w.id)
		}
	}
	if len(candidates) == 0 {
		// No worker on the home node (small worker counts): fall back to
		// hashing across all workers.
		line := uint64(addr) >> 6
		return int(line % uint64(len(rt.workers)))
	}
	line := uint64(addr) >> 6
	return candidates[line%uint64(len(candidates))]
}

// Delegate executes fn on the owner of addr and blocks until it completes,
// charging the request/reply message latencies (the synchronous delegate
// of the RING API). Running on the owner already executes fn inline.
func (c *Ctx) Delegate(addr mem.Addr, fn func(*Ctx)) {
	c.Call(c.w.rt.OwnerOf(addr), fn)
}

// DelegateAsync ships fn to the owner of addr without waiting; completion
// joins the surrounding submission's group.
func (c *Ctx) DelegateAsync(addr mem.Addr, fn func(*Ctx)) {
	c.CallAsync(c.w.rt.OwnerOf(addr), fn)
}

// DelegateBatch ships a batch of independent async delegations grouped by
// owner, amortizing the per-message fabric latency over the batch — the
// message batching that gives RING its name. Each element of addrs is
// delegated to fns[i] on its owner; len(addrs) must equal len(fns).
func (c *Ctx) DelegateBatch(addrs []mem.Addr, fns []func(*Ctx)) {
	if len(addrs) != len(fns) {
		panic("core: DelegateBatch length mismatch")
	}
	c.flushBatch()
	rt := c.w.rt
	type batch struct {
		fns []func(*Ctx)
	}
	byOwner := map[int]*batch{}
	for i, a := range addrs {
		o := rt.OwnerOf(a)
		b := byOwner[o]
		if b == nil {
			b = &batch{}
			byOwner[o] = b
		}
		b.fns = append(b.fns, fns[i])
	}
	for owner, b := range byOwner {
		fns := b.fns
		// One message carries the whole batch: the sender pays one issue
		// cost, and the latency charge covers the per-element payload.
		tw := rt.workers[owner]
		c.advance(rt.M.Topo.Cost.StealPenalty)
		delay := rt.M.Fabric.MessageDelay(c.w.Core(), tw.Core(), c.w.clock.Now(),
			64+int64(len(fns))*16)
		t := c.w.newTask(func(ctx *Ctx) {
			for _, fn := range fns {
				fn(ctx)
			}
		}, c.task.grp, c.w.clock.Now()+delay, false, owner)
		t.pinned = true
		t.delegated = true
		t.hops = c.task.hops + 1
		rt.met.delegations.Inc(c.w.id)
		c.task.grp.add(1)
		tw.inbox.Put(t)
	}
}
