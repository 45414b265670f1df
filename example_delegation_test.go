package charm_test

import (
	"fmt"

	"charm"
)

// Example_delegation shows the Grappa/RING task-and-RPC model CHARM builds
// on (§4.6). A hot shared counter is updated by every worker: direct
// read-modify-writes ping-pong its cache line across chiplets, while
// delegating the updates to the line's owner keeps the line resident in
// one L3 and pays (batched) message latency instead.
//
// On a single package the trade-off is real: delegation eliminates the
// coherence traffic entirely (watch the transfer counter) but each update
// pays a fabric message, so direct RMWs stay faster until contention is
// extreme. Grappa's big delegation wins come from cluster-scale networks;
// CHARM keeps the shared-memory fast path and offers delegation as a tool.
func Example_delegation() {
	const updatesPerWorker = 2000
	run := func(name string, update func(ctx *charm.Ctx, hot charm.Addr)) {
		rt, err := charm.Init(charm.Config{
			Workers:       16,
			CacheScale:    256,
			Deterministic: true,
		})
		if err != nil {
			panic(err)
		}
		defer rt.Finalize()

		hot := rt.Alloc(64) // one cache line
		st := rt.AllDo(func(ctx *charm.Ctx) {
			for i := 0; i < updatesPerWorker; i++ {
				update(ctx, hot)
				ctx.Yield()
			}
		})
		remote := rt.Counter(charm.FillL3RemoteNear) +
			rt.Counter(charm.FillL3RemoteFar) + rt.Counter(charm.FillL3RemoteSocket)
		fmt.Printf("%-22s makespan %8.3f ms   cache-to-cache transfers %6d\n",
			name, float64(st.Makespan)/1e6, remote)
	}

	run("direct RMW", func(ctx *charm.Ctx, hot charm.Addr) {
		ctx.RMW(hot, 8)
	})
	run("delegated (sync)", func(ctx *charm.Ctx, hot charm.Addr) {
		ctx.DelegateAsync(hot, func(c *charm.Ctx) { c.RMW(hot, 8) })
	})
	run("delegated (batch 32)", func() func(ctx *charm.Ctx, hot charm.Addr) {
		// Accumulate updates and flush in batches of 32, amortizing the
		// message latency (RING's message batching). Each worker only
		// touches its own counter slot.
		pending := make([]int, 16)
		return func(ctx *charm.Ctx, hot charm.Addr) {
			w := ctx.Worker()
			pending[w]++
			if pending[w] >= 32 {
				n := pending[w]
				pending[w] = 0
				addrs := make([]charm.Addr, n)
				fns := make([]func(*charm.Ctx), n)
				for i := range addrs {
					addrs[i] = hot
					fns[i] = func(c *charm.Ctx) { c.RMW(hot, 8) }
				}
				ctx.DelegateBatch(addrs, fns)
			}
		}
	}())
	// Output:
	// direct RMW             makespan    0.187 ms   cache-to-cache transfers  10012
	// delegated (sync)       makespan    1.113 ms   cache-to-cache transfers      0
	// delegated (batch 32)   makespan    0.989 ms   cache-to-cache transfers      0
}
