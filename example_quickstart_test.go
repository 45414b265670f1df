package charm_test

import (
	"fmt"

	"charm"
)

// Example_quickstart initializes CHARM on a simulated chiplet machine,
// runs a parallel kernel with AllDo, and reads the chiplet-level PMU
// counters.
func Example_quickstart() {
	// A dual-socket AMD EPYC Milan with caches scaled down 256x so this
	// example's working set exercises the cache hierarchy.
	rt, err := charm.Init(charm.Config{
		Workers:       16,
		CacheScale:    256,
		Deterministic: true,
	})
	if err != nil {
		panic(err)
	}
	defer rt.Finalize()

	fmt.Println("machine:", rt.Topology())

	// Allocate a shared buffer; each worker scans its own segment, then
	// everybody scans the whole buffer (cross-chiplet sharing).
	const size = 1 << 20
	data := rt.Alloc(size)
	seg := int64(size / rt.Workers())

	st := rt.AllDo(func(ctx *charm.Ctx) {
		own := data + charm.Addr(int64(ctx.Worker())*seg)
		ctx.Write(own, seg)  // private segment: local traffic
		ctx.Read(data, size) // full scan: shared traffic
		ctx.Yield()          // cooperative scheduling + profiling point
	})

	fmt.Printf("virtual makespan: %.3f ms over %d tasks\n",
		float64(st.Makespan)/1e6, st.Tasks)
	fmt.Printf("fills: l2=%d l3-local=%d l3-remote=%d dram=%d\n",
		rt.Counter(charm.FillL2),
		rt.Counter(charm.FillL3Local),
		rt.Counter(charm.FillL3RemoteNear)+rt.Counter(charm.FillL3RemoteFar)+rt.Counter(charm.FillL3RemoteSocket),
		rt.Counter(charm.FillDRAMLocal)+rt.Counter(charm.FillDRAMRemote))
	for w := 0; w < rt.Workers(); w += 4 {
		fmt.Printf("worker %2d: core %3d spread_rate %d\n",
			w, rt.CoreOfWorker(w), rt.SpreadRate(w))
	}
	// Output:
	// machine: amd-epyc-milan-7713x2/scale256: 2 socket(s) x 1 node(s) x 8 chiplet(s) x 8 core(s) = 128 cores, L3 128 KiB/chiplet, 8 ch/node
	// virtual makespan: 0.255 ms over 16 tasks
	// fills: l2=0 l3-local=26368 l3-remote=3712 dram=248448
	// worker  0: core   0 spread_rate 1
	// worker  4: core   4 spread_rate 1
	// worker  8: core   8 spread_rate 1
	// worker 12: core  12 spread_rate 1
}
