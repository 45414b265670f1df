package charm_test

import (
	"fmt"

	"charm"
)

// Example_analytics watches CHARM's adaptive controller at work. The
// workload's working set grows phase by phase; the per-worker spread_rate
// expands across chiplets when the remote-fill rate rises and contracts
// when locality can be regained (§4.2/§4.3).
func Example_analytics() {
	rt, err := charm.Init(charm.Config{
		Workers:        8,
		CacheScale:     256, // one chiplet's L3 becomes 128 KiB
		SchedulerTimer: 25_000,
		Deterministic:  true,
	})
	if err != nil {
		panic(err)
	}
	defer rt.Finalize()
	rt.EnableProfiler(true)

	l3 := rt.Topology().L3PerChiplet
	fmt.Printf("per-chiplet L3: %d KiB\n", l3>>10)

	phase := func(name string, size int64, reps int) {
		data := rt.AllocPolicy(size, charm.FirstTouch, 0)
		st := rt.AllDo(func(ctx *charm.Ctx) {
			seg := size / int64(rt.Workers())
			own := data + charm.Addr(int64(ctx.Worker())*seg)
			for r := 0; r < reps; r++ {
				ctx.Read(own, seg)
				ctx.Write(own, seg)
				ctx.Yield()
			}
		})
		spreads := map[int]int{}
		for w := 0; w < rt.Workers(); w++ {
			spreads[rt.SpreadRate(w)]++
		}
		fmt.Printf("%-18s size %6d KiB  makespan %8.3f ms  spread histogram %v\n",
			name, size>>10, float64(st.Makespan)/1e6, spreads)
		rt.Free(data)
	}

	// Small working set: fits one chiplet, workers should consolidate.
	phase("fits-one-chiplet", l3/2, 400)
	// Working set exceeding one chiplet: workers spread for capacity.
	phase("needs-all-chiplets", 8*l3, 100)
	// Shrinks again: locality can be regained (contraction is one step
	// per scheduler interval, so this phase runs longer).
	phase("fits-again", l3/2, 3000)
	// Output:
	// per-chiplet L3: 128 KiB
	// fits-one-chiplet   size     64 KiB  makespan    0.123 ms  spread histogram map[1:4 2:4]
	// needs-all-chiplets size   1024 KiB  makespan    2.066 ms  spread histogram map[5:6 6:1 8:1]
	// fits-again         size     64 KiB  makespan    0.934 ms  spread histogram map[1:8]
}
