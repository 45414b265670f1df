package sim

import (
	"sync"
	"testing"

	"charm/internal/fault"
	"charm/internal/mem"
	"charm/internal/rng"
	"charm/internal/topology"
)

// TestMachineAccessRaceStressFaults is the access-stress test with a fault
// plan armed: concurrent accessors charge memory channels and fabric links
// whose capacities are being degraded by brownout and thermal windows. Run
// under -race (the Makefile verify target matches this name too) it proves
// the fault hooks add no data races and never produce non-positive costs.
func TestMachineAccessRaceStressFaults(t *testing.T) {
	topo := topology.SyntheticDual(2, 4)
	sched := fault.New("stress", 3).
		LinkBrownout(0, 0, fault.Forever, 6).
		LinkBrownout(2, 10_000, 4_000_000, 3).
		MemBrownout(0, 0, fault.Forever, 2).
		MemBrownout(1, 500_000, 3_000_000, 8).
		ThermalThrottle(3, 0, fault.Forever, 2)
	plan, err := sched.Compile(topo)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	m := New(Config{Topo: topo})
	m.SetFaultPlan(plan)
	const regionSize = 64 << 10
	region := m.Space.Alloc(regionSize, mem.Interleave, 0)
	iters := 4000
	if testing.Short() {
		iters = 500
	}
	cores := m.Topo.NumCores()
	var wg sync.WaitGroup
	for c := 0; c < cores; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			s := rng.Seed(42, uint64(c))
			var now int64
			for i := 0; i < iters; i++ {
				off := int64(rng.SplitMix64(&s) % (regionSize - 2048))
				size := int64(rng.SplitMix64(&s)%2048) + 1
				write := rng.SplitMix64(&s)%4 == 0
				cost := m.Access(topology.CoreID(c), now, region+mem.Addr(off), size, write)
				if cost <= 0 {
					t.Errorf("core %d op %d: non-positive cost %d", c, i, cost)
					return
				}
				if i%64 == 0 {
					// Exercise the browned-out message path concurrently.
					dst := topology.CoreID(int(rng.SplitMix64(&s) % uint64(cores)))
					if d := m.Fabric.MessageDelay(topology.CoreID(c), dst, now, 64); d < 0 {
						t.Errorf("core %d op %d: negative message delay %d", c, i, d)
						return
					}
				}
				now += cost
			}
		}(c)
	}
	wg.Wait()
}
