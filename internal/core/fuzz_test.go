package core

import (
	"testing"

	"charm/internal/sim"
	"charm/internal/topology"
)

// FuzzUpdateLocationCollisionFree drives Alg. 2 with arbitrary worker
// counts and per-worker spread rates on the Milan topology and checks that
// no two workers ever land on the same core when they share a spread rate
// (the paper's collision-freedom claim; mixed rates may transiently share,
// which the runtime tolerates via occupancy accounting).
func FuzzUpdateLocationCollisionFree(f *testing.F) {
	f.Add(uint8(64), uint8(8))
	f.Add(uint8(16), uint8(2))
	f.Add(uint8(128), uint8(4))
	f.Fuzz(func(t *testing.T, workersRaw, spreadRaw uint8) {
		topo := topology.AMDMilan7713x2()
		workers := int(workersRaw)%topo.NumCores() + 1
		spread := int(spreadRaw)%(topo.ChipletsPerNode*topo.NodesPerSocket) + 1
		m := sim.New(sim.Config{Topo: topo})
		rt := NewRuntime(m, Options{Workers: workers, Deterministic: true})
		for i := 0; i < workers; i++ {
			rt.workers[i].spreadRate = spread
			UpdateLocation(rt.workers[i])
		}
		seen := map[topology.CoreID]int{}
		for i := 0; i < workers; i++ {
			c := rt.workers[i].Core()
			if int(c) < 0 || int(c) >= topo.NumCores() {
				t.Fatalf("worker %d on invalid core %d", i, c)
			}
			if prev, dup := seen[c]; dup {
				t.Fatalf("workers=%d spread=%d: core %d shared by %d and %d",
					workers, spread, c, prev, i)
			}
			seen[c] = i
		}
		// Socket-aware invariant: workers fill socket 0 first.
		for i := 0; i < workers && i < topo.CoresPerSocket(); i++ {
			if topo.SocketOfCore(rt.workers[i].Core()) != 0 {
				t.Fatalf("worker %d of %d escaped socket 0 (spread %d)", i, workers, spread)
			}
		}
	})
}
