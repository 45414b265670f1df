package sim

import (
	"testing"

	"charm/internal/mem"
	"charm/internal/pmu"
	"charm/internal/topology"
)

// FuzzMachineAccess drives the memory-system simulator with arbitrary
// access sequences and checks its core invariants: costs are positive,
// clamped within physical bounds, fill counters account for every sampled
// access, and no access panics or corrupts cache state.
func FuzzMachineAccess(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 200, 100}, uint8(0))
	f.Add([]byte{255, 254, 253}, uint8(2))
	f.Fuzz(func(t *testing.T, ops []byte, shift uint8) {
		m := New(Config{
			Topo:        topology.SyntheticDual(2, 4),
			SampleShift: uint(shift % 4),
		})
		region := m.Space.Alloc(1<<16, mem.Interleave, 0)
		cores := m.Topo.NumCores()
		var now int64
		for i := 0; i+2 < len(ops); i += 3 {
			core := topology.CoreID(int(ops[i]) % cores)
			off := int64(ops[i+1]) << 7 // stay within 64 KiB (255*128 < 65536)
			size := int64(ops[i+2])%2048 + 1
			if off+size > 1<<16 {
				size = 1<<16 - off
			}
			write := ops[i]%2 == 1
			cost := m.Access(core, now, region+mem.Addr(off), size, write)
			if cost < 0 {
				t.Fatalf("negative cost %d", cost)
			}
			// Upper bound: every line at worst pays remote DRAM plus
			// heavy queueing and full invalidation; 100x DRAMRemote per
			// line is far beyond any legal path.
			lines := size/64 + 2
			if cost > lines*m.Topo.Cost.DRAMRemote*100 {
				t.Fatalf("cost %d exceeds physical bound for %d lines", cost, lines)
			}
			now += cost
		}
		// Counter sanity: every fill class is non-negative and the total
		// fill count is consistent with sampling extrapolation.
		for c := 0; c < cores; c++ {
			for _, e := range []pmu.Event{pmu.FillL2, pmu.FillL3Local,
				pmu.FillL3RemoteNear, pmu.FillL3RemoteFar,
				pmu.FillL3RemoteSocket, pmu.FillDRAMLocal, pmu.FillDRAMRemote} {
				if v := m.PMU.Read(c, e); v < 0 {
					t.Fatalf("negative counter %v on core %d", e, c)
				} else if v%m.sampleFactor != 0 {
					t.Fatalf("counter %v=%d not a multiple of sample factor %d", e, v, m.sampleFactor)
				}
			}
		}
	})
}
