package place

import (
	"testing"

	"charm/internal/topology"
)

// BenchmarkPlacement measures the decision plane's hot paths on the AMD
// Milan preset (128 cores): the one-time rank build, per-decision view
// construction (fresh, and rebuilt in place the way the job service does
// it), and the Select/ordering queries policies issue per scheduling
// event. Wired into BENCH_placement.json via `make bench`.
func BenchmarkPlacement(b *testing.B) {
	topo := topology.AMDMilan7713x2()
	ranks := NewRanks(topo)
	snap := func() Snapshot {
		n := topo.NumCores()
		s := Snapshot{
			Live:       make([]bool, n),
			Occ:        make([]int32, n),
			WorkerOn:   make([]int32, n),
			WorkerCore: make([]topology.CoreID, n),
			QueueDepth: make([]int64, n),
		}
		for c := 0; c < n; c++ {
			s.Live[c] = true
			s.Occ[c] = 1
			s.WorkerOn[c] = int32(c)
			s.WorkerCore[c] = topology.CoreID(c)
			s.QueueDepth[c] = int64(c % 9)
		}
		return s
	}
	view := NewView(ranks, 1, snap())

	b.Run("ranks-build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			NewRanks(topo)
		}
	})
	b.Run("view-build", func(b *testing.B) {
		s := snap()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			NewView(ranks, int64(i), s)
		}
	})
	b.Run("view-reset", func(b *testing.B) {
		s := snap()
		var v View
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v.Reset(ranks, int64(i), s)
		}
	})
	b.Run("select-nearest", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			view.Select(nearest(topology.CoreID(i%128)), Live, Idle)
		}
	})
	b.Run("select-least-loaded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			view.Select(LeastLoaded(), Live)
		}
	})
	b.Run("victims-by-distance", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			view.VictimsByDistance(topology.CoreID(i%128), 0)
		}
	})
	b.Run("chiplets-by-preference", func(b *testing.B) {
		var dst []topology.ChipletID
		for i := 0; i < b.N; i++ {
			dst = view.ChipletsByPreference(dst[:0], i, topology.KindAny)
		}
	})
	b.Run("alg2-core", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Alg2Core(i%128, 128, 1+i%8, topo)
		}
	})
}
