package sim

import (
	"testing"

	"charm/internal/fabric"
	"charm/internal/mem"
	"charm/internal/topology"
)

// BenchmarkMachineAccess measures the simulator hot path on the 16-chiplet
// Milan preset under the access mixes that stress coherence tracking, in
// both modes: "dir" (the coherence directory, the default) and "scan"
// (broadcast tag-array scans, the pre-directory behaviour).
// The miss-heavy mixes are where the directory pays: a scan-mode miss
// probes chiplets × ways tag slots per line, a directory-mode miss reads
// one presence bitmask.
//
//	readhot       — per-core working set resident in L2: the hit fast path.
//	writeshared   — chiplets round-robin writing one hot block: closest-
//	                holder transfer + ownership-upgrade invalidation per op.
//	streamingmiss — a region far beyond L3 streamed sequentially: every
//	                line misses everywhere, fills, and eventually evicts.
//	remotefill    — the topo experiment's traffic on its heterogeneous
//	                routed 4x2 machine: every chiplet streams one shared
//	                array that fits the aggregate L3 but no single slice,
//	                so nearly every line is a cross-chiplet fill that
//	                evicts a line some other chiplet will want back.
func BenchmarkMachineAccess(b *testing.B) {
	for _, mode := range []struct {
		name  string
		noDir bool
	}{{"dir", false}, {"scan", true}} {
		b.Run(mode.name, func(b *testing.B) {
			b.Run("readhot", func(b *testing.B) { benchReadHot(b, mode.noDir) })
			b.Run("writeshared", func(b *testing.B) { benchWriteShared(b, mode.noDir) })
			b.Run("streamingmiss", func(b *testing.B) { benchStreamingMiss(b, mode.noDir) })
			b.Run("remotefill", func(b *testing.B) { benchRemoteFill(b, mode.noDir) })
		})
	}
}

func milanMachine(b *testing.B, noDir bool) *Machine {
	b.Helper()
	return newMachine(Config{Topo: topology.AMDMilan7713x2()}, noDir)
}

// benchReadHot: core 0 re-reads a 256 KiB region that fits its 512 KiB L2.
func benchReadHot(b *testing.B, noDir bool) {
	m := milanMachine(b, noDir)
	const size = 256 << 10
	region := m.Space.Alloc(size, mem.Bind, 0)
	now := m.Read(0, 0, region, size) // warm L2+L3
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := int64(i%(size/64)) * 64
		now += m.Read(0, now, region+mem.Addr(off), 64)
	}
}

// benchWriteShared: eight writers on eight different chiplets take turns
// writing lines of one 4 KiB block. Every write misses locally, fills
// cache-to-cache from the previous writer's chiplet, and invalidates it.
func benchWriteShared(b *testing.B, noDir bool) {
	m := milanMachine(b, noDir)
	const size = 4 << 10
	region := m.Space.Alloc(size, mem.Bind, 0)
	per := m.Topo.CoresPerChiplet
	writers := make([]topology.CoreID, 8)
	for i := range writers {
		writers[i] = topology.CoreID(i * per) // first core of chiplets 0..7
	}
	var now int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core := writers[i%len(writers)]
		off := int64(i%(size/64)) * 64
		now += m.Access(core, now, region+mem.Addr(off), 64, true)
	}
}

// benchStreamingMiss: core 0 streams 4 KiB chunks through a 128 MiB region
// (4x its chiplet's 32 MiB L3), wrapping around, so every pass misses all
// the way to DRAM and churns fills and capacity evictions.
func benchStreamingMiss(b *testing.B, noDir bool) {
	m := milanMachine(b, noDir)
	const size = 128 << 20
	const chunk = 4 << 10
	region := m.Space.Alloc(size, mem.Bind, 0)
	var now, off int64
	b.SetBytes(chunk)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += m.Read(0, now, region+mem.Addr(off), chunk)
		off += chunk
		if off >= size {
			off = 0
		}
	}
}

// benchRemoteFill: a 256 KiB array (4x one chiplet's 64 KiB L3, half the
// machine's 512 KiB) swept in 32 KiB reads at MLP 32, each read issued by
// the next chiplet round-robin over a mesh fabric. One op is one read of
// 512 lines.
func benchRemoteFill(b *testing.B, noDir bool) {
	topo := hetSpecTopo(b)
	m := newMachine(Config{Topo: topo, Fabric: fabric.KindMesh, MLP: 32}, noDir)
	const size = 256 << 10
	const chunk = 32 << 10
	region := m.Space.Alloc(size, mem.Bind, 0)
	readers := make([]topology.CoreID, topo.NumChiplets())
	for ch := range readers {
		readers[ch] = topo.FirstCoreOf(topology.ChipletID(ch))
	}
	var now int64
	for _, core := range readers { // warm: every slice holds a share
		now += m.Read(core, now, region, size)
	}
	b.SetBytes(chunk)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Each reader sweeps the whole array at its own phase, one chunk
		// per turn: four slices' worth, so its L3 never keeps a chunk
		// until it comes round again.
		r := i % len(readers)
		off := (i/len(readers) + 3*r) % (size / chunk) * chunk
		now += m.Read(readers[r], now, region+mem.Addr(off), chunk)
	}
}
