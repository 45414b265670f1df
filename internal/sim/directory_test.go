package sim

import (
	"sync"
	"testing"

	"charm/internal/cache"
	"charm/internal/mem"
	"charm/internal/pmu"
	"charm/internal/rng"
	"charm/internal/topology"
)

// newMachine builds a machine from cfg, in broadcast-scan mode when scan is
// set: every L3 presence question then scans the tag arrays, the path
// topologies over 64 chiplets take and the reference model the directory
// is held to.
func newMachine(cfg Config, scan bool) *Machine {
	m := New(cfg)
	if scan {
		m.dir = nil
	}
	return m
}

// TestDirectoryMatchesScanState drives randomized access sequences and
// repeatedly asserts the exactness invariant: the directory's presence
// bitmask equals a brute-force scan of every chiplet's tag array, bit for
// bit. The directory is a mirror, not an approximation.
func TestDirectoryMatchesScanState(t *testing.T) {
	for _, tc := range []struct {
		name  string
		topo  *topology.Topology
		shift uint
	}{
		{"dual-2x4", topology.SyntheticDual(2, 4), 0},
		{"wide-16x1", topology.Synthetic(16, 1), 0},
		{"sampled", topology.SyntheticDual(2, 4), 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := New(Config{Topo: tc.topo, SampleShift: tc.shift})
			if m.dir == nil {
				t.Fatal("directory must be enabled by default")
			}
			const regionSize = 1 << 16
			region := m.Space.Alloc(regionSize, mem.Interleave, 0)
			firstLine := uint64(region) >> cache.LineShift
			lastLine := (uint64(region) + regionSize - 1) >> cache.LineShift
			check := func() {
				t.Helper()
				scratch := &dirCache{}
				for line := firstLine; line <= lastLine; line++ {
					mask := m.dir.holders(line, scratch)
					for ch := range m.l3 {
						scan := m.l3[ch].Contains(line)
						dir := mask&(1<<uint(ch)) != 0
						if scan != dir {
							t.Fatalf("line %#x chiplet %d: directory=%v tag scan=%v", line, ch, dir, scan)
						}
					}
				}
			}
			s := uint64(0xC0FFEE)
			cores := m.Topo.NumCores()
			var now int64
			for i := 0; i < 5000; i++ {
				core := topology.CoreID(rng.Intn(&s, cores))
				off := int64(rng.SplitMix64(&s) % (regionSize - 2048))
				size := int64(rng.SplitMix64(&s)%2048) + 1
				write := rng.SplitMix64(&s)%3 == 0
				now += m.Access(core, now, region+mem.Addr(off), size, write)
				if i%500 == 499 {
					check()
				}
			}
			check()
		})
	}
}

// TestDirectoryEquivalentToScan runs the identical randomized sequence on
// a directory machine and a scan machine and requires identical per-access
// costs and identical PMU counters: the directory changes the complexity
// of coherence lookups, never their outcome.
func TestDirectoryEquivalentToScan(t *testing.T) {
	topo := topology.SyntheticDual(2, 4)
	const regionSize = 1 << 16
	const ops = 8000
	run := func(noDir bool) ([]int64, [][]int64) {
		m := newMachine(Config{Topo: topo}, noDir)
		if (m.dir != nil) == noDir {
			t.Fatalf("directory on = %v in scan mode %v", m.dir != nil, noDir)
		}
		region := m.Space.Alloc(regionSize, mem.Interleave, 0)
		s := uint64(7)
		cores := m.Topo.NumCores()
		var now int64
		costs := make([]int64, 0, ops)
		for i := 0; i < ops; i++ {
			core := topology.CoreID(rng.Intn(&s, cores))
			off := int64(rng.SplitMix64(&s) % (regionSize - 2048))
			size := int64(rng.SplitMix64(&s)%2048) + 1
			write := rng.SplitMix64(&s)%3 == 0
			c := m.Access(core, now, region+mem.Addr(off), size, write)
			costs = append(costs, c)
			now += c
		}
		counters := make([][]int64, cores)
		for c := 0; c < cores; c++ {
			counters[c] = make([]int64, pmu.NumEvents)
			for e := 0; e < pmu.NumEvents; e++ {
				counters[c][e] = m.PMU.Read(c, pmu.Event(e))
			}
		}
		return costs, counters
	}
	dirCosts, dirPMU := run(false)
	scanCosts, scanPMU := run(true)
	for i := range dirCosts {
		if dirCosts[i] != scanCosts[i] {
			t.Fatalf("access %d: directory cost %d != scan cost %d", i, dirCosts[i], scanCosts[i])
		}
	}
	for c := range dirPMU {
		for e := range dirPMU[c] {
			if dirPMU[c][e] != scanPMU[c][e] {
				t.Fatalf("core %d event %v: directory %d != scan %d",
					c, pmu.Event(e), dirPMU[c][e], scanPMU[c][e])
			}
		}
	}
}

// conflictEvict fills victim's L3 set from core filler until victim's line
// is evicted by capacity pressure, and returns the virtual time after the
// fills. The filler lines alias the same L3 set (stride = numSets lines).
func conflictEvict(t *testing.T, m *Machine, filler topology.CoreID, region mem.Addr, line uint64, now int64) int64 {
	t.Helper()
	l3 := m.l3[m.Topo.ChipletOf(filler)]
	ways := m.Topo.L3Ways
	stride := uint64(l3.Capacity()/ways) << cache.LineShift
	for k := 1; k <= ways+2; k++ {
		a := region + mem.Addr(uint64(k)*stride)
		now += m.Read(filler, now, a, 64)
	}
	if l3.Contains(line) {
		t.Fatal("capacity pressure failed to evict the victim line")
	}
	return now
}

// TestEvictionLeavesDirectory checks eviction propagation: a line evicted
// from an L3 by capacity pressure must drop out of the directory, stop
// being found by closestHolder (the next remote access goes to DRAM, not
// cache-to-cache), and stop validating the L2-inclusivity fast path even
// while the stale L2 copy survives.
func TestEvictionLeavesDirectory(t *testing.T) {
	// Synthetic(2,2): chiplet 0 = cores {0,1}, chiplet 1 = cores {2,3};
	// 64 KiB 8-way L3 slices, 8 KiB 4-way L2s, one NUMA node.
	m := New(Config{Topo: topology.Synthetic(2, 2)})
	region := m.Space.Alloc(1<<20, mem.Bind, 0)
	line := uint64(region) >> cache.LineShift

	// Part 1: closestHolder must not find an evicted line.
	now := m.Read(0, 0, region, 64) // chiplet 0 caches the line
	if !m.dir.has(line, 0, &dirCache{}) {
		t.Fatal("directory must track the filled line")
	}
	// Core 1 shares chiplet 0's L3: its conflict fills evict the line from
	// L3(0) without touching core 0's L2.
	now = conflictEvict(t, m, 1, region, line, now)
	if m.dir.has(line, 0, &dirCache{}) {
		t.Fatal("evicted line must drop out of the directory")
	}
	// Chiplet 1's read must fill from DRAM — there is no holder left.
	now += m.Read(2, now, region, 64)
	if got := m.PMU.Read(2, pmu.FillL3RemoteNear); got != 0 {
		t.Errorf("closestHolder found an evicted line: %d c2c fills", got)
	}
	if got := m.PMU.Read(2, pmu.FillDRAMLocal); got != 1 {
		t.Errorf("expected a DRAM refill after eviction, got %d", got)
	}

	// Part 2: the L2-inclusivity fast path must reject a stale L2 copy.
	m2 := New(Config{Topo: topology.Synthetic(2, 2)})
	region2 := m2.Space.Alloc(1<<20, mem.Bind, 0)
	line2 := uint64(region2) >> cache.LineShift
	now = m2.Read(0, 0, region2, 64) // line in L2(0) and L3(0)
	now = conflictEvict(t, m2, 1, region2, line2, now)
	if !m2.l2[0].Contains(line2) {
		t.Fatal("test setup: core 0's L2 copy must survive the L3 conflict fills")
	}
	hitsBefore := m2.PMU.Read(0, pmu.FillL2)
	m2.Read(0, now, region2, 64)
	if got := m2.PMU.Read(0, pmu.FillL2); got != hitsBefore {
		t.Errorf("stale L2 hit counted after L3 eviction: %d -> %d", hitsBefore, got)
	}
	if got := m2.PMU.Read(0, pmu.FillDRAMLocal); got != 2 {
		t.Errorf("expected a DRAM refill through the broken inclusivity, got %d", got)
	}
}

// TestMachineAccessRaceStress hammers Machine.Access from one goroutine
// per simulated core over one shared region — the concurrency contract of
// the machine — and checks every returned cost is positive. Run under
// -race (the Makefile verify target does) it also proves the sharded
// directory introduces no data races.
func TestMachineAccessRaceStress(t *testing.T) {
	m := New(Config{Topo: topology.SyntheticDual(2, 4)})
	const regionSize = 64 << 10
	region := m.Space.Alloc(regionSize, mem.Interleave, 0)
	iters := 4000
	if testing.Short() {
		iters = 500
	}
	var wg sync.WaitGroup
	for c := 0; c < m.Topo.NumCores(); c++ {
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
				now += cost
			}
		}(c)
	}
	wg.Wait()
	// After the dust settles, every directory bit must refer to a line the
	// corresponding tag array could plausibly hold; exact equality is only
	// guaranteed single-threaded, but the directory must never be left
	// tracking lines outside the accessed region.
	first := uint64(region) >> cache.LineShift
	last := (uint64(region) + regionSize - 1) >> cache.LineShift
	m.dir.forEach(func(line, mask uint64) {
		if line < first || line > last {
			t.Errorf("directory tracks line %#x outside the accessed region [%#x,%#x]", line, first, last)
		}
	})
}

// TestStreamingSweepPageLookups checks that a streaming sweep with capacity
// evictions reaches the page registry (directory.page: shard lock + map
// lookup) once per 256-line page per stream, not once per line. A core's
// two entries are its only way there, and page is called exactly when an
// entry changes — pageFor calls it on a key mismatch and stores what it
// returns, and every page asked for here exists — so counting the changes
// across single-line reads counts the lookups: one per page the sweep
// enters on the fill entry, one per page the victims enter on the victim
// entry.
func TestStreamingSweepPageLookups(t *testing.T) {
	// Synthetic(2,2): 64 KiB 8-way L3 slices, so the second sweep of a
	// 256 KiB region evicts one line per fill, 1024 lines behind it.
	m := New(Config{Topo: topology.Synthetic(2, 2)})
	const size = 256 << 10
	const lines = size >> cache.LineShift
	const pages = lines / dirPageLines
	region := m.Space.Alloc(size, mem.Bind, 0)
	now := m.Read(0, 0, region, size)
	evictedBefore := m.l3[0].Evictions()

	sc := &m.avg[0]
	fill, vic := sc.dir.p.Load(), sc.vic.p.Load()
	fillChanges, vicChanges := 0, 0
	for i := 0; i < lines; i++ {
		now += m.Read(0, now, region+mem.Addr(i<<cache.LineShift), 64)
		if p := sc.dir.p.Load(); p != fill {
			fill = p
			fillChanges++
		}
		if p := sc.vic.p.Load(); p != vic {
			vic = p
			vicChanges++
		}
	}
	if got := m.l3[0].Evictions() - evictedBefore; got != lines {
		t.Fatalf("sweep evicted %d lines, want one per fill (%d)", got, lines)
	}
	// The region need not start on a page boundary, so a sweep can enter
	// one page more than it covers.
	if fillChanges < pages || fillChanges > pages+1 {
		t.Errorf("fill entry changed %d times over %d lines, want one per page (%d)", fillChanges, lines, pages)
	}
	if vicChanges < pages || vicChanges > pages+1 {
		t.Errorf("victim entry changed %d times over %d victims, want one per page (%d)", vicChanges, lines, pages)
	}
}
