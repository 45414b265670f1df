package sim

import (
	"testing"

	"charm/internal/mem"
	"charm/internal/pmu"
	"charm/internal/topology"
)

func testMachine() *Machine {
	return New(Config{Topo: topology.SyntheticDual(2, 4)})
}

func TestNewValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil topo must panic")
		}
	}()
	New(Config{})
}

func TestColdMissThenHit(t *testing.T) {
	m := testMachine()
	a := m.Space.Alloc(4096, mem.Bind, 0)
	cold := m.Read(0, 0, a, 64)
	if cold < m.Topo.Cost.DRAMLocal {
		t.Errorf("cold read cost %d < DRAM latency %d", cold, m.Topo.Cost.DRAMLocal)
	}
	warm := m.Read(0, 100, a, 64)
	if warm > m.Topo.Cost.L2Hit*2 {
		t.Errorf("warm read cost %d, want ~L2 hit %d", warm, m.Topo.Cost.L2Hit)
	}
	if got := m.PMU.Read(0, pmu.FillDRAMLocal); got != 1 {
		t.Errorf("dram_local fills = %d, want 1", got)
	}
	if got := m.PMU.Read(0, pmu.FillL2); got != 1 {
		t.Errorf("l2 fills = %d, want 1", got)
	}
}

func TestRemoteDRAMClassification(t *testing.T) {
	m := testMachine()
	a := m.Space.Alloc(4096, mem.Bind, 1) // homed on node 1
	m.Read(0, 0, a, 64)                   // core 0 lives on node 0
	if got := m.PMU.Read(0, pmu.FillDRAMRemote); got != 1 {
		t.Errorf("dram_remote fills = %d, want 1", got)
	}
}

func TestCacheToCacheTransfer(t *testing.T) {
	m := testMachine()
	a := m.Space.Alloc(4096, mem.Bind, 0)
	m.Read(0, 0, a, 64) // chiplet 0 caches the line
	// Core 4 is on chiplet 1, same socket: must fill from chiplet 0's L3.
	cost := m.Read(4, 100, a, 64)
	if got := m.PMU.Read(4, pmu.FillL3RemoteNear); got != 1 {
		t.Errorf("l3_remote_near fills = %d, want 1", got)
	}
	if cost < m.Topo.Cost.L3RemoteNearHit {
		t.Errorf("transfer cost %d < %d", cost, m.Topo.Cost.L3RemoteNearHit)
	}
}

func TestCrossSocketTransferClassification(t *testing.T) {
	m := testMachine()
	a := m.Space.Alloc(4096, mem.Bind, 0)
	m.Read(0, 0, a, 64)
	// Core 8 is on chiplet 2 = socket 1.
	m.Read(8, 100, a, 64)
	if got := m.PMU.Read(8, pmu.FillL3RemoteSocket); got != 1 {
		t.Errorf("l3_remote_socket fills = %d, want 1", got)
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	m := testMachine()
	a := m.Space.Alloc(4096, mem.Bind, 0)
	m.Read(0, 0, a, 64)  // chiplet 0 holds
	m.Read(4, 10, a, 64) // chiplet 1 holds too (shared)
	if !m.l3[0].Contains(uint64(a)>>6) || !m.l3[1].Contains(uint64(a)>>6) {
		t.Fatal("both chiplets must share the line")
	}
	m.Access(0, 20, a, 64, true) // write upgrade invalidates chiplet 1
	if m.l3[1].Contains(uint64(a) >> 6) {
		t.Error("chiplet 1 copy must be invalidated by the write")
	}
	// Core 4's next read ping-pongs back (cache-to-cache again).
	m.Read(4, 30, a, 64)
	if got := m.PMU.Read(4, pmu.FillL3RemoteNear); got != 2 {
		t.Errorf("ping-pong fills = %d, want 2", got)
	}
}

func TestL2HitRequiresL3Inclusion(t *testing.T) {
	m := testMachine()
	a := m.Space.Alloc(4096, mem.Bind, 0)
	m.Read(0, 0, a, 64)
	// Remote write invalidates chiplet 0's L3 copy; core 0's stale L2
	// entry must not produce an L2 hit afterwards.
	m.Access(4, 10, a, 64, true)
	m.Read(0, 20, a, 64)
	if got := m.PMU.Read(0, pmu.FillL2); got != 0 {
		t.Errorf("stale L2 hit recorded: %d", got)
	}
	if got := m.PMU.Read(0, pmu.FillL3RemoteNear); got != 1 {
		t.Errorf("expected cache-to-cache refill, got %d", got)
	}
}

func TestCapacityEvictionReachesDRAM(t *testing.T) {
	m := testMachine()     // synthetic: L3 = 64 KiB per chiplet
	size := int64(1 << 20) // 1 MiB >> L3
	a := m.Space.Alloc(size, mem.Bind, 0)
	m.Read(0, 0, a, size)
	before := m.PMU.Read(0, pmu.FillDRAMLocal)
	// Second pass: working set exceeds cache, must still miss heavily.
	m.Read(0, 1_000_000, a, size)
	after := m.PMU.Read(0, pmu.FillDRAMLocal)
	if after-before < size/64/2 {
		t.Errorf("thrashing pass had only %d DRAM fills, want >= %d", after-before, size/64/2)
	}
}

func TestSmallWorkingSetStaysCached(t *testing.T) {
	m := testMachine()
	size := int64(16 << 10) // 16 KiB < 64 KiB L3
	a := m.Space.Alloc(size, mem.Bind, 0)
	m.Read(0, 0, a, size)
	before := m.PMU.Read(0, pmu.FillDRAMLocal)
	m.Read(0, 1_000_000, a, size)
	after := m.PMU.Read(0, pmu.FillDRAMLocal)
	if after != before {
		t.Errorf("cached pass caused %d extra DRAM fills", after-before)
	}
}

func TestSamplingExtrapolatesCounters(t *testing.T) {
	m := New(Config{Topo: topology.SyntheticDual(2, 4), SampleShift: 3})
	if m.sampleFactor != 8 {
		t.Fatalf("sample factor = %d", m.sampleFactor)
	}
	size := int64(64 << 10)
	a := m.Space.Alloc(size, mem.Bind, 0)
	m.Read(0, 0, a, size)
	fills := m.PMU.Read(0, pmu.FillDRAMLocal)
	lines := size / 64
	// Extrapolated fills should approximate the true line count.
	if fills < lines/2 || fills > lines*2 {
		t.Errorf("extrapolated fills = %d, want ~%d", fills, lines)
	}
}

func TestSampledCostApproximatesExact(t *testing.T) {
	topo := topology.SyntheticDual(2, 4)
	exact := New(Config{Topo: topo})
	sampled := New(Config{Topo: topo, SampleShift: 3})
	size := int64(256 << 10)
	ae := exact.Space.Alloc(size, mem.Bind, 0)
	as := sampled.Space.Alloc(size, mem.Bind, 0)
	ce := exact.Read(0, 0, ae, size)
	cs := sampled.Read(0, 0, as, size)
	ratio := float64(cs) / float64(ce)
	if ratio < 0.5 || ratio > 2.0 {
		t.Errorf("sampled/exact cost ratio = %.2f, want within [0.5, 2.0]", ratio)
	}
}

func TestAccessZeroSize(t *testing.T) {
	m := testMachine()
	a := m.Space.Alloc(64, mem.Bind, 0)
	if c := m.Read(0, 0, a, 0); c != 0 {
		t.Errorf("zero-size access cost %d", c)
	}
}

func TestBytesAccounting(t *testing.T) {
	m := testMachine()
	a := m.Space.Alloc(4096, mem.Bind, 0)
	m.Read(0, 0, a, 100)
	m.Access(0, 0, a, 200, true)
	if got := m.PMU.Read(0, pmu.BytesRead); got != 100 {
		t.Errorf("BytesRead = %d, want 100", got)
	}
	if got := m.PMU.Read(0, pmu.BytesWritten); got != 200 {
		t.Errorf("BytesWritten = %d, want 200", got)
	}
}

func TestLocalVsDistributedCacheEffect(t *testing.T) {
	// The §2.3 microbenchmark in miniature: a working set that exceeds one
	// chiplet's L3 but fits in two is cheaper to process from two chiplets
	// than from one on the second pass.
	topo := topology.Synthetic(4, 2)
	size := int64(96 << 10) // 1.5x one chiplet's 64 KiB L3

	run := func(cores []topology.CoreID) int64 {
		m := New(Config{Topo: topo})
		a := m.Space.Alloc(size, mem.Bind, 0)
		per := size / int64(len(cores))
		// Warm-up pass, then measured pass (as in Fig. 5's setup).
		for pass := 0; pass < 2; pass++ {
			for i, c := range cores {
				m.Access(c, int64(pass)*10_000_000, a+mem.Addr(int64(i)*per), per, false)
			}
		}
		var total int64
		for i, c := range cores {
			total += m.Access(c, 20_000_000, a+mem.Addr(int64(i)*per), per, false)
		}
		return total
	}

	local := run([]topology.CoreID{0, 1})       // one chiplet
	distributed := run([]topology.CoreID{0, 2}) // two chiplets
	if distributed >= local {
		t.Errorf("distributed (%d) must beat local (%d) when working set exceeds one L3", distributed, local)
	}
}

// TestCostClassOrdering checks the fundamental monotonicity of the access
// cost model: with cold caches, a local DRAM fill is cheaper than a remote
// one, and a local L3 hit is cheaper than any cache-to-cache transfer.
func TestCostClassOrdering(t *testing.T) {
	topo := topology.SyntheticDual(2, 4)
	m := New(Config{Topo: topo})
	local := m.Space.Alloc(4096, mem.Bind, 0)
	remote := m.Space.Alloc(4096, mem.Bind, 1)

	cLocalDRAM := m.Read(0, 0, local, 64)
	cRemoteDRAM := m.Read(0, 0, remote, 64)
	if cLocalDRAM >= cRemoteDRAM {
		t.Errorf("local DRAM (%d) must be cheaper than remote DRAM (%d)", cLocalDRAM, cRemoteDRAM)
	}

	// Warm local L3, then compare hit classes.
	m.Read(0, 100, local, 64)
	cL3Local := m.Read(1, 200, local, 64) // same chiplet as core 0
	// Chiplet 1 (core 4): cache-to-cache transfer.
	cC2C := m.Read(4, 300, local, 64)
	if cL3Local >= cC2C {
		t.Errorf("local L3 hit (%d) must be cheaper than cache-to-cache (%d)", cL3Local, cC2C)
	}
	// Cross-socket transfer costs even more: chiplet 2 is socket 1.
	m2 := New(Config{Topo: topo})
	l2 := m2.Space.Alloc(4096, mem.Bind, 0)
	m2.Read(0, 0, l2, 64)
	near := m2.Read(4, 100, l2, 64)
	m3 := New(Config{Topo: topo})
	l3a := m3.Space.Alloc(4096, mem.Bind, 0)
	m3.Read(0, 0, l3a, 64)
	cross := m3.Read(8, 100, l3a, 64)
	if near >= cross {
		t.Errorf("intra-socket transfer (%d) must be cheaper than cross-socket (%d)", near, cross)
	}
}

// TestStreamingCheaperThanRandom checks the MLP model: streaming a block is
// cheaper per line than touching the same lines in single-line accesses.
func TestStreamingCheaperThanRandom(t *testing.T) {
	topo := topology.SyntheticDual(2, 4)
	size := int64(1 << 20) // far beyond all caches

	mStream := New(Config{Topo: topo})
	aS := mStream.Space.Alloc(size, mem.Bind, 0)
	streamed := mStream.Read(0, 0, aS, size)

	mRand := New(Config{Topo: topo})
	aR := mRand.Space.Alloc(size, mem.Bind, 0)
	var single int64
	var tnow int64
	for off := int64(0); off < size; off += 64 {
		c := mRand.Read(0, tnow, aR+mem.Addr(off), 64)
		single += c
		tnow += c
	}
	if streamed*2 >= single {
		t.Errorf("streamed read (%d) should be well under serialized reads (%d)", streamed, single)
	}
}

// hetSpecTopo builds the heterogeneous 4x2 machine of the topo experiment.
func hetSpecTopo(tb testing.TB) *topology.Topology {
	tb.Helper()
	sp, err := topology.ParseTopoSpec("mesh:4x2,fast=2,eff=4,accel=2")
	if err != nil {
		tb.Fatal(err)
	}
	topo, err := sp.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return topo
}

// TestLayoutTablesMatchTopology compares every entry of the tables New
// precomputes with the Topology method it stands for, for every (core,
// chiplet) and (core, node) pair: the methods stay the single source of
// truth, the tables only spare the miss path their divisions.
func TestLayoutTablesMatchTopology(t *testing.T) {
	for _, topo := range []*topology.Topology{
		topology.AMDMilan7713x2(),
		topology.AMDMilanNPS4(),
		topology.IntelSPR8488Cx2(),
		topology.Synthetic(4, 2),
		hetSpecTopo(t),
	} {
		t.Run(topo.Name, func(t *testing.T) {
			m := New(Config{Topo: topo})
			nch := topo.NumChiplets()
			for c := 0; c < topo.NumCores(); c++ {
				core := topology.CoreID(c)
				ch := m.chipletOf[c]
				if ch != topo.ChipletOf(core) || m.nodeOf[c] != topo.NodeOfCore(core) {
					t.Fatalf("core %d: tables say chiplet %d node %d, topology chiplet %d node %d",
						c, ch, m.nodeOf[c], topo.ChipletOf(core), topo.NodeOfCore(core))
				}
				if got, want := m.coreAccMilli(core), topo.AccessMilli(ch); got != want {
					t.Fatalf("core %d: access multiplier %d, topology %d", c, got, want)
				}
				for o := 0; o < nch; o++ {
					owner := topology.ChipletID(o)
					if got, want := m.l3Lat[int(ch)*nch+o], topo.L3HitLatency(core, owner); got != want {
						t.Fatalf("core %d owner %d: l3Lat %d, L3HitLatency %d", c, o, got, want)
					}
					if owner == ch {
						continue
					}
					want := pmu.FillL3RemoteSocket
					switch topo.ClassOf(core, topo.FirstCoreOf(owner)) {
					case topology.InterChipletNear:
						want = pmu.FillL3RemoteNear
					case topology.InterChipletFar:
						want = pmu.FillL3RemoteFar
					}
					if got := m.remoteEv[int(ch)*nch+o]; got != want {
						t.Fatalf("core %d holder %d: remote-fill event %v, ClassOf gives %v", c, o, got, want)
					}
				}
				for n := 0; n < topo.NumNodes(); n++ {
					if got, want := m.dramLat[n*nch+int(ch)], topo.DRAMLatency(core, topology.NodeID(n)); got != want {
						t.Fatalf("core %d node %d: dramLat %d, DRAMLatency %d", c, n, got, want)
					}
				}
			}
		})
	}
}
