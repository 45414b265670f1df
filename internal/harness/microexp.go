package harness

import (
	"fmt"
	"sort"

	"charm"
)

// Fig3 regenerates the core-to-core latency CDF of §2.1: CAS ping-pong
// latency between every core pair of the AMD machine, with the stepped
// distribution (intra-chiplet / inter-chiplet / cross-CCX / cross-socket).
func (o Options) Fig3() *Table {
	topo := o.amd()
	var all, within []int64
	n := topo.NumCores()
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			l := topo.CASLatency(charm.CoreID(a), charm.CoreID(b))
			all = append(all, l)
			if topo.NodeOfCore(charm.CoreID(a)) == topo.NodeOfCore(charm.CoreID(b)) {
				within = append(within, l)
			}
		}
	}
	t := &Table{
		ID:     "fig3",
		Title:  "Core-to-core CAS latency CDF (AMD EPYC Milan)",
		Header: []string{"scope", "p10 ns", "p25 ns", "p50 ns", "p75 ns", "p90 ns", "p100 ns"},
		Notes:  "within-NUMA latencies step at ~25/85/155 ns; cross-NUMA above 200 ns",
	}
	t.Rows = append(t.Rows, cdfRow("all-pairs", all))
	t.Rows = append(t.Rows, cdfRow("within-numa", within))
	return t
}

func cdfRow(name string, v []int64) []string {
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	q := func(p float64) string {
		idx := int(p * float64(len(v)-1))
		return i64(v[idx])
	}
	return []string{name, q(0.10), q(0.25), q(0.50), q(0.75), q(0.90), q(1.0)}
}

// Fig4 reproduces the cores-vs-memory-channels trend table (§2.2). The
// data is historical; the point is the widening ratio.
func (o Options) Fig4() *Table {
	t := &Table{
		ID:     "fig4",
		Title:  "Cores vs memory channels in high-end server CPUs",
		Header: []string{"year", "example", "cores", "channels", "cores/channel"},
		Notes:  "core counts grow ~12x since 2010 while channels only ~3x",
	}
	data := []struct {
		year     string
		name     string
		cores    int
		channels int
	}{
		{"2010", "Xeon X7560", 8, 4},
		{"2014", "Xeon E7-8890v2", 15, 4},
		{"2017", "EPYC Naples 7601", 32, 8},
		{"2019", "EPYC Rome 7742", 64, 8},
		{"2021", "EPYC Milan 7713", 64, 8},
		{"2023", "EPYC Genoa 9654", 96, 12},
		{"2026(proj)", "projected", 300, 16},
	}
	for _, d := range data {
		t.Rows = append(t.Rows, []string{d.year, d.name, i64(int64(d.cores)),
			i64(int64(d.channels)), f1(float64(d.cores) / float64(d.channels))})
	}
	return t
}

// Fig5 regenerates the §2.3 microbenchmark: 8 threads write contiguous
// segments of a shared vector, placed either on one chiplet (LocalCache)
// or across all 8 chiplets of a socket (DistributedCache). The row metric
// is DistributedCache's speedup over LocalCache; values below 1 mean
// LocalCache wins (small working sets), above 1 DistributedCache wins.
func (o Options) Fig5() *Table {
	t := &Table{
		ID:     "fig5",
		Title:  "LocalCache vs DistributedCache segmented write sweep (8 workers)",
		Header: []string{"size", "local ns", "distributed ns", "dist speedup"},
		Notes:  "LocalCache wins below one chiplet's L3 capacity; DistributedCache wins beyond, up to ~2.5x",
	}
	topo := o.amd()
	l3 := topo.L3PerChiplet / maxI64(o.CacheScale, 1)
	// Sweep from below one cache line (the paper starts at 38 B, where
	// the 8 segments falsely share lines) to far above the socket's
	// aggregate L3.
	sizes := []int64{64, 256, l3 / 64, l3 / 8, l3 / 2, l3, 2 * l3, 4 * l3, 8 * l3, 32 * l3}
	for _, size := range sizes {
		local := o.fig5Run(true, size)
		dist := o.fig5Run(false, size)
		t.Rows = append(t.Rows, []string{
			byteLabel(size), i64(local), i64(dist), f2(float64(local) / float64(dist)),
		})
	}
	return t
}

// fig5Run measures the mean virtual time of segmented writes with 8
// workers placed compactly (local) or across chiplets (distributed).
func (o Options) fig5Run(local bool, size int64) int64 {
	rt := o.start(charm.Config{
		Topology:    o.amd(),
		CacheScale:  o.CacheScale,
		Workers:     8,
		System:      charm.SystemStaticCompact, // static placement per the microbenchmark setup
		SampleShift: o.SampleShift,
	})
	defer rt.Finalize()
	if !local {
		// Move each worker to its own chiplet (DistributedCache).
		spreadChiplets(rt, 8)
	}
	data := rt.AllocPolicy(maxI64(size, 64*8), charm.FirstTouch, 0)
	seg := maxI64(size/8, 8)
	// Warm-up pass (the benchmark's initialization), then measured passes.
	run := func() int64 {
		st := rt.AllDo(func(ctx *charm.Ctx) {
			off := charm.Addr(int64(ctx.Worker()) * seg)
			ctx.Write(data+off, seg)
		})
		return st.Makespan
	}
	run()
	var total int64
	const iters = 5
	for i := 0; i < iters; i++ {
		total += run()
	}
	return total / iters
}

func byteLabel(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%dGiB", b>>30)
	case b >= 1<<20:
		return fmt.Sprintf("%dMiB", b>>20)
	case b >= 1<<10:
		return fmt.Sprintf("%dKiB", b>>10)
	default:
		return fmt.Sprintf("%dB", b)
	}
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
