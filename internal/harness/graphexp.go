package harness

import (
	"fmt"
	"sync"

	"charm"
	"charm/internal/workloads/graph"
	"charm/internal/workloads/gups"
)

// kroneckers memoizes the seed-42 Kronecker graphs by scale.
var kroneckers struct {
	sync.Mutex
	byScale map[int]*graph.CSR
}

// kronecker returns the graph of 2^scale vertices that every graph
// experiment reads. It is built once per scale and shared read-only, so
// concurrently running experiments hold one copy (under -full a 2^24 graph
// is gigabytes).
func kronecker(scale int) *graph.CSR {
	kroneckers.Lock()
	defer kroneckers.Unlock()
	g := kroneckers.byScale[scale]
	if g == nil {
		g = graph.Kronecker(graph.GenConfig{LogVertices: scale, EdgeFactor: 16, Seed: 42})
		if kroneckers.byScale == nil {
			kroneckers.byScale = map[int]*graph.CSR{}
		}
		kroneckers.byScale[scale] = g
	}
	return g
}

// GraphBenchmarks lists the §5.2 benchmark suite in paper order.
var GraphBenchmarks = []string{"bfs", "pr", "cc", "sssp", "gups", "graph500"}

// GraphSystems lists the systems compared in Fig. 7/8.
var GraphSystems = []charm.System{charm.SystemCHARM, charm.SystemRING, charm.SystemAsymSched, charm.SystemSAM}

// graphCoreCounts returns the scalability sweep for a machine.
func graphCoreCounts(topo *charm.Topology) []int {
	switch topo.NumCores() {
	case 128:
		return []int{8, 16, 32, 64, 96, 128}
	case 96:
		return []int{8, 16, 32, 48, 72, 96}
	default:
		n := topo.NumCores()
		return []int{n / 4, n / 2, n}
	}
}

// graphGrain sizes tasks so every worker gets several chunks per round
// (at least 8 tasks per worker when the input allows).
func graphGrain(n, workers int) int {
	g := n / (workers * 8)
	if g < 16 {
		g = 16
	}
	if g > 2048 {
		g = 2048
	}
	return g
}

// runGraphBenchmark executes one benchmark on one runtime and returns its
// throughput metric: traversed/processed edges (or updates) per virtual
// second, scaled to millions.
func (o Options) runGraphBenchmark(rt *charm.Runtime, name string, g *graph.CSR) float64 {
	grain := graphGrain(1<<o.GraphScale, rt.Workers())
	switch name {
	case "gups":
		updates := 4 << (o.GraphScale + 3)
		res := gups.Run(rt, gups.Config{
			LogTableSize: o.GraphScale + 3,
			Grain:        graphGrain(updates, rt.Workers()),
			Seed:         7,
		})
		return res.GUPS() * 1e3 // millions of updates/s
	case "bfs":
		b := graph.Bind(rt, g, grain)
		_, res := b.BFS(0)
		return res.TEPS() / 1e6
	case "pr":
		b := graph.Bind(rt, g, grain)
		_, res := b.PageRank(3)
		return res.TEPS() / 1e6
	case "cc":
		b := graph.Bind(rt, g, grain)
		_, res := b.CC()
		return res.TEPS() / 1e6
	case "sssp":
		b := graph.Bind(rt, g, grain)
		_, res := b.SSSP(0)
		return res.TEPS() / 1e6
	case "graph500":
		b := graph.Bind(rt, g, grain)
		res := b.Graph500(2)
		return res.TEPS() / 1e6
	default:
		panic("harness: unknown graph benchmark " + name)
	}
}

// graphScalability runs the Fig. 7/8 sweep on the given machine.
func (o Options) graphScalability(id, machine string, topo func() *charm.Topology) *Table {
	t := &Table{
		ID:     id,
		Title:  fmt.Sprintf("Graph processing + random access scalability (%s), MTEPS/MUPS", machine),
		Header: []string{"benchmark", "system"},
		Notes: "CHARM scales near-linearly to one socket then dips and recovers; " +
			"NUMA-aware baselines saturate around 48-56 cores; CHARM leads 1.8-2.3x at 64 cores",
	}
	counts := graphCoreCounts(topo())
	for _, c := range counts {
		t.Header = append(t.Header, fmt.Sprintf("%dc", c))
	}
	g := kronecker(o.GraphScale)
	for _, bench := range GraphBenchmarks {
		for _, sys := range GraphSystems {
			row := []string{bench, string(sys)}
			for _, workers := range counts {
				rt := o.runtime(topo(), sys, workers)
				row = append(row, f1(o.runGraphBenchmark(rt, bench, g)))
				rt.Finalize()
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t
}

// Fig7 regenerates the AMD scalability figure.
func (o Options) Fig7() *Table { return o.graphScalability("fig7", "AMD EPYC Milan", o.amd) }

// Fig8 regenerates the Intel scalability figure.
func (o Options) Fig8() *Table { return o.graphScalability("fig8", "Intel Xeon SPR", o.intel) }

// Tab1 regenerates the chiplet-access comparison at 64 cores (CHARM vs
// RING): accesses served by remote-NUMA chiplets vs the local chiplet.
func (o Options) Tab1() *Table {
	t := &Table{
		ID:     "tab1",
		Title:  "Chiplet accesses at 64 cores (x1000): CHARM vs RING",
		Header: []string{"benchmark", "remote-numa CHARM", "remote-numa RING", "local CHARM", "local RING"},
		Notes:  "CHARM's remote-NUMA chiplet accesses are orders of magnitude below RING's; local-chiplet accesses exceed RING's",
	}
	g := kronecker(o.GraphScale)
	workers := 64
	if n := o.amd().NumCores(); workers > n {
		workers = n / 2
	}
	for _, bench := range GraphBenchmarks {
		var remote, local [2]int64
		for i, sys := range []charm.System{charm.SystemCHARM, charm.SystemRING} {
			rt := o.runtime(o.amd(), sys, workers)
			o.runGraphBenchmark(rt, bench, g)
			remote[i] = rt.Counter(charm.FillL3RemoteSocket) + rt.Counter(charm.FillDRAMRemote)
			local[i] = rt.Counter(charm.FillL2) + rt.Counter(charm.FillL3Local)
			rt.Finalize()
		}
		t.Rows = append(t.Rows, []string{bench,
			i64(remote[0] / 1000), i64(remote[1] / 1000),
			i64(local[0] / 1000), i64(local[1] / 1000)})
	}
	return t
}

// Fig10 regenerates the graph-size sensitivity sweep: CHARM's speedup over
// RING across graph sizes at 32 and 64 cores.
func (o Options) Fig10() *Table {
	t := &Table{
		ID:     "fig10",
		Title:  "CHARM speedup over RING across graph sizes",
		Header: []string{"benchmark", "size", "bytes", "32c", "64c"},
		Notes:  "speedup stable across sizes (working-set driven), larger at 64 cores where RING stops scaling",
	}
	scales := []int{o.GraphScale - 3, o.GraphScale - 1, o.GraphScale}
	cores := []int{32, 64}
	for _, bench := range []string{"bfs", "pr", "cc", "sssp", "gups", "graph500"} {
		for _, s := range scales {
			g := kronecker(s)
			row := []string{bench, fmt.Sprintf("2^%d", s), i64(g.ApproxBytes())}
			for _, workers := range cores {
				so := o
				so.GraphScale = s
				rtC := so.runtime(so.amd(), charm.SystemCHARM, workers)
				vC := so.runGraphBenchmark(rtC, bench, g)
				rtC.Finalize()
				rtR := so.runtime(so.amd(), charm.SystemRING, workers)
				vR := so.runGraphBenchmark(rtR, bench, g)
				rtR.Finalize()
				if vR <= 0 {
					row = append(row, "n/a")
				} else {
					row = append(row, f2(vC/vR))
				}
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t
}
