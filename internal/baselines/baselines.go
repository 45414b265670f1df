// Package baselines implements the four comparison systems of the paper's
// evaluation (§5.1) as placement/adaptation policies over the shared
// runtime engine, plus the std::async OS-thread baseline of §5.5:
//
//   - RING: NUMA-aware message-batching runtime — balances workers across
//     NUMA nodes and allocates node-locally, but is chiplet-oblivious.
//   - SHOAL: smart memory allocation/replication for NUMA — sequential
//     core assignment (task 0 -> core 0) plus array replication.
//   - AsymSched: bandwidth-centric NUMA scheduler — keeps thread groups
//     per node and migrates them to balance memory bandwidth.
//   - SAM: contention-aware scheduler — separates data-sharing threads
//     from memory-bound threads at socket granularity.
//
// All of them are NUMA-aware but chiplet-oblivious, the property the paper
// identifies as their shared limitation. Three more systems are fixed
// placements and CHARM variants: the no-runtime-support execution of §5.4
// and the ablations that disable one CHARM mechanism each.
package baselines

import (
	"charm/internal/core"
	"charm/internal/pmu"
	"charm/internal/sim"
)

// System identifies a runtime system under evaluation.
type System string

// The systems compared throughout the evaluation.
const (
	CHARM     System = "charm"
	RING      System = "ring"
	SHOAL     System = "shoal"
	AsymSched System = "asymsched"
	SAM       System = "sam"
	OSAsync   System = "os-async"
	// Naive is execution without architecture-aware runtime support (§5.4,
	// the DuckDB default of §5.6): workers scattered across NUMA nodes, no
	// adaptation, and task assignment that churns every phase.
	Naive System = "naive"
	// StaticCompact is CHARM's initial dense placement with the adaptive
	// controller off (LocalCache in §2.3 and §5.7).
	StaticCompact System = "static-compact"
	// CHARMSeqSteal is CHARM with worker-ID ring stealing in place of
	// chiplet-first stealing (the steal-order ablation).
	CHARMSeqSteal System = "charm-seq-steal"
)

// Systems lists every System value.
var Systems = []System{CHARM, RING, SHOAL, AsymSched, SAM, OSAsync, Naive, StaticCompact, CHARMSeqSteal}

// Policy returns the core.Policy implementing the system's placement and
// adaptation strategy.
func (s System) Policy() core.Policy {
	switch s {
	case CHARM:
		return core.NewCharmPolicy()
	case RING:
		return &ringPolicy{}
	case SHOAL:
		return &shoalPolicy{}
	case AsymSched:
		return &asymSchedPolicy{}
	case SAM:
		return &samPolicy{}
	case OSAsync:
		return &osAsyncPolicy{}
	case Naive:
		p := core.NewStaticPolicy(core.SpreadSockets)
		p.Churn = true
		return p
	case StaticCompact:
		return core.NewStaticPolicy(core.Compact)
	case CHARMSeqSteal:
		return &core.CharmPolicy{ObliviousSteal: true}
	default:
		panic("baselines: unknown system " + string(s))
	}
}

// Configure sets opts up the way the system would run on machine m: its
// placement/adaptation policy and, for OSAsync, the thread-flood substrate.
// Every other field of opts is the caller's.
func (s System) Configure(m *sim.Machine, opts *core.Options) {
	opts.Policy = s.Policy()
	if s == OSAsync {
		// std::async maps each task to an OS thread: thread spawn per
		// task, OS context switches, and a thread flood oversubscribing
		// the cores (§5.5: 641 threads on 32 cores).
		opts.Oversubscribe = true
		opts.Workers *= osAsyncThreadFactor
		opts.Overheads = core.TaskOverheads{
			Spawn:  m.Topo.Cost.ThreadSpawn,
			Switch: m.Topo.Cost.ThreadSwitch,
		}
	}
}

// osAsyncThreadFactor models how many OS threads std::async keeps alive per
// core under a blocking fork/join workload.
const osAsyncThreadFactor = 4

// dramFillDelta reads the DRAM fill counters of a worker's current core.
func dramFills(w *core.Worker) (local, remote int64) {
	p := w.Runtime().M.PMU
	c := int(w.Core())
	return p.Read(c, pmu.FillDRAMLocal), p.Read(c, pmu.FillDRAMRemote)
}

// coherenceFills reads the cache-to-cache fill counters of a worker's core.
func coherenceFills(w *core.Worker) int64 {
	p := w.Runtime().M.PMU
	c := int(w.Core())
	return p.Read(c, pmu.FillL3RemoteNear) + p.Read(c, pmu.FillL3RemoteFar) +
		p.Read(c, pmu.FillL3RemoteSocket)
}
