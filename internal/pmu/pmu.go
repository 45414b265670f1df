// Package pmu simulates the performance-monitoring-unit counters CHARM
// reads on real hardware (ANY_DATA_CACHE_FILLS_FROM_SYSTEM on AMD,
// OFFCORE_RESPONSE on Intel). Every simulated core owns a set of counters;
// fills are classified by serving source, which lets the runtime
// distinguish on-chip (intra-CCX), on-die (inter-CCX) and remote
// (inter-NUMA) traffic exactly as §4.5 describes.
package pmu

import (
	"fmt"
	"sync/atomic"
)

// Event identifies one counter.
type Event uint8

const (
	// FillL2 counts accesses served by the core-private L2.
	FillL2 Event = iota
	// FillL3Local counts fills from the chiplet-local L3 (intra-CCX).
	FillL3Local
	// FillL3RemoteNear and FillL3RemoteFar count cache-to-cache fills from
	// another chiplet in the same NUMA node (on-die, inter-CCX).
	FillL3RemoteNear
	FillL3RemoteFar
	// FillL3RemoteSocket counts cache-to-cache fills across sockets.
	FillL3RemoteSocket
	// FillDRAMLocal / FillDRAMRemote count fills from main memory.
	FillDRAMLocal
	FillDRAMRemote
	// TaskRun counts tasks executed; TaskSteal counts successful steals;
	// StealRemoteChiplet counts steals that crossed a chiplet boundary.
	TaskRun
	TaskSteal
	StealRemoteChiplet
	// Migration counts worker core re-assignments (Alg. 2 enactments).
	Migration
	// CtxSwitch counts coroutine/thread context switches.
	CtxSwitch
	// BytesRead / BytesWritten account the application data volume moved
	// through the compute pipeline (the Fig. 11 "throughput" numerator).
	BytesRead
	BytesWritten
	// ComputeNS accumulates virtual ns of pure CPU work charged via
	// Ctx.Compute — the busy-time proxy the energy model (internal/power)
	// converts to dynamic compute power.
	ComputeNS

	numEvents
)

// NumEvents is the number of defined counters.
const NumEvents = int(numEvents)

var eventNames = [NumEvents]string{
	"fill.l2", "fill.l3_local", "fill.l3_remote_near", "fill.l3_remote_far",
	"fill.l3_remote_socket", "fill.dram_local", "fill.dram_remote",
	"task.run", "task.steal", "task.steal_remote_chiplet", "migration",
	"ctx_switch", "bytes.read", "bytes.written", "compute.ns",
}

// String returns the counter's name.
func (e Event) String() string {
	if int(e) < NumEvents {
		return eventNames[e]
	}
	return fmt.Sprintf("Event(%d)", uint8(e))
}

// coreCounters is padded to a cache line multiple to avoid false sharing
// between adjacent cores' counters on the host machine.
type coreCounters struct {
	v [NumEvents]atomic.Int64
	_ [64 - (NumEvents*8)%64]byte
}

// PMU holds per-core counters. All methods are safe for concurrent use.
type PMU struct {
	cores []coreCounters
}

// New creates counters for n cores.
func New(n int) *PMU {
	return &PMU{cores: make([]coreCounters, n)}
}

// Add increments core's counter for e by n.
func (p *PMU) Add(core int, e Event, n int64) {
	p.cores[core].v[e].Add(n)
}

// Read returns core's counter for e.
func (p *PMU) Read(core int, e Event) int64 {
	return p.cores[core].v[e].Load()
}

// Total sums a counter over all cores.
func (p *PMU) Total(e Event) int64 {
	var s int64
	for i := range p.cores {
		s += p.cores[i].v[e].Load()
	}
	return s
}

// FillsFromSystem returns the value of the ANY_DATA_CACHE_FILLS_FROM_SYSTEM
// analog for a core: every fill served from beyond the local chiplet
// (remote chiplet caches and DRAM). This is the event counter consumed by
// Alg. 1's getEventCounter().
func (p *PMU) FillsFromSystem(core int) int64 {
	return p.Filtered(core, MaskFromSystem)
}

// Snapshot captures all counters of all cores.
type Snapshot struct {
	Counts [][NumEvents]int64
}

// Snapshot returns a copy of every counter.
func (p *PMU) Snapshot() Snapshot {
	s := Snapshot{Counts: make([][NumEvents]int64, len(p.cores))}
	for i := range p.cores {
		for e := 0; e < NumEvents; e++ {
			s.Counts[i][e] = p.cores[i].v[e].Load()
		}
	}
	return s
}

// Reset zeroes every counter.
func (p *PMU) Reset() {
	for i := range p.cores {
		for e := 0; e < NumEvents; e++ {
			p.cores[i].v[e].Store(0)
		}
	}
}
