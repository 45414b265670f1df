// Package place is the runtime's placement decision plane. Every
// "which core / which worker" choice the system makes is a query against
// a View: an immutable snapshot of the machine at an explicit virtual
// time, built from explicit engine state, instead of each call site
// walking the runtime's mutable occupancy/fault/breaker state itself.
//
// A View fuses the precomputed distance ranks, per-core liveness from the
// fault plan, occupancy and the worker-on-core map, per-chiplet health
// (fault-plan milli-factors, PMU-observed slowdown, breaker refusal),
// per-worker queue depth, and the thermal and fabric-congestion signals.
// The queries are the runtime's decisions:
//
//   - Select with the Live and Idle constraints and the CongestionAware
//     scorer: fault re-homing onto the nearest calm, cool idle core
//     (LeastLoaded is the load-ordering scorer the benchmark's per-layer
//     probe times);
//   - VictimsByDistance and VictimsNodeFirst: steal-victim order;
//   - ChipletsByPreference and LiveWorkersOn: job stage dispatch.
//
// The static layouts — initial placements and Alg. 2's (chiplet, slot)
// assignment, Alg2Core — are pure functions of the topology. Every query
// is deterministic (ties break toward the lower core or chiplet ID, or
// rotate with an explicit cursor), and enactment — migrating a worker or
// enqueueing a task — stays with the caller, so each decision is a pure
// function of virtual time and the snapshot, which keeps
// deterministic-lockstep runs bit-identical across replays.
package place

import "charm/internal/topology"

// Ranks precomputes, for every core, all other cores sorted by
// topological distance (latency class, stable within a class by core
// number) — the ordering chiplet-first stealing and fault re-homing walk.
// Ranks are immutable and shared by every View of one machine.
type Ranks struct {
	topo *topology.Topology
	from [][]topology.CoreID
	// pos[c][o] is o's position in from[c]; pos[c][c] = -1 so a core is
	// always nearest to itself.
	pos [][]int32
}

// NewRanks builds the distance ranking for topology t.
func NewRanks(t *topology.Topology) *Ranks {
	n := t.NumCores()
	r := &Ranks{
		topo: t,
		from: make([][]topology.CoreID, n),
		pos:  make([][]int32, n),
	}
	for c := 0; c < n; c++ {
		order := make([]topology.CoreID, 0, n-1)
		for class := topology.IntraChiplet; class <= topology.InterSocket; class++ {
			for o := 0; o < n; o++ {
				if o != c && t.ClassOf(topology.CoreID(c), topology.CoreID(o)) == class {
					order = append(order, topology.CoreID(o))
				}
			}
		}
		pos := make([]int32, n)
		pos[c] = -1
		for i, o := range order {
			pos[o] = int32(i)
		}
		r.from[c] = order
		r.pos[c] = pos
	}
	return r
}
