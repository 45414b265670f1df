package core

import (
	"fmt"

	"charm/internal/obs"
	"charm/internal/place"
	"charm/internal/topology"
)

// Policy abstracts the placement and adaptation strategy of a runtime. The
// CHARM policy implements the paper's Algorithms 1 and 2; the baseline
// runtimes (RING, SHOAL, AsymSched, SAM) provide their own implementations
// in internal/baselines.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// InitialCore maps worker w of n total to its starting core.
	InitialCore(worker, workers int, t *topology.Topology) topology.CoreID
	// OnTimer runs the periodic per-worker decision; elapsed is the
	// virtual time since the last decision (Alg. 1's entry state).
	OnTimer(w *Worker, elapsed int64)
	// StealOrder returns victim worker IDs in preference order.
	StealOrder(w *Worker) []int
	// AssignWorker maps task index i of a submission to a worker. phase
	// increments per submission. CHARM preserves the task-to-worker
	// mapping across phases (§4.1), keeping each task's data in the same
	// chiplet's L3 between iterations; topology-oblivious runtimes
	// redistribute every phase, churning cache contents.
	AssignWorker(i int, phase uint64, workers int) int
}

// StableAssign preserves task-to-worker affinity across phases.
func StableAssign(i int, phase uint64, workers int) int { return i % workers }

// ChurnAssign rotates the task-to-worker mapping every phase, modeling
// schedulers with no task-identity affinity.
func ChurnAssign(i int, phase uint64, workers int) int {
	return (i + int(phase*7)) % workers
}

// CharmPolicy is the paper's chiplet scheduling policy: decentralized
// spread-rate adaptation (Alg. 1) enacted through the collision-free
// location update (Alg. 2), socket-aware placement, and chiplet-first
// stealing.
type CharmPolicy struct {
	// ObliviousSteal replaces chiplet-first stealing with worker-ID ring
	// order (the steal-order ablation of DESIGN.md).
	ObliviousSteal bool
}

// NewCharmPolicy returns the CHARM policy.
func NewCharmPolicy() *CharmPolicy { return &CharmPolicy{} }

// Name implements Policy.
func (p *CharmPolicy) Name() string { return "charm" }

// InitialCore fills sockets densely in worker order (§4.6: use all cores
// and chiplets within one socket before the next), which preserves the
// initial task-to-worker-to-core mapping until profiling detects
// inefficiency.
func (p *CharmPolicy) InitialCore(worker, workers int, t *topology.Topology) topology.CoreID {
	return place.CompactCore(worker, t)
}

// OnTimer is Algorithm 1 (ChipletScheduling). The caller guarantees
// elapsed >= SCHEDULER_TIMER. The counter is the per-core
// fills-from-system delta; the rate normalizes it to one timer interval.
func (p *CharmPolicy) OnTimer(w *Worker, elapsed int64) {
	opts := w.rt.opts
	counter := w.FillsSinceDecision()
	rate := counter * opts.SchedulerTimer / elapsed
	chiplets := w.rt.M.Topo.ChipletsPerNode * w.rt.M.Topo.NodesPerSocket
	switch {
	case rate >= opts.RemoteFillThreshold:
		w.lowStreak = 0
		if w.spreadRate < chiplets {
			w.spreadRate++
		}
	case rate < opts.RemoteFillThreshold/hysteresis:
		// Consolidation is debounced: one borderline-quiet interval is
		// not evidence of a smaller working set, and every enacted
		// flip-flop costs a migration plus cold refills.
		w.lowStreak++
		if w.lowStreak >= 2 && w.spreadRate > 1 {
			w.spreadRate--
			w.lowStreak = 0
		}
	default:
		w.lowStreak = 0
	}
	UpdateLocation(w)
	w.instant(obs.SpanSpread, w.clock.Now(), int64(w.spreadRate))
	w.instant(obs.SpanFillRate, w.clock.Now(), rate)
}

// StealOrder implements chiplet-first stealing (§4.4): victims on the same
// chiplet first, then increasing topological distance.
func (p *CharmPolicy) StealOrder(w *Worker) []int {
	if p.ObliviousSteal {
		return w.sequentialOrder()
	}
	return w.chipletFirstOrder()
}

// AssignWorker implements Policy: CHARM preserves the initial
// task-to-worker-to-core mapping (§4.1).
func (p *CharmPolicy) AssignWorker(i int, phase uint64, workers int) int {
	return StableAssign(i, phase, workers)
}

// Rehome implements the Rehomer interface: when the fault plan offlines the
// worker's core, CHARM moves it to the nearest *idle* live core (the same
// distance ranking chiplet-first stealing uses). On a saturated machine it
// returns false and the worker parks — stacking two workers on one core
// would serialize them and make that core the makespan bottleneck, worse
// than spreading the drained tasks across the survivors. The static
// baselines do not implement Rehomer at all, so their workers always park —
// the self-healing contrast the chaos experiment measures.
func (p *CharmPolicy) Rehome(w *Worker, now int64) (topology.CoreID, bool) {
	v := w.rt.placeView(now)
	// CongestionAware reduces to plain nearest-distance when neither a
	// power plane nor a fabric congestion signal runs; with them, an
	// evicted worker avoids re-homing onto a chiplet that is about to
	// throttle (or just parked it) or one behind a saturated fabric link.
	c, ok := v.Select(place.CongestionAware(w.Core()), place.Live, place.Idle)
	if ok {
		w.rt.met.placeRehome.Inc(w.id)
	}
	return c, ok
}

// UpdateLocation is Algorithm 2's enactment: translate the worker's
// spread_rate into the deterministic, collision-free (chiplet, slot)
// assignment computed by place.Alg2Core, then enact it as core affinity
// plus a NUMA memory binding (set_thread_affinity + set_mempolicy).
func UpdateLocation(w *Worker) {
	core, ok := place.Alg2Core(w.id, w.rt.Workers(), w.spreadRate, w.rt.M.Topo)
	if !ok {
		// Bounds check failed (Alg. 2 line 2): keep the current placement.
		return
	}
	w.rt.met.placeAlg2.Inc(w.id)
	if plan := w.rt.opts.Faults; plan != nil && plan.CoreDown(core, w.clock.Now()) {
		// Alg. 2 would move the worker onto a core the fault plan has
		// offlined; stay put and let the next decision interval retry.
		return
	}
	w.Migrate(core)
}

// StaticMode selects a fixed placement for StaticPolicy.
type StaticMode uint8

const (
	// Compact fills chiplets densely in worker order (LocalCache in §2.3
	// and §5.7: fewest chiplets, maximum locality).
	Compact StaticMode = iota
	// SpreadChiplets round-robins workers across the chiplets of socket 0
	// first, then socket 1 (DistributedCache: maximum aggregate L3).
	SpreadChiplets
	// SpreadSockets round-robins workers across NUMA nodes first (the
	// classic NUMA-balancing placement of RING/SAM-style runtimes).
	SpreadSockets
)

// StaticPolicy places workers once and never adapts. Churn selects
// phase-rotating task assignment (modeling schedulers without task
// affinity, e.g. a default DB thread pool).
type StaticPolicy struct {
	mode  StaticMode
	name  string
	Churn bool
}

// NewStaticPolicy builds a static policy.
func NewStaticPolicy(mode StaticMode) *StaticPolicy {
	names := map[StaticMode]string{
		Compact: "static-compact", SpreadChiplets: "static-spread-chiplets",
		SpreadSockets: "static-spread-sockets",
	}
	return &StaticPolicy{mode: mode, name: names[mode]}
}

// Name implements Policy.
func (p *StaticPolicy) Name() string { return p.name }

// InitialCore implements Policy via the decision plane's pure layouts.
func (p *StaticPolicy) InitialCore(worker, workers int, t *topology.Topology) topology.CoreID {
	switch p.mode {
	case Compact:
		return place.CompactCore(worker, t)
	case SpreadChiplets:
		return place.SpreadChipletsCore(worker, t)
	case SpreadSockets:
		return place.SpreadNodesCore(worker, t)
	default:
		panic(fmt.Sprintf("core: unknown static mode %d", p.mode))
	}
}

// OnTimer implements Policy (no adaptation).
func (p *StaticPolicy) OnTimer(w *Worker, elapsed int64) {}

// StealOrder implements Policy: compact placement steals chiplet-first;
// spread placements steal in worker-ID order (topology-oblivious).
func (p *StaticPolicy) StealOrder(w *Worker) []int {
	if p.mode == Compact {
		return w.chipletFirstOrder()
	}
	return w.sequentialOrder()
}

// AssignWorker implements Policy.
func (p *StaticPolicy) AssignWorker(i int, phase uint64, workers int) int {
	if p.Churn {
		return ChurnAssign(i, phase, workers)
	}
	return StableAssign(i, phase, workers)
}
