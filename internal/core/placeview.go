package core

import (
	"slices"

	"charm/internal/admit"
	"charm/internal/place"
	"charm/internal/topology"
)

// This file is the only bridge between the runtime's mutable scheduling
// state and the immutable place.View snapshots every placement decision
// queries. Policy code (policy.go), steal-order construction
// (stealorder.go), and job dispatch (job.go) never read coreOcc /
// workerOnCore / fault-plan liveness directly — they ask for a view built
// here at an explicit virtual time, which keeps each decision a pure
// function of (virtual time, snapshot) and therefore replayable.

// placeSnapshot captures the engine's placement state at virtual time
// now into snap, reusing its slices: per-core liveness from the fault
// plan, occupancy, the worker-on-core map, each worker's core and queue
// depth, the governor's temperatures and the fabric's link occupancy.
func (rt *Runtime) placeSnapshot(snap *place.Snapshot, now int64) {
	n := rt.M.Topo.NumCores()
	snap.Occ = resize(snap.Occ, n)
	snap.WorkerOn = resize(snap.WorkerOn, n)
	for c := 0; c < n; c++ {
		snap.Occ[c] = rt.coreOcc[c].Load()
		snap.WorkerOn[c] = rt.workerOnCore[c].Load()
	}
	if plan := rt.opts.Faults; plan != nil {
		snap.Live = resize(snap.Live, n)
		for c := 0; c < n; c++ {
			snap.Live[c] = !plan.CoreDown(topology.CoreID(c), now)
		}
	}
	snap.WorkerCore = resize(snap.WorkerCore, len(rt.workers))
	snap.QueueDepth = resize(snap.QueueDepth, len(rt.workers))
	for i, w := range rt.workers {
		snap.WorkerCore[i] = w.Core()
		snap.QueueDepth[i] = w.inbox.Len() + int64(w.deque.Len())
	}
	if pw := rt.power; pw != nil {
		snap.TempMilliC = pw.TempsMilliC(snap.TempMilliC)
		snap.TempSoftMilliC = pw.SoftMilliC()
	}
	if f := rt.M.Fabric; f != nil {
		nch := rt.M.Topo.NumChiplets()
		snap.LinkUtilMilli = resize(snap.LinkUtilMilli, nch)
		for ch := 0; ch < nch; ch++ {
			snap.LinkUtilMilli[ch] = f.ChipletUtilMilli(topology.ChipletID(ch), now)
		}
	}
}

// resize returns s with length n, reusing its backing array when it is
// large enough. The contents are unspecified: callers overwrite them.
func resize[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// placeView builds the policy-facing MachineView (no job-service health
// signals: Alg. 2 enactment, re-homing, and steal ordering predate and
// outlive any installed job service). Each call builds a fresh view: its
// callers run on worker goroutines and keep nothing to reuse.
func (rt *Runtime) placeView(now int64) *place.View {
	var snap place.Snapshot
	rt.placeSnapshot(&snap, now)
	return place.NewView(rt.ranks, now, snap)
}

// viewLocked rebuilds the service's dispatch-facing MachineView in place:
// the engine snapshot plus per-chiplet health fusing the fault plan's
// thermal/link milli-factors, the PMU-observed slowdown from the last
// breaker evaluation window, and breaker refusal state. The view and its
// snapshot are service scratch: valid until the next call, never kept
// past the decision that asked for them. Caller holds s.mu.
func (s *JobService) viewLocked(now int64) *place.View {
	rt := s.rt
	snap := &s.snap
	rt.placeSnapshot(snap, now)
	nch := rt.M.Topo.NumChiplets()
	if plan := rt.opts.Faults; plan != nil {
		snap.PlanMilli = resize(snap.PlanMilli, nch)
		for ch := 0; ch < nch; ch++ {
			id := topology.ChipletID(ch)
			pm := plan.ThermalMilli(id, now)
			if lm := plan.ChipletLinkMilli(id, now); lm > pm {
				pm = lm
			}
			snap.PlanMilli[ch] = pm
		}
	}
	snap.ObsMilli = s.obsMilli
	if s.brk != nil {
		snap.BreakerOpen = resize(snap.BreakerOpen, nch)
		for ch := 0; ch < nch; ch++ {
			snap.BreakerOpen[ch] = s.brk.State(ch) == admit.BreakerOpen
		}
	}
	s.view.Reset(rt.ranks, now, *snap)
	return &s.view
}
