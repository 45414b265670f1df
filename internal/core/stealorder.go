package core

import "charm/internal/topology"

// Steal-victim orderings. Orders depend on worker placement, so each worker
// caches its computed order and invalidates it when any migration occurs
// (tracked by the runtime's placement epoch). The cache is worker-private:
// these functions (and the exported wrappers below) must only be called on
// the worker's own goroutine, which is where Policy.StealOrder runs.

type orderKind uint8

const (
	orderNone orderKind = iota
	orderChipletFirst
	orderSequential
	orderNodeFirst
)

// chipletFirstOrder returns victims sorted by topological distance from the
// worker's current core: same chiplet, then same quadrant, same node, and
// finally across sockets (§4.4's stealing strategy).
func (w *Worker) chipletFirstOrder() []int {
	return w.cachedOrder(orderChipletFirst, func() []int {
		w.rt.met.placeSteal.Inc(w.id)
		return w.rt.placeView(w.clock.Now()).VictimsByDistance(w.Core(), w.id)
	})
}

// sequentialOrder returns victims in worker-ID ring order, ignoring the
// topology (the placement-oblivious stealing of classic runtimes).
func (w *Worker) sequentialOrder() []int {
	return w.cachedOrder(orderSequential, func() []int {
		n := len(w.rt.workers)
		out := make([]int, 0, n-1)
		for k := 1; k < n; k++ {
			out = append(out, (w.id+k)%n)
		}
		return out
	})
}

// nodeFirstOrder returns victims on the same NUMA node first (in ID order),
// then the rest — NUMA-aware but chiplet-oblivious stealing (RING/SAM).
func (w *Worker) nodeFirstOrder() []int {
	return w.cachedOrder(orderNodeFirst, func() []int {
		w.rt.met.placeSteal.Inc(w.id)
		return w.rt.placeView(w.clock.Now()).VictimsNodeFirst(w.Core(), w.id)
	})
}

// cachedOrder memoizes an order until the placement epoch changes.
func (w *Worker) cachedOrder(kind orderKind, build func() []int) []int {
	epoch := w.rt.placeEpoch.Load()
	if w.soKind == kind && w.soEpoch == epoch && w.soCache != nil {
		return w.soCache
	}
	w.soCache = build()
	w.soKind = kind
	w.soEpoch = epoch
	return w.soCache
}

// SequentialStealOrder exposes worker-ID ring stealing for baseline
// policies.
func SequentialStealOrder(w *Worker) []int { return w.sequentialOrder() }

// NodeFirstStealOrder exposes NUMA-node-first stealing for baseline
// policies.
func NodeFirstStealOrder(w *Worker) []int { return w.nodeFirstOrder() }

// CoreOfWorker reports which simulated core currently hosts worker id.
func (rt *Runtime) CoreOfWorker(id int) topology.CoreID {
	return rt.workers[id].Core()
}
