package fault

import (
	"fmt"
	"sync/atomic"

	"charm/internal/topology"
)

// Overlay is the dynamic layer of a Plan: runtime-appended throttle steps
// and park spans the closed-loop power governor (internal/power) lays over
// the compiled static schedule. The static Plan stays immutable; the
// overlay holds one append-only log per chiplet for each kind of state, so
// queries stay lock-free (two atomic loads) and a plan without an overlay
// costs a single nil check.
//
// Two invariants make the overlay safe for the engine's cached queries
// (core/fastpath.go caches ThermalSegment results until their boundary):
//
//  1. Appends are serialized by the governor and monotone in time: each
//     appended step/span starts no earlier than the previous one.
//  2. ThermalSegment answers are capped at the next governor tick
//     boundary (a fixed grid of period Tick). The governor only appends
//     state as a worker's clock crosses a boundary, so a cached segment
//     can never outlive an append that lands after it was read.
type Overlay struct {
	topo *topology.Topology
	tick int64

	therm []appendLog[step]
	park  []appendLog[span]
}

// appendLog is an append-only list with one writer and lock-free readers.
// The writer puts an element in the backing array's spare capacity and
// only then publishes the new length with an atomic store; when the
// capacity runs out it copies the list into a new array twice the size
// and publishes that array before the length. A reader loads the length
// first and the array second, so the array it gets holds at least that
// many published elements, and the writer never writes below a published
// length: a list a reader holds never changes under it.
type appendLog[T any] struct {
	arr atomic.Pointer[[]T] // the whole backing array, len == cap
	n   atomic.Int64        // published length
}

// load returns the published elements.
func (l *appendLog[T]) load() []T {
	n := l.n.Load()
	if n == 0 {
		return nil
	}
	return (*l.arr.Load())[:n]
}

// push appends v. Only the log's one writer may call it.
func (l *appendLog[T]) push(v T) {
	n := l.n.Load()
	var arr []T
	if p := l.arr.Load(); p != nil {
		arr = *p
	}
	if n == int64(len(arr)) {
		grown := make([]T, max(8, 2*len(arr)))
		copy(grown, arr)
		l.arr.Store(&grown)
		arr = grown
	}
	arr[n] = v
	l.n.Store(n + 1)
}

// NewOverlay builds an empty overlay for topo with governor tick period
// tickNS (virtual ns, must be positive).
func NewOverlay(topo *topology.Topology, tickNS int64) (*Overlay, error) {
	if topo == nil {
		return nil, fmt.Errorf("fault: NewOverlay needs a topology")
	}
	if tickNS <= 0 {
		return nil, fmt.Errorf("fault: overlay tick must be positive, got %d", tickNS)
	}
	return &Overlay{
		topo:  topo,
		tick:  tickNS,
		therm: make([]appendLog[step], topo.NumChiplets()),
		park:  make([]appendLog[span], topo.NumChiplets()),
	}, nil
}

// nextBoundary returns the first governor grid boundary strictly after t.
func (o *Overlay) nextBoundary(t int64) int64 {
	if t < 0 {
		return 0
	}
	b := (t/o.tick + 1) * o.tick
	if b <= t { // overflow guard for t near MaxInt64
		return Forever
	}
	return b
}

// AppendThermal records that chiplet ch runs at milli/1000 of its healthy
// cost from virtual time t onward (until a later append changes it).
// Appends must be monotone in t per chiplet; an append at the same t as
// the last step supersedes it (segmentAt resolves equal times to the last
// step), and one that repeats the last factor is skipped. Only the
// governor goroutine-of-the-moment may call this (the power plane
// serializes claims under its mutex).
func (o *Overlay) AppendThermal(ch topology.ChipletID, t, milli int64) {
	if milli < 1000 {
		milli = 1000
	}
	if steps := o.therm[ch].load(); len(steps) > 0 {
		if last := steps[len(steps)-1]; last.t > t {
			panic(fmt.Sprintf("fault: overlay thermal append at t=%d before last step t=%d (chiplet %d)", t, last.t, ch))
		} else if last.milli == milli {
			return // no change; skip the redundant step
		}
	}
	o.therm[ch].push(step{t, milli})
}

// AppendPark takes every core of chiplet ch offline for [from, to) —
// the governor's emergency tier. Spans must be appended in increasing,
// non-overlapping order. The caller is responsible for never parking the
// last live chiplet (the power governor checks before appending).
func (o *Overlay) AppendPark(ch topology.ChipletID, from, to int64) {
	if to <= from {
		return
	}
	if spans := o.park[ch].load(); len(spans) > 0 && spans[len(spans)-1].to > from {
		panic(fmt.Sprintf("fault: overlay park append [%d,%d) overlaps last span ending %d (chiplet %d)", from, to, spans[len(spans)-1].to, ch))
	}
	o.park[ch].push(span{from, to})
}

// thermalSegment evaluates the overlay's step function for chiplet ch at
// t. active reports whether an overlay step is in effect at t; when it is
// not, until is the first overlay step time > t (Forever when none), which
// bounds how long the static plan's answer stays authoritative.
func (o *Overlay) thermalSegment(ch topology.ChipletID, t int64) (milli, until int64, active bool) {
	steps := o.therm[ch].load()
	milli, until = segmentAt(steps, t) // 1000 while no step is in effect
	return milli, until, len(steps) > 0 && steps[0].t <= t
}

// parked reports whether chiplet ch is inside an overlay park span at t,
// and when it is, the span's end.
func (o *Overlay) parked(ch topology.ChipletID, t int64) (int64, bool) {
	if s, down := spanAt(o.park[ch].load(), t); down {
		return s.to, true
	}
	return 0, false
}
