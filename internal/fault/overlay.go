package fault

import (
	"fmt"
	"sync/atomic"

	"charm/internal/topology"
)

// Overlay is the dynamic layer of a Plan: runtime-appended throttle steps
// and park spans the closed-loop power governor (internal/power) lays over
// the compiled static schedule. The static Plan stays immutable; the
// overlay holds per-chiplet copy-on-append lists behind atomic pointers,
// so queries stay lock-free (one atomic load) and a plan without an
// overlay costs a single nil check.
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

	// therm[ch] / park[ch] are copy-on-append: the governor builds a new
	// slice and stores the pointer; readers load and binary-search.
	therm []atomic.Pointer[[]step]
	park  []atomic.Pointer[[]span]
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
		therm: make([]atomic.Pointer[[]step], topo.NumChiplets()),
		park:  make([]atomic.Pointer[[]span], topo.NumChiplets()),
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
// the last step replaces it. Only the governor goroutine-of-the-moment may
// call this (the power plane serializes claims under its mutex).
func (o *Overlay) AppendThermal(ch topology.ChipletID, t, milli int64) {
	if milli < 1000 {
		milli = 1000
	}
	cur := o.therm[ch].Load()
	var steps []step
	if cur != nil {
		n := len(*cur)
		if n > 0 {
			if last := (*cur)[n-1]; last.t > t {
				panic(fmt.Sprintf("fault: overlay thermal append at t=%d before last step t=%d (chiplet %d)", t, last.t, ch))
			} else if last.t == t {
				steps = append(append([]step(nil), (*cur)[:n-1]...), step{t, milli})
				o.therm[ch].Store(&steps)
				return
			} else if last.milli == milli {
				return // no change; skip the redundant step
			}
		}
		steps = append([]step(nil), *cur...)
	}
	steps = append(steps, step{t, milli})
	o.therm[ch].Store(&steps)
}

// AppendPark takes every core of chiplet ch offline for [from, to) —
// the governor's emergency tier. Spans must be appended in increasing,
// non-overlapping order. The caller is responsible for never parking the
// last live chiplet (the power governor checks before appending).
func (o *Overlay) AppendPark(ch topology.ChipletID, from, to int64) {
	if to <= from {
		return
	}
	cur := o.park[ch].Load()
	var spans []span
	if cur != nil {
		if n := len(*cur); n > 0 && (*cur)[n-1].to > from {
			panic(fmt.Sprintf("fault: overlay park append [%d,%d) overlaps last span ending %d (chiplet %d)", from, to, (*cur)[n-1].to, ch))
		}
		spans = append([]span(nil), *cur...)
	}
	spans = append(spans, span{from, to})
	o.park[ch].Store(&spans)
}

// thermalSegment evaluates the overlay's step function for chiplet ch at
// t. active reports whether an overlay step is in effect at t; when it is
// not, until is the first overlay step time > t (Forever when none), which
// bounds how long the static plan's answer stays authoritative.
func (o *Overlay) thermalSegment(ch topology.ChipletID, t int64) (milli, until int64, active bool) {
	cur := o.therm[ch].Load()
	if cur == nil {
		return 1000, Forever, false
	}
	m, u := segmentAt(*cur, t)
	steps := *cur
	if len(steps) == 0 || steps[0].t > t {
		return 1000, u, false
	}
	return m, u, true
}

// parked reports whether chiplet ch is inside an overlay park span at t,
// and when it is, the span's end.
func (o *Overlay) parked(ch topology.ChipletID, t int64) (int64, bool) {
	cur := o.park[ch].Load()
	if cur == nil {
		return 0, false
	}
	if s, down := spanAt(*cur, t); down {
		return s.to, true
	}
	return 0, false
}
