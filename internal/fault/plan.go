package fault

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"charm/internal/topology"
)

// span is one half-open down-window [from, to).
type span struct{ from, to int64 }

// step is one segment of a degradation step function: from virtual time t
// onward the resource runs at milli/1000 of its healthy cost (milli >= 1000;
// 1000 means healthy).
type step struct {
	t     int64
	milli int64
}

// Plan is a compiled, immutable fault schedule: per-resource step functions
// over virtual time. All queries are pure and lock-free; a nil *Plan is
// valid and reports a permanently healthy machine, so callers never need a
// nil check on the hot path.
type Plan struct {
	topo     *topology.Topology
	coreDown [][]span // per core, sorted by from, non-overlapping
	link     [][]step // per chiplet fabric link
	memc     [][]step // per NUMA node memory channel
	therm    [][]step // per chiplet thermal factor
	events   []Event  // validated, sorted (includes chiplet expansion sources)
	name     string
	seed     uint64

	// ov is the dynamic overlay (overlay.go): runtime-appended thermal
	// steps and park spans layered over the static timelines. Set once via
	// AttachOverlay before the plan is shared; nil for purely static plans,
	// so the query paths pay a single nil check.
	ov *Overlay
}

// AttachOverlay arms the dynamic overlay on the plan. It must be called
// once, before the plan is handed to the runtime/machine (the field is
// read without synchronization afterwards).
func (p *Plan) AttachOverlay(o *Overlay) {
	if p.ov != nil {
		panic("fault: AttachOverlay called twice")
	}
	p.ov = o
}

// Compile validates the schedule against topo and builds the per-resource
// timelines. Chiplet-offline events expand to their member cores;
// overlapping windows on the same core merge; overlapping degradation
// windows on the same link/node/chiplet compound multiplicatively.
func (s *Schedule) Compile(topo *topology.Topology) (*Plan, error) {
	if s == nil || len(s.Events) == 0 {
		p := &Plan{topo: topo}
		if s != nil {
			p.name, p.seed = s.Name, s.Seed
		}
		return p, nil
	}
	if topo == nil {
		return nil, fmt.Errorf("fault: Compile needs a topology")
	}
	evs := append([]Event(nil), s.Events...)
	sortEvents(evs)

	coreWins := make([][]span, topo.NumCores())
	linkWins := make([][]win, topo.NumChiplets())
	memWins := make([][]win, topo.NumNodes())
	thermWins := make([][]win, topo.NumChiplets())

	for i, e := range evs {
		to := e.To
		if to == 0 {
			to = Forever
		}
		if e.From < 0 || to <= e.From {
			return nil, fmt.Errorf("fault: event %d (%s unit %d): bad window [%d, %d)", i, e.Kind, e.Unit, e.From, to)
		}
		needFactor := false
		var limit int
		switch e.Kind {
		case CoreOffline:
			limit = topo.NumCores()
		case ChipletOffline:
			limit = topo.NumChiplets()
		case LinkBrownout, ThermalThrottle:
			limit, needFactor = topo.NumChiplets(), true
		case MemBrownout:
			limit, needFactor = topo.NumNodes(), true
		default:
			return nil, fmt.Errorf("fault: event %d: unknown kind %d", i, e.Kind)
		}
		if e.Unit < 0 || e.Unit >= limit {
			return nil, fmt.Errorf("fault: event %d (%s): unit %d out of range [0, %d)", i, e.Kind, e.Unit, limit)
		}
		if needFactor && (e.Factor < 1 || math.IsNaN(e.Factor) || math.IsInf(e.Factor, 0)) {
			return nil, fmt.Errorf("fault: event %d (%s unit %d): factor %v must be a finite value >= 1", i, e.Kind, e.Unit, e.Factor)
		}
		switch e.Kind {
		case CoreOffline:
			coreWins[e.Unit] = append(coreWins[e.Unit], span{e.From, to})
		case ChipletOffline:
			for _, c := range topo.CoresOfChiplet(topology.ChipletID(e.Unit)) {
				coreWins[c] = append(coreWins[c], span{e.From, to})
			}
		case LinkBrownout:
			linkWins[e.Unit] = append(linkWins[e.Unit], win{e.From, to, e.Factor})
		case MemBrownout:
			memWins[e.Unit] = append(memWins[e.Unit], win{e.From, to, e.Factor})
		case ThermalThrottle:
			thermWins[e.Unit] = append(thermWins[e.Unit], win{e.From, to, e.Factor})
		}
	}

	p := &Plan{
		topo:     topo,
		coreDown: make([][]span, topo.NumCores()),
		link:     make([][]step, topo.NumChiplets()),
		memc:     make([][]step, topo.NumNodes()),
		therm:    make([][]step, topo.NumChiplets()),
		events:   evs,
		name:     s.Name,
		seed:     s.Seed,
	}
	for c, wins := range coreWins {
		p.coreDown[c] = mergeSpans(wins)
	}
	// Reject schedules that offline the whole machine: a plan with zero
	// live cores cannot make progress, and the runtime's park protocol
	// would spin virtual time to the (possibly never-arriving) revival. A
	// full outage, if one exists, begins at some core's down-window start,
	// so checking those instants covers every point in time.
	for c := range p.coreDown {
		for _, sp := range p.coreDown[c] {
			if p.CoresDown(sp.from) == topo.NumCores() {
				return nil, fmt.Errorf("fault: plan %q offlines all %d cores at t=%d; at least one core must stay live",
					s.Name, topo.NumCores(), sp.from)
			}
		}
	}
	build := func(dst [][]step, src [][]win) {
		for u, wins := range src {
			dst[u] = buildSteps(wins)
		}
	}
	build(p.link, linkWins)
	build(p.memc, memWins)
	build(p.therm, thermWins)
	return p, nil
}

// mergeSpans sorts and coalesces overlapping/adjacent down-windows.
func mergeSpans(in []span) []span {
	if len(in) == 0 {
		return nil
	}
	sort.Slice(in, func(i, j int) bool { return in[i].from < in[j].from })
	out := in[:1]
	for _, s := range in[1:] {
		last := &out[len(out)-1]
		if s.from <= last.to {
			if s.to > last.to {
				last.to = s.to
			}
			continue
		}
		out = append(out, s)
	}
	return out
}

// win is a degradation window before compilation into steps.
type win struct {
	from, to int64
	factor   float64
}

// buildSteps turns overlapping degradation windows into a step function.
// Concurrent windows compound multiplicatively; the factor is stored in
// milli-units so queries stay in integer arithmetic. The bounds are swept
// in time order with the set of windows open at each one, kept in wins
// order, so the product multiplies the same factors in the same order as a
// rescan of every window would, in time linear in the windows when few
// overlap.
func buildSteps(wins []win) []step {
	if len(wins) == 0 {
		return nil
	}
	bounds := make([]int64, 0, 2*len(wins))
	for _, w := range wins {
		bounds = append(bounds, w.from)
		if w.to != Forever {
			bounds = append(bounds, w.to)
		}
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	byFrom := make([]int, len(wins))
	for i := range byFrom {
		byFrom[i] = i
	}
	sort.SliceStable(byFrom, func(i, j int) bool { return wins[byFrom[i]].from < wins[byFrom[j]].from })
	var out []step
	var open []int // indices into wins of the windows open at b, ascending
	next := 0
	last := int64(1000)
	for i, b := range bounds {
		if i > 0 && b == bounds[i-1] {
			continue
		}
		for ; next < len(byFrom) && wins[byFrom[next]].from <= b; next++ {
			at, _ := slices.BinarySearch(open, byFrom[next])
			open = slices.Insert(open, at, byFrom[next])
		}
		open = slices.DeleteFunc(open, func(k int) bool { return wins[k].to <= b })
		f := 1.0
		for _, k := range open {
			f *= wins[k].factor
		}
		milli := int64(f*1000 + 0.5)
		if milli < 1000 {
			milli = 1000
		}
		if milli != last {
			out = append(out, step{b, milli})
			last = milli
		}
	}
	return out
}

// segmentAt evaluates a step function and additionally reports how long its
// answer stays valid: the milli-factor in effect at t and the first virtual
// time >= t at which the factor may change (Forever when no later step
// exists). Callers can cache the factor until that boundary instead of
// re-running the binary search per query.
func segmentAt(steps []step, t int64) (milli, until int64) {
	lo, hi := 0, len(steps)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if steps[mid].t <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	until = Forever
	if lo < len(steps) {
		until = steps[lo].t
	}
	if lo == 0 {
		return 1000, until
	}
	return steps[lo-1].milli, until
}

// spanAt returns the down-window containing t, if any.
func spanAt(spans []span, t int64) (span, bool) {
	lo := firstAfter(spans, t)
	if lo == 0 {
		return span{}, false
	}
	if s := spans[lo-1]; t < s.to {
		return s, true
	}
	return span{}, false
}

// firstAfter returns the index of the first span beginning after t
// (len(spans) when none does).
func firstAfter(spans []span, t int64) int {
	lo, hi := 0, len(spans)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if spans[mid].from <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Name reports the schedule's label ("" for a nil or empty plan).
func (p *Plan) Name() string {
	if p == nil {
		return ""
	}
	return p.name
}

// Events returns the validated, sorted event list (nil for a nil plan).
func (p *Plan) Events() []Event {
	if p == nil {
		return nil
	}
	return p.events
}

// Empty reports whether the plan injects no faults at all. A plan hosting
// a dynamic overlay is never empty: the governor may append state at any
// time.
func (p *Plan) Empty() bool { return p == nil || (len(p.events) == 0 && p.ov == nil) }

// CoreDown reports whether core c is offline at virtual time t, by the
// static timelines or an overlay park of the core's chiplet.
func (p *Plan) CoreDown(c topology.CoreID, t int64) bool {
	if p == nil {
		return false
	}
	if int(c) < len(p.coreDown) {
		if _, down := spanAt(p.coreDown[c], t); down {
			return true
		}
	}
	if o := p.ov; o != nil {
		if _, down := o.parked(o.topo.ChipletOf(c), t); down {
			return true
		}
	}
	return false
}

// CoreUpAt returns the earliest virtual time >= t at which core c is
// online (t itself when the core is already up, Forever when it never
// returns). Static down-windows and overlay park spans can abut or
// overlap, so the answer iterates until neither covers it.
func (p *Plan) CoreUpAt(c topology.CoreID, t int64) int64 {
	if p == nil {
		return t
	}
	up := t
	for {
		next := up
		if int(c) < len(p.coreDown) {
			if s, down := spanAt(p.coreDown[c], next); down {
				next = s.to
			}
		}
		if o := p.ov; o != nil && next != Forever {
			if end, down := o.parked(o.topo.ChipletOf(c), next); down {
				next = end
			}
		}
		if next == up {
			return up
		}
		up = next
	}
}

// CoreUpUntil reports whether core c is online at virtual time t and, when
// it is, until when: CoreDown(c, x) is false for every x in [t, until), and
// until is the start of the next static down-window or overlay park span
// (Forever when none lies ahead). A core down at t reports (false, t). The
// governor may append a park span later that shortens the answer, so a
// caller holding one re-asks after every governor tick.
func (p *Plan) CoreUpUntil(c topology.CoreID, t int64) (up bool, until int64) {
	if p.CoreDown(c, t) {
		return false, t
	}
	until = Forever
	if p == nil {
		return true, until
	}
	if int(c) < len(p.coreDown) {
		until = min(until, nextSpan(p.coreDown[c], t))
	}
	if o := p.ov; o != nil {
		until = min(until, nextSpan(o.park[o.topo.ChipletOf(c)].load(), t))
	}
	return true, until
}

// nextSpan returns the start of the first span beginning after t, Forever
// when none does.
func nextSpan(spans []span, t int64) int64 {
	if i := firstAfter(spans, t); i < len(spans) {
		return spans[i].from
	}
	return Forever
}

// CoresDown counts offline cores at virtual time t.
func (p *Plan) CoresDown(t int64) int {
	if p == nil {
		return 0
	}
	n := 0
	if o := p.ov; o != nil {
		// With an overlay armed the static slices may be empty (an empty
		// compiled plan hosting only dynamic state), so count by topology.
		for c := 0; c < o.topo.NumCores(); c++ {
			if p.CoreDown(topology.CoreID(c), t) {
				n++
			}
		}
		return n
	}
	for c := range p.coreDown {
		if _, down := spanAt(p.coreDown[c], t); down {
			n++
		}
	}
	return n
}

// ChipletLinkMilli returns the fabric-link degradation factor for chiplet
// ch at t, in milli-units (1000 = healthy, 8000 = 8x slower).
func (p *Plan) ChipletLinkMilli(ch topology.ChipletID, t int64) int64 {
	if p == nil || int(ch) >= len(p.link) {
		return 1000
	}
	m, _ := segmentAt(p.link[ch], t)
	return m
}

// MemMilli returns the memory-channel degradation factor for NUMA node n
// at t, in milli-units.
func (p *Plan) MemMilli(n topology.NodeID, t int64) int64 {
	if p == nil || int(n) >= len(p.memc) {
		return 1000
	}
	m, _ := segmentAt(p.memc[n], t)
	return m
}

// ThermalMilli returns the compute-slowdown factor for chiplet ch at t, in
// milli-units. Once a dynamic overlay step is in effect it replaces the
// static timeline (the governor owns thermal state from its first append).
func (p *Plan) ThermalMilli(ch topology.ChipletID, t int64) int64 {
	if p == nil {
		return 1000
	}
	m := int64(1000)
	if int(ch) < len(p.therm) {
		m, _ = segmentAt(p.therm[ch], t)
	}
	if o := p.ov; o != nil {
		if om, _, active := o.thermalSegment(ch, t); active {
			m = om
		}
	}
	return m
}

// ThermalSegment returns the compute-slowdown factor for chiplet ch at t
// together with the first virtual time >= t at which the factor may change
// (Forever when it never does). The pair describes one segment of the
// step function, so hot paths can cache the factor and re-query only at
// segment boundaries.
//
// With a dynamic overlay attached, an overlay step in effect at t takes
// precedence over the static timeline, and the reported boundary is
// additionally capped at the next governor tick: the governor only
// appends new steps as clocks cross tick boundaries, so the cap is what
// keeps cached segments from outliving a future append.
func (p *Plan) ThermalSegment(ch topology.ChipletID, t int64) (milli, until int64) {
	if p == nil {
		return 1000, Forever
	}
	milli, until = 1000, Forever
	if int(ch) < len(p.therm) {
		milli, until = segmentAt(p.therm[ch], t)
	}
	o := p.ov
	if o == nil {
		return milli, until
	}
	if om, ou, active := o.thermalSegment(ch, t); active {
		milli, until = om, ou
	} else if ou < until {
		until = ou
	}
	if b := o.nextBoundary(t); b < until {
		until = b
	}
	return milli, until
}
