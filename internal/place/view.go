package place

import (
	"cmp"
	"slices"

	"charm/internal/topology"
)

// Snapshot carries the engine-state inputs of a View. Nil slices select
// the healthy/empty default for their signal, so cheap callers (tests,
// fault-free runtimes) only fill what they have. NewView and Reset take
// ownership of every non-nil slice: callers must not mutate them while
// the view is in use.
type Snapshot struct {
	// Live[c] reports core c not offlined by the fault plan (nil = all
	// live).
	Live []bool
	// Occ[c] is the number of workers currently pinned to core c (nil =
	// all idle).
	Occ []int32
	// WorkerOn[c] is the worker ID pinned to core c, or -1 (nil = none).
	WorkerOn []int32
	// WorkerCore[w] is worker w's current core.
	WorkerCore []topology.CoreID
	// QueueDepth[w] is worker w's pending-task count, inbox plus deque
	// (nil = all empty).
	QueueDepth []int64
	// PlanMilli[ch] is the fault plan's declared slowdown for chiplet ch
	// in milli-units — worst of thermal throttle and fabric-link brownout
	// (nil = healthy, 1000).
	PlanMilli []int64
	// ObsMilli[ch] is the PMU-observed execution slowdown for chiplet ch
	// from the last evaluation window, 0 meaning "no signal" (nil = none).
	ObsMilli []int64
	// BreakerOpen[ch] marks chiplets whose circuit breaker currently
	// refuses placements (nil = all admitting).
	BreakerOpen []bool
	// TempMilliC[ch] is chiplet ch's junction temperature from the
	// closed-loop power plane in milli-°C (nil = no thermal signal).
	TempMilliC []int64
	// TempSoftMilliC is the governor's soft-throttle setpoint in milli-°C;
	// placement measures headroom against it (0 = no signal).
	TempSoftMilliC int64
	// LinkUtilMilli[ch] is the current-window occupancy of chiplet ch's
	// hottest incident fabric link in milli-units (1000 = saturated,
	// nil = no congestion signal). The congestion scorers demote chiplets
	// behind hot links.
	LinkUtilMilli []int64
}

// View is an immutable placement snapshot of one machine at one virtual
// time: the MachineView every placement decision queries. Build one with
// NewView, query it, throw it away — or rebuild it in place with Reset
// when one owner makes decisions back to back. Views never observe later
// engine mutations, so two identical snapshots always produce identical
// decisions. A view's queries reuse its scratch buffers: one goroutine
// queries it at a time.
type View struct {
	ranks      *Ranks
	now        int64
	live       []bool
	occ        []int32
	workerOn   []int32
	workerCore []topology.CoreID
	depth      []int64
	// health[ch] is the fused milli-slowdown (1000 = nominal); refused[ch]
	// is the breaker's hard refusal flag.
	health  []int64
	refused []bool
	// temp[ch] is the junction temperature in milli-°C and tempSoft the
	// governor's soft setpoint; both nil/0 when no power plane runs.
	temp     []int64
	tempSoft int64
	// linkUtil[ch] is the hottest incident fabric-link occupancy in
	// milli-units (nil = no congestion signal).
	linkUtil []int64

	// def holds the constant slices Reset substitutes for nil snapshot
	// signals, and prefs is ChipletsByPreference's candidate buffer; a
	// view rebuilt through Reset allocates each once.
	def struct {
		live          []bool
		occ, workerOn []int32
		depth         []int64
		refused       []bool
	}
	prefs []prefCand
}

// NewView builds a View of ranks' machine at virtual time now from
// snapshot s, fusing the per-chiplet health signals.
func NewView(r *Ranks, now int64, s Snapshot) *View {
	v := new(View)
	v.Reset(r, now, s)
	return v
}

// Reset rebuilds v in place as a view of ranks' machine at virtual time
// now from snapshot s — what NewView(r, now, s) returns — reusing v's
// fused-health slice, default slices and candidate buffer.
func (v *View) Reset(r *Ranks, now int64, s Snapshot) {
	n := r.topo.NumCores()
	nch := r.topo.NumChiplets()
	v.ranks, v.now = r, now
	v.live = orDefault(s.Live, &v.def.live, n, true)
	v.occ = orDefault(s.Occ, &v.def.occ, n, 0)
	v.workerOn = orDefault(s.WorkerOn, &v.def.workerOn, n, -1)
	v.workerCore = s.WorkerCore
	v.depth = orDefault(s.QueueDepth, &v.def.depth, len(s.WorkerCore), 0)
	v.refused = orDefault(s.BreakerOpen, &v.def.refused, nch, false)
	v.temp, v.tempSoft, v.linkUtil = s.TempMilliC, s.TempSoftMilliC, s.LinkUtilMilli
	v.health = slices.Grow(v.health[:0], nch)[:nch]
	for ch := range v.health {
		var pm, om int64
		if s.PlanMilli != nil {
			pm = s.PlanMilli[ch]
		}
		if s.ObsMilli != nil {
			om = s.ObsMilli[ch]
		}
		v.health[ch] = fuseHealth(pm, om)
	}
}

// orDefault returns sig when the snapshot carries the signal, else *def
// holding n copies of x. Nothing writes a view's slices, so *def is
// rebuilt only when n changes.
func orDefault[T any](sig []T, def *[]T, n int, x T) []T {
	if sig != nil {
		return sig
	}
	if len(*def) != n {
		*def = make([]T, n)
		for i := range *def {
			(*def)[i] = x
		}
	}
	return *def
}

// fuseHealth fuses a chiplet's plan-declared and PMU-observed slowdown
// signals into one milli-factor: the worst signal wins, floored at the
// nominal 1000 (absent signals are reported as 0 and read as healthy).
func fuseHealth(planMilli, obsMilli int64) int64 {
	h := int64(1000)
	if planMilli > h {
		h = planMilli
	}
	if obsMilli > h {
		h = obsMilli
	}
	return h
}

// Now returns the virtual time the view was built at.
func (v *View) Now() int64 { return v.now }

// Topology returns the machine topology.
func (v *View) Topology() *topology.Topology { return v.ranks.topo }

// NumWorkers returns the snapshot's worker count.
func (v *View) NumWorkers() int { return len(v.workerCore) }

// IsLive reports whether core c is not offlined by the fault plan.
func (v *View) IsLive(c topology.CoreID) bool { return v.live[c] }

// CoreOf returns worker w's core at snapshot time.
func (v *View) CoreOf(w int) topology.CoreID { return v.workerCore[w] }

// thermalGuardMilliC is the guard band below the soft setpoint where
// placement begins steering work away: a chiplet within 10 °C of soft
// throttling is already a bad place for more heat.
const thermalGuardMilliC = 10_000

// congestionGuardMilli is the link occupancy where placement begins
// steering work away: past 70% of the bandwidth window, new transfers
// will land in the queueing regime before the window turns over.
const congestionGuardMilli = 700

// thermalOver returns how far chiplet ch runs into the thermal guard band
// in milli-°C; zero or less means ample headroom or no thermal signal.
func (v *View) thermalOver(ch topology.ChipletID) int64 {
	if v.temp == nil || v.tempSoft == 0 {
		return 0
	}
	return v.temp[ch] - (v.tempSoft - thermalGuardMilliC)
}

// congestionOver returns how far chiplet ch's hottest incident link runs
// past the congestion guard in milli-units; zero or less means calm or no
// congestion signal.
func (v *View) congestionOver(ch topology.ChipletID) int64 {
	if v.linkUtil == nil {
		return 0
	}
	return v.linkUtil[ch] - congestionGuardMilli
}

// penalty converts a guard overshoot in milli-units (milli-°C of heat,
// milli of link occupancy) into a scorer penalty: zero inside the guard,
// then one (1<<20)-scaled unit per 1000 — large enough to dominate any
// topological distance, so a calm, cool remote chiplet beats a congested
// or hot local one.
func penalty(over int64) int64 {
	if over <= 0 {
		return 0
	}
	return over * (1 << 20) / 1000
}

// Constraint is a composable candidate filter: it reports whether core c
// is eligible in view v.
type Constraint func(v *View, c topology.CoreID) bool

// Live admits cores the fault plan has not offlined.
var Live Constraint = func(v *View, c topology.CoreID) bool { return v.live[c] }

// Idle admits cores with no worker pinned to them.
var Idle Constraint = func(v *View, c topology.CoreID) bool { return v.occ[c] == 0 }

// Scorer orders eligible candidates: lower is better. Scorers must be
// pure functions of the view and the candidate so selections replay.
type Scorer func(v *View, c topology.CoreID) int64

// LeastLoaded prefers unoccupied cores, then the shallowest queue of the
// core's resident worker (occupancy dominates: stacking two workers on
// one core serializes them regardless of queue depths).
func LeastLoaded() Scorer {
	return func(v *View, c topology.CoreID) int64 {
		s := int64(v.occ[c]) << 32
		if w := v.workerOn[c]; w >= 0 {
			s += v.depth[w]
		}
		return s
	}
}

// CongestionAware prefers cores topologically close to from (from itself
// first, then the Ranks order) while demoting chiplets behind hot fabric
// links and hot dies: candidates pay a penalty once their hottest incident
// link exceeds the guard occupancy, and another inside the thermal guard
// band. On views without congestion or thermal signals it reduces exactly
// to topological distance, the fault re-homing walk.
func CongestionAware(from topology.CoreID) Scorer {
	return func(v *View, c topology.CoreID) int64 {
		ch := v.ranks.topo.ChipletOf(c)
		return int64(v.ranks.pos[from][c]) + penalty(v.congestionOver(ch)) + penalty(v.thermalOver(ch))
	}
}

func (v *View) satisfies(c topology.CoreID, cons []Constraint) bool {
	for _, f := range cons {
		if !f(v, c) {
			return false
		}
	}
	return true
}

// Select returns the best core under the scorer among those satisfying
// every constraint, or ok=false when no core qualifies. Ties break toward
// the lower core ID, so identical views always select identically.
func (v *View) Select(score Scorer, cons ...Constraint) (topology.CoreID, bool) {
	var best topology.CoreID
	var bestScore int64
	found := false
	for i := range v.live {
		c := topology.CoreID(i)
		if !v.satisfies(c, cons) {
			continue
		}
		if s := score(v, c); !found || s < bestScore {
			best, bestScore, found = c, s, true
		}
	}
	return best, found
}

// VictimsByDistance returns the IDs of all workers other than selfWorker
// in increasing topological distance of their core from self — the
// chiplet-first steal-victim order of §4.4. Cores transiently shared by
// two workers contribute only the currently registered one, matching the
// engine's worker-on-core map.
func (v *View) VictimsByDistance(self topology.CoreID, selfWorker int) []int {
	out := make([]int, 0, len(v.workerCore))
	for _, c := range v.ranks.from[self] {
		if w := v.workerOn[c]; w >= 0 && int(w) != selfWorker {
			out = append(out, int(w))
		}
	}
	return out
}

// VictimsNodeFirst returns all workers other than selfWorker, those on
// self's NUMA node first, each group in worker-ID order — NUMA-aware but
// chiplet-oblivious stealing (RING/SAM).
func (v *View) VictimsNodeFirst(self topology.CoreID, selfWorker int) []int {
	topo := v.ranks.topo
	node := topo.NodeOfCore(self)
	var same, other []int
	for w, c := range v.workerCore {
		if w == selfWorker {
			continue
		}
		if topo.NodeOfCore(c) == node {
			same = append(same, w)
		} else {
			other = append(other, w)
		}
	}
	return append(same, other...)
}

// LiveWorkersOn appends to dst the IDs of workers currently on live
// cores of chiplet ch, in worker-ID order — the dispatch group co-located
// stage placement spreads a stage across — and returns the extended
// slice.
func (v *View) LiveWorkersOn(dst []int, ch topology.ChipletID) []int {
	for w, c := range v.workerCore {
		if v.ranks.topo.ChipletOf(c) == ch && v.live[c] {
			dst = append(dst, w)
		}
	}
	return dst
}

// prefCand is one chiplet's dispatch-preference key, its fields in
// comparison order.
type prefCand struct {
	other   bool
	refused bool
	health  int64
	band    int64
	cong    int64
	depth   int64
	rot     int
	ch      topology.ChipletID
	hasLive bool
}

// falseFirst orders false before true.
func falseFirst(a, b bool) int {
	switch {
	case a == b:
		return 0
	case a:
		return 1
	}
	return -1
}

// comparePref orders preference keys: the preferred kind first, then
// breaker-admitting, healthier, cooler, calmer, shallower, and finally by
// rotation. rot is unique per chiplet, so the order is total and every
// correct sort produces the same sequence.
func comparePref(a, b prefCand) int {
	if c := falseFirst(a.other, b.other); c != 0 {
		return c
	}
	if c := falseFirst(a.refused, b.refused); c != 0 {
		return c
	}
	if c := cmp.Compare(a.health, b.health); c != 0 {
		return c
	}
	if c := cmp.Compare(a.band, b.band); c != 0 {
		return c
	}
	if c := cmp.Compare(a.cong, b.cong); c != 0 {
		return c
	}
	if c := cmp.Compare(a.depth, b.depth); c != 0 {
		return c
	}
	return cmp.Compare(a.rot, b.rot)
}

// ChipletsByPreference appends to dst every chiplet hosting at least one
// worker on a live core, ordered for dispatch, and returns the extended
// slice: chiplets of the preferred kind first when kind is not KindAny (a
// soft preference — the other kinds follow, so a preference never strands
// work, and it changes nothing when every chiplet or none is of that
// kind), then breaker-admitting chiplets before refused ones (refused
// chiplets stay listed so half-open probes can still reach them), then
// healthier fused milli, then cooler thermal band (2 °C buckets inside the
// soft setpoint's guard band — a no-op without a thermal signal), then
// calmer congestion band (100-milli buckets of hottest-incident-link
// occupancy past the congestion guard — a no-op without a link signal),
// then lower aggregate queue depth. Remaining ties rotate
// deterministically with cursor so equally-good chiplets share work
// round-robin.
func (v *View) ChipletsByPreference(dst []topology.ChipletID, cursor int, kind topology.ChipletKind) []topology.ChipletID {
	topo := v.ranks.topo
	nch := topo.NumChiplets()
	v.prefs = slices.Grow(v.prefs[:0], nch)[:nch]
	cands := v.prefs
	for ch := range cands {
		cands[ch] = prefCand{ch: topology.ChipletID(ch)}
	}
	// One pass over the workers sums every chiplet's live queue depth.
	for w, c := range v.workerCore {
		if v.live[c] {
			p := &cands[topo.ChipletOf(c)]
			p.hasLive = true
			p.depth += v.depth[w]
		}
	}
	k := 0
	for ch, p := range cands {
		if !p.hasLive {
			continue
		}
		id := topology.ChipletID(ch)
		p.other = kind != topology.KindAny && topo.KindOf(id) != kind
		p.refused, p.health = v.refused[ch], v.health[ch]
		if over := v.thermalOver(id); over > 0 {
			p.band = over/2000 + 1
		}
		if over := v.congestionOver(id); over > 0 {
			p.cong = over/100 + 1
		}
		p.rot = ((ch-cursor)%nch + nch) % nch
		cands[k] = p
		k++
	}
	cands = cands[:k]
	slices.SortFunc(cands, comparePref)
	for _, p := range cands {
		dst = append(dst, p.ch)
	}
	return dst
}
