// Package sim composes the substrate packages (topology, mem, cache,
// fabric, pmu) into a Machine: a cost-model simulator of a chiplet-based
// server. Workloads drive it with Access calls against simulated addresses;
// the machine returns virtual-nanosecond costs and maintains the PMU
// counters the CHARM runtime schedules on.
//
// Coherence is modeled at L3 granularity: chiplet L3 slices hold (possibly
// shared) copies of lines; a write invalidates every other chiplet's copy,
// so read-write sharing across chiplets produces the cache-to-cache
// ping-pong traffic that chiplet-aware placement avoids. L2s are private
// filters kept functionally inclusive in the local L3: an L2 hit counts
// only while the local L3 still holds the line. Presence is tracked by a
// sharded coherence directory (directory.go) modeling the I/O die's probe
// filter, so holder lookup and invalidation touch only actual sharers
// instead of broadcast-scanning every chiplet's tag array.
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"strings"
	"sync/atomic"

	"charm/internal/cache"
	"charm/internal/fabric"
	"charm/internal/fault"
	"charm/internal/mem"
	"charm/internal/obs"
	"charm/internal/pmu"
	"charm/internal/topology"
)

// windowNS is the accounting window of every DRAM and Fabric bucket (a
// chargeRun ends with it).
const windowNS = mem.DefaultWindowNS

// Config parameterizes a Machine.
type Config struct {
	// Topo is the machine layout; required.
	Topo *topology.Topology
	// Fabric selects the interconnect's link graph. The zero value is
	// fabric.KindStar, the hub: one link per chiplet into its socket's
	// I/O die.
	Fabric fabric.Kind
	// SampleShift simulates only 1/2^SampleShift of cache lines exactly;
	// other lines are charged the core's recent average cost. 0 = exact.
	SampleShift uint
	// MLP is the memory-level parallelism of contiguous accesses: within
	// one multi-line Access, miss latencies after the first line overlap
	// and are charged latency/MLP (bandwidth queueing is never divided).
	// This is what makes streaming workloads bandwidth-bound rather than
	// latency-bound, the §2.2 bottleneck. 0 selects 8.
	MLP int64
}

// Machine is a simulated chiplet server. All methods are safe for
// concurrent use by one goroutine per simulated core.
type Machine struct {
	Topo   *topology.Topology
	Space  *mem.Space
	DRAM   *mem.DRAM
	Fabric *fabric.Fabric
	PMU    *pmu.PMU

	l2 []*cache.Cache // per core
	l3 []*cache.Cache // per chiplet

	// dir is the coherence directory mirroring L3 presence (the IOD
	// probe filter). nil selects broadcast tag-array scans: the path of
	// topologies over 64 chiplets, and the reference model in-package
	// tests check the directory against.
	dir *directory

	sampleShift  uint
	sampleFactor int64
	mlp          int64

	// accMilli[ch] is chiplet ch's kind access-cost multiplier in
	// milli-units, nil on homogeneous machines so the baseline access
	// path is arithmetically untouched.
	accMilli []int64

	// Layout tables New precomputes from the Topology methods (which stay
	// the single source of truth; TestLayoutTablesMatchTopology compares
	// every entry), so the miss path indexes instead of dividing — the
	// divisions were 15% of a cross-chiplet fill. chipletOf and nodeOf are
	// per core; l3Lat and remoteEv are [requester chiplet][holder chiplet]
	// flattened row-major (the L3HitLatency and the remote-fill PMU event
	// of that pair); dramLat is [home node][requester chiplet].
	chipletOf []topology.ChipletID
	nodeOf    []topology.NodeID
	l3Lat     []int64
	remoteEv  []pmu.Event
	dramLat   []int64

	// avg holds per-core scratch state — the EWMA cost of recent sampled
	// line accesses (charged to unsampled lines) and the core's two
	// directory page-cache entries. Owner-core access only; padded against
	// false sharing.
	avg []coreScratch

	// host is nil until Instrument.
	host *hostMetrics
}

// SetFaultPlan arms a compiled fault plan on the machine's shared
// resources: fabric links and memory channels degrade per the plan's
// windows, evaluated at each charge's own virtual time. Core-offline
// windows are not interpreted here — the runtime layer owns worker
// placement and queries the plan directly. Call before the machine starts
// executing; a nil plan restores healthy behaviour.
func (m *Machine) SetFaultPlan(p *fault.Plan) {
	m.Fabric.SetFaultPlan(p)
	m.DRAM.SetFaultPlan(p)
}

type coreScratch struct {
	// v is atomic: SMT siblings and time-shared workers run the same core
	// (a lost update between them merely perturbs the average).
	v atomic.Int64
	// dir caches the directory page of the line being accessed, vic the
	// page of the last capacity victim: the victims of a streaming fill
	// are as sequential as the fill, but run a cache's worth of lines
	// behind it, so one shared entry would thrash.
	dir dirCache
	vic dirCache
	_   [64 - 8 - 8 - 8]byte
}

// New builds a Machine. It panics on an invalid topology, which indicates a
// configuration programming error.
func New(cfg Config) *Machine {
	t := cfg.Topo
	if t == nil {
		panic("sim: Config.Topo is required")
	}
	if err := t.Validate(); err != nil {
		panic(fmt.Sprintf("sim: %v", err))
	}
	mlp := cfg.MLP
	if mlp <= 0 {
		mlp = 8
	}
	m := &Machine{
		Topo:         t,
		Space:        mem.NewSpace(t),
		DRAM:         mem.NewDRAM(t, windowNS),
		Fabric:       fabric.Build(cfg.Fabric, t, windowNS),
		PMU:          pmu.New(t.NumCores()),
		sampleShift:  cfg.SampleShift,
		sampleFactor: 1 << cfg.SampleShift,
		mlp:          mlp,
		avg:          make([]coreScratch, t.NumCores()),
	}
	m.l2 = make([]*cache.Cache, t.NumCores())
	for i := range m.l2 {
		if t.L2PerCore > 0 {
			m.l2[i] = cache.New(t.L2PerCore, t.L2Ways, cfg.SampleShift)
		}
	}
	m.l3 = make([]*cache.Cache, t.NumChiplets())
	for i := range m.l3 {
		m.l3[i] = cache.New(t.L3PerChiplet, t.L3Ways, cfg.SampleShift)
	}
	if t.NumChiplets() <= maxDirChiplets {
		m.dir = newDirectory()
	}
	if t.Heterogeneous() {
		m.accMilli = make([]int64, t.NumChiplets())
		for ch := range m.accMilli {
			m.accMilli[ch] = t.AccessMilli(topology.ChipletID(ch))
		}
	}
	m.buildLayoutTables()
	for i := range m.avg {
		m.avg[i].v.Store(scaleAccess(t.Cost.L2Hit, m.coreAccMilli(topology.CoreID(i))))
	}
	return m
}

// buildLayoutTables fills the per-core and per-pair tables from the
// Topology methods. Every quantity depends on the requesting core only
// through its chiplet, so the chiplet's first core stands in for all of
// them; the diagonal of remoteEv is never read (a holder is never self).
func (m *Machine) buildLayoutTables() {
	t := m.Topo
	nch, nn := t.NumChiplets(), t.NumNodes()
	m.chipletOf = make([]topology.ChipletID, t.NumCores())
	m.nodeOf = make([]topology.NodeID, t.NumCores())
	for c := range m.chipletOf {
		m.chipletOf[c] = t.ChipletOf(topology.CoreID(c))
		m.nodeOf[c] = t.NodeOfCore(topology.CoreID(c))
	}
	m.l3Lat = make([]int64, nch*nch)
	m.remoteEv = make([]pmu.Event, nch*nch)
	m.dramLat = make([]int64, nch*nn)
	for ch := 0; ch < nch; ch++ {
		core := t.FirstCoreOf(topology.ChipletID(ch))
		for o := 0; o < nch; o++ {
			m.l3Lat[ch*nch+o] = t.L3HitLatency(core, topology.ChipletID(o))
			switch t.ClassOf(core, t.FirstCoreOf(topology.ChipletID(o))) {
			case topology.InterChipletNear:
				m.remoteEv[ch*nch+o] = pmu.FillL3RemoteNear
			case topology.InterChipletFar:
				m.remoteEv[ch*nch+o] = pmu.FillL3RemoteFar
			default:
				m.remoteEv[ch*nch+o] = pmu.FillL3RemoteSocket
			}
		}
		for n := 0; n < nn; n++ {
			m.dramLat[n*nch+ch] = t.DRAMLatency(core, topology.NodeID(n))
		}
	}
}

// coreAccMilli returns the access-cost multiplier of the chiplet hosting
// core (1000 on homogeneous machines).
func (m *Machine) coreAccMilli(core topology.CoreID) int64 {
	if m.accMilli == nil {
		return 1000
	}
	return m.accMilli[m.chipletOf[core]]
}

// scaleAccess applies a chiplet kind's access multiplier to a cost. The
// 1000 fast path leaves the cost untouched — heterogeneity must never
// perturb homogeneous replays — and scaled costs floor at 1 ns so the
// EWMA and hit costs stay positive.
func scaleAccess(cost, milli int64) int64 {
	if milli == 1000 {
		return cost
	}
	c := cost * milli / 1000
	if c < 1 {
		c = 1
	}
	return c
}

// Instrument registers the machine's telemetry with reg so one snapshot
// shows the full simulated state: every PMU counter aggregated per
// chiplet, per-chiplet L3 hit/miss/eviction counts, per-link fabric
// occupancy, and per-channel memory bandwidth. All machine metrics are
// snapshot-time funcs or charge-path counters — nothing is added to the
// access fast path beyond what the charge paths already do.
func (m *Machine) Instrument(reg *obs.Registry) {
	t := m.Topo
	for e := pmu.Event(0); int(e) < pmu.NumEvents; e++ {
		name := "charm_pmu_" + strings.ReplaceAll(e.String(), ".", "_") + "_total"
		help := "PMU event " + e.String() + " summed over the chiplet's cores."
		for ch := 0; ch < t.NumChiplets(); ch++ {
			cores := t.CoresOfChiplet(topology.ChipletID(ch))
			reg.Func(name, help, obs.KindCounter,
				obs.Labels{"chiplet": strconv.Itoa(ch)}, func(int64) float64 {
					var s int64
					for _, c := range cores {
						s += m.PMU.Read(int(c), e)
					}
					return float64(s)
				})
		}
	}
	for ch := range m.l3 {
		c := m.l3[ch]
		l := obs.Labels{"chiplet": strconv.Itoa(ch)}
		reg.Func("charm_l3_hits_total", "L3 slice lookup hits.", obs.KindCounter, l,
			func(int64) float64 { h, _ := c.Stats(); return float64(h) })
		reg.Func("charm_l3_misses_total", "L3 slice lookup misses.", obs.KindCounter, l,
			func(int64) float64 { _, ms := c.Stats(); return float64(ms) })
		reg.Func("charm_l3_evictions_total", "L3 slice capacity evictions.", obs.KindCounter, l,
			func(int64) float64 { return float64(c.Evictions()) })
	}
	m.Fabric.Instrument(reg)
	m.DRAM.Instrument(reg)
	// What the simulator did, not the machine (lines per run = the
	// coalescing ratio): not Traced, so in no sampled history, and in no digest.
	m.host = &hostMetrics{
		runs: reg.Counter("charm_host_charge_runs_total",
			"Coalesced bandwidth charges made by multi-line accesses.", nil),
		lines: reg.Counter("charm_host_charge_lines_total",
			"Missing lines whose bandwidth charge was coalesced into a run.", nil),
		fallback: reg.Counter("charm_host_charge_fallback_lines_total",
			"Missing lines of multi-line accesses charged singly: no headroom on the route, or a fault plan armed.", nil),
	}
}

// hostMetrics are the streamed loop's self-metrics.
type hostMetrics struct{ runs, lines, fallback *obs.Counter }

// Access simulates core touching [addr, addr+size) at virtual time t and
// returns the total cost in nanoseconds. write selects the coherence
// action. Size may span many lines; sampled lines are simulated exactly and
// the rest charged the core's running average cost. An access within one
// line (nearly all of a graph kernel's) settles that line at once; a longer
// one runs accessStream.
func (m *Machine) Access(core topology.CoreID, t int64, addr mem.Addr, size int64, write bool) int64 {
	if size <= 0 {
		return 0
	}
	first := uint64(addr) >> cache.LineShift
	last := (uint64(addr) + uint64(size) - 1) >> cache.LineShift
	var cost int64
	switch a := &m.avg[core].v; {
	case first != last:
		cost = m.accessStream(core, t, first, last, addr, write)
	case first&uint64(m.sampleFactor-1) != 0:
		cost = a.Load()
	default:
		var fills fillTally
		c, ev, src := m.accessLine(core, t, first, addr, write, false, &fills)
		if src != noSource {
			c += m.charge(src, m.chipletOf[core], t, 1)
		}
		m.bookFills(core, &fills)
		cost = scaleAccess(c, m.coreAccMilli(core))
		v := a.Load()
		if d := (cost - v) / 8; d != 0 {
			a.Store(v + d)
		}
		m.PMU.Add(int(core), ev, m.sampleFactor)
	}
	if write {
		m.PMU.Add(int(core), pmu.BytesWritten, size)
	} else {
		m.PMU.Add(int(core), pmu.BytesRead, size)
	}
	return cost
}

// accessStream is Access for lines first..last, last > first. Its misses
// pipeline (hardware prefetch + MLP): from four lines up only the first
// pays the full latency. What each line would add to a shared word is kept
// local, to the same totals (DESIGN.md §4.11): equal consecutive fill
// events share one PMU add, cache statistics are tallied and booked per
// level at the end — exact at every Access boundary — the EWMA is loaded
// and stored once, and bandwidth charges are coalesced (chargeRun).
func (m *Machine) accessStream(core topology.CoreID, t int64, first, last uint64, addr mem.Addr, write bool) int64 {
	var cost int64
	mask := uint64(m.sampleFactor - 1)
	acc := m.coreAccMilli(core)
	ch := m.chipletOf[core]
	streamRun := last-first >= 3
	avg := m.avg[core].v.Load()
	var fills fillTally
	run := chargeRun{src: noSource}
	var runEv pmu.Event
	var runLen int64
	for line := first; line <= last; line++ {
		if line&mask != 0 {
			cost += avg
			continue
		}
		c, ev, src := m.accessLine(core, t+cost, line, addr, write, streamRun && line != first, &fills)
		if src != noSource {
			c += m.chargeLine(&run, src, ch, t+cost)
		}
		c = scaleAccess(c, acc)
		avg += (c - avg) / 8
		cost += c
		if ev != runEv && runLen > 0 {
			m.PMU.Add(int(core), runEv, runLen*m.sampleFactor)
			runLen = 0
		}
		runEv = ev
		runLen++
	}
	if runLen > 0 {
		m.PMU.Add(int(core), runEv, runLen*m.sampleFactor)
	}
	cost += m.flushCharges(&run, ch)
	m.bookFills(core, &fills)
	m.avg[core].v.Store(avg)
	if h := m.host; h != nil {
		h.runs.Add(0, run.flushes)
		h.lines.Add(0, run.coalesced)
		h.fallback.Add(0, run.single)
	}
	return cost
}

// fillTally holds the cache statistics of one Access's Fills, per level.
type fillTally struct{ l2, l3 cache.Tally }

// bookFills folds an Access's tallies into core's L2 and its chiplet's L3.
func (m *Machine) bookFills(core topology.CoreID, f *fillTally) {
	if l2 := m.l2[core]; l2 != nil {
		l2.Book(&f.l2)
	}
	m.l3[m.chipletOf[core]].Book(&f.l3)
}

// noSource is accessLine's source for a line that hit locally. Any other
// source names where a missing line came from, and so which buckets its
// transfer charges: holder chiplet h as h, home node n's memory as ^n.
const noSource = math.MinInt32

// charge accounts the transfer of lines sampled lines from src to chiplet
// ch at time t and returns its queueing delay. A sampled line stands for
// sampleFactor real lines, so bandwidth is charged for all of them.
func (m *Machine) charge(src int32, ch topology.ChipletID, t, lines int64) int64 {
	bytes := lines * int64(cache.LineSize) * m.sampleFactor
	if src >= 0 {
		return m.Fabric.ChargeTransfer(topology.ChipletID(src), ch, t, bytes)
	}
	node := topology.NodeID(^src)
	return m.DRAM.Charge(node, t, bytes) + m.Fabric.ChargeMemory(ch, node, t, bytes)
}

// chargeRun coalesces the bandwidth charges of one streamed Access (DESIGN.md
// §4.11). When a route is first charged in a window the run reads its
// headroom — the bytes every bucket on it still takes in that window
// without delay — and defers lines while they fit, then charges their sum
// once: n zero-delay charges leave the bucket words and byte counters as one
// charge of the sum does, and under Deterministic execution nothing else
// touches a bucket in between. A line that does not fit (a congested route;
// any route with a fault plan armed) is charged singly, after the deferred
// bytes.
type chargeRun struct {
	src   int32 // route of the current window's charges
	until int64 // end of that window
	t     int64 // time of the first deferred line
	lines int64 // lines deferred, not yet charged
	room  int64 // headroom left after them

	flushes, coalesced, single int64 // for the host metrics
}

// chargeLine accounts one missing line from src at time t, deferred or at
// once, and returns its queueing delay.
func (m *Machine) chargeLine(r *chargeRun, src int32, ch topology.ChipletID, t int64) int64 {
	var q int64
	if src != r.src || t >= r.until {
		q = m.flushCharges(r, ch)
		r.src, r.until = src, (t/windowNS+1)*windowNS
		if src >= 0 {
			r.room = m.Fabric.TransferHeadroom(topology.ChipletID(src), ch, t)
		} else {
			node := topology.NodeID(^src)
			r.room = min(m.DRAM.Headroom(node, t), m.Fabric.MemoryHeadroom(ch, node, t))
		}
	}
	if xfer := int64(cache.LineSize) * m.sampleFactor; r.room >= xfer {
		if r.lines == 0 {
			r.t = t
		}
		r.room -= xfer
		r.lines++
		return q
	}
	q += m.flushCharges(r, ch)
	r.room = 0
	r.single++
	return q + m.charge(src, ch, t, 1)
}

// flushCharges makes the deferred charge. Its delay is 0 unless, free-
// running, another core filled the window since the headroom was read.
func (m *Machine) flushCharges(r *chargeRun, ch topology.ChipletID) int64 {
	if r.lines == 0 {
		return 0
	}
	q := m.charge(r.src, ch, r.t, r.lines)
	r.flushes++
	r.coalesced += r.lines
	r.lines = 0
	return q
}

// RepeatCost returns the per-access cost of immediately re-touching
// [addr, addr+size) after an Access by the same core, and whether that cost
// is time-invariant so the caller may batch such repeats. The guarantee
// behind it: Access leaves a single-line target in the core's L2 (when one
// exists) and its local L3, so a repeat is a hit of constant latency — hit
// paths charge no token bucket — and a repeat after a write has no remote
// copies left to invalidate. Unsampled lines are charged the core's running
// average, which only sampled accesses move, so it too is constant across a
// run of same-line repeats. Multi-line accesses don't qualify (their lines
// can evict each other and their misses pipeline).
func (m *Machine) RepeatCost(core topology.CoreID, addr mem.Addr, size int64) (cost int64, ok bool) {
	first := uint64(addr) >> cache.LineShift
	if size <= 0 || first != (uint64(addr)+uint64(size)-1)>>cache.LineShift {
		return 0, false
	}
	if first&uint64(m.sampleFactor-1) != 0 {
		return m.avg[core].v.Load(), true
	}
	if m.l2[core] != nil {
		return scaleAccess(m.Topo.Cost.L2Hit, m.coreAccMilli(core)), true
	}
	return scaleAccess(m.Topo.Cost.L3LocalHit, m.coreAccMilli(core)), true
}

// AccessRepeat settles n deferred repeat accesses (see RepeatCost) in one
// call, leaving every machine counter exactly as n individual Access calls
// ending at virtual time lastT would have: the line's LRU stamp and hit
// counter, the core's fill-event and byte PMU counters, and n iterations of
// the core's average-cost EWMA. It returns false — recording nothing — when
// the line is no longer resident where RepeatCost assumed (a concurrent
// invalidation or a migration moved the core), so the caller can replay the
// repeats through Access instead.
func (m *Machine) AccessRepeat(core topology.CoreID, lastT int64, addr mem.Addr, size int64, write bool, n int64) bool {
	line := uint64(addr) >> cache.LineShift
	if line&uint64(m.sampleFactor-1) == 0 {
		var c int64
		if l2 := m.l2[core]; l2 != nil {
			// Same inclusivity rule as the L2-hit path in accessLine: the
			// hit only counts while the local L3 still holds the line.
			if !m.l3Holds(m.chipletOf[core], line, &m.avg[core].dir) ||
				!l2.Touch(line, lastT, n) {
				return false
			}
			m.PMU.Add(int(core), pmu.FillL2, n*m.sampleFactor)
			c = scaleAccess(m.Topo.Cost.L2Hit, m.coreAccMilli(core))
		} else {
			if !m.l3[m.chipletOf[core]].Touch(line, lastT, n) {
				return false
			}
			m.PMU.Add(int(core), pmu.FillL3Local, n*m.sampleFactor)
			c = scaleAccess(m.Topo.Cost.L3LocalHit, m.coreAccMilli(core))
		}
		// Iterate the EWMA the n hits would have applied; the integer
		// recurrence reaches its fixed point (|c-v| < 8) in a few steps, so
		// large batches exit early.
		a := &m.avg[core].v
		v0 := a.Load()
		v := v0
		for i := int64(0); i < n; i++ {
			d := (c - v) / 8
			if d == 0 {
				break
			}
			v += d
		}
		if v != v0 {
			a.Store(v)
		}
	}
	if write {
		m.PMU.Add(int(core), pmu.BytesWritten, n*size)
	} else {
		m.PMU.Add(int(core), pmu.BytesRead, n*size)
	}
	return true
}

// Read is shorthand for a read Access.
func (m *Machine) Read(core topology.CoreID, t int64, addr mem.Addr, size int64) int64 {
	return m.Access(core, t, addr, size, false)
}

// accessLine simulates one sampled line access exactly. It returns the
// line's cost without bandwidth queueing, the fill event naming where the
// line came from and, for a line that missed locally, the source its
// transfer is charged from (noSource on a hit): the caller counts the
// event, makes the charge and adds its delay, and books fills. streaming
// marks a non-leading line of a contiguous run: its miss latency overlaps
// with its predecessors (divided by MLP) while bandwidth charges stay whole.
//
// Each cache level is probed and filled by one cache.Fill, so on a miss the
// line is in the local L2 and L3 before the holder search rather than after
// it. No outcome depends on that order: the holder search and the
// invalidation both exclude the local chiplet, the capacity victim is never
// the line being filled, and the line's own directory bit is still set last.
func (m *Machine) accessLine(core topology.CoreID, t int64, line uint64, addr mem.Addr, write bool, streaming bool, fills *fillTally) (int64, pmu.Event, int32) {
	topo := m.Topo
	ch := m.chipletOf[core]
	l3 := m.l3[ch]
	l2 := m.l2[core]
	sc := &m.avg[core].dir

	// pipelined divides a latency by MLP for non-leading lines of a
	// contiguous run (hits pipeline just like misses).
	pipelined := func(lat int64) int64 {
		if streaming {
			lat /= m.mlp
			if lat < 1 {
				lat = 1
			}
		}
		return lat
	}

	// invalidationCost models the ownership-upgrade round trips a write
	// to a shared line pays: each remote copy must be invalidated and
	// acknowledged (the coherence serialization that makes contended
	// lines expensive).
	invalidationCost := func(copies int) int64 {
		return int64(copies) * topo.Cost.L3RemoteNearHit / 2
	}

	// L2 hit, valid only while the local L3 still holds the line
	// (functional inclusivity) — a single directory bit test. Every path
	// below leaves the line in the L2, so a miss fills it here.
	if l2 != nil {
		if hit, _, _ := l2.Fill(line, t, &fills.l2); hit && m.l3Holds(ch, line, sc) {
			cost := pipelined(topo.Cost.L2Hit)
			if write {
				cost += invalidationCost(m.invalidateOthers(ch, line, sc))
			}
			return cost, pmu.FillL2, noSource
		}
	}

	// Local L3 hit, or fill: the victim's presence bit goes at once (this
	// is the eviction-notification plumbing that keeps the directory an
	// exact mirror), the line's own bit once its source is settled.
	hit, victim, evicted := l3.Fill(line, t, &fills.l3)
	if hit {
		cost := pipelined(topo.Cost.L3LocalHit)
		if write {
			cost += invalidationCost(m.invalidateOthers(ch, line, sc))
		}
		return cost, pmu.FillL3Local, noSource
	}
	if evicted && m.dir != nil {
		m.dir.remove(victim, int(ch), &m.avg[core].vic)
	}

	// Local miss: find the topologically closest chiplet holding the line.
	holder, lat := m.closestHolder(ch, line, sc)
	var cost int64
	var ev pmu.Event
	src := int32(holder)
	if holder >= 0 {
		cost = pipelined(lat)
		ev = m.remoteEv[int(ch)*len(m.l3)+holder]
		if write {
			cost += invalidationCost(m.invalidateOthers(ch, line, sc))
		}
	} else {
		local := m.nodeOf[core]
		node := m.Space.HomeOf(addr, local)
		src = ^int32(node)
		cost = pipelined(m.dramLat[int(node)*len(m.l3)+int(ch)])
		if node == local {
			ev = pmu.FillDRAMLocal
		} else {
			ev = pmu.FillDRAMRemote
		}
	}
	if m.dir != nil {
		m.dir.add(line, int(ch), sc)
	}
	return cost, ev, src
}

// l3Holds reports whether chiplet ch's L3 holds line: a directory bit test,
// or a tag-array probe in scan mode.
func (m *Machine) l3Holds(ch topology.ChipletID, line uint64, sc *dirCache) bool {
	if m.dir != nil {
		return m.dir.has(line, int(ch), sc)
	}
	return m.l3[ch].Contains(line)
}

// closestHolder finds the cached copy of line with the lowest transfer
// latency to chiplet self, or (-1, 0) when no other chiplet holds it. With
// the directory it walks only the set bits of the presence mask; in scan
// mode it broadcast-probes every chiplet's tag array. Ties resolve to the
// lowest chiplet id in both modes (bits iterate LSB-first, the scan ascends).
func (m *Machine) closestHolder(self topology.ChipletID, line uint64, sc *dirCache) (int, int64) {
	best := -1
	var bestLat int64
	lats := m.l3Lat[int(self)*len(m.l3):][:len(m.l3)]
	if m.dir != nil {
		mask := m.dir.holders(line, sc) &^ (1 << uint(self))
		for mask != 0 {
			i := bits.TrailingZeros64(mask)
			mask &= mask - 1
			if lat := lats[i]; best < 0 || lat < bestLat {
				best, bestLat = i, lat
			}
		}
		return best, bestLat
	}
	for i := range m.l3 {
		if topology.ChipletID(i) == self || !m.l3[i].Contains(line) {
			continue
		}
		if lat := lats[i]; best < 0 || lat < bestLat {
			best, bestLat = i, lat
		}
	}
	return best, bestLat
}

// invalidateOthers removes the line from every other chiplet's L3 and
// returns the number of copies invalidated. With the directory the sharer
// set is claimed in one locked bitmask update and only actual holders'
// tag arrays are touched; in scan mode every chiplet is probed.
func (m *Machine) invalidateOthers(self topology.ChipletID, line uint64, sc *dirCache) int {
	if m.dir != nil {
		mask := m.dir.takeOthers(line, int(self), sc)
		n := bits.OnesCount64(mask)
		for mask != 0 {
			i := bits.TrailingZeros64(mask)
			mask &= mask - 1
			m.l3[i].Invalidate(line)
		}
		return n
	}
	n := 0
	for i := range m.l3 {
		if topology.ChipletID(i) == self {
			continue
		}
		if m.l3[i].Invalidate(line) {
			n++
		}
	}
	return n
}
