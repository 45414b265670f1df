// Package fabric models the on-package interconnect of a chiplet CPU.
// Latencies are topological (see topology.CostModel); fabric adds the
// *queueing* delays that appear when many chiplets move data concurrently.
//
// A Fabric is a graph of links, each carrying its own bandwidth-window
// queue and fault milli-factor, plus a precomputed route per transfer and
// per memory access. The Kind only chooses the link graph (graph.go): the
// star hub (one link per chiplet into its socket's I/O die, the
// Infinity-Fabric analog), or a mesh, ring, crossbar or flattened-butterfly
// NoC per socket; sockets are joined by one external link each. All
// charging is integer virtual-time math, so every fabric replays
// bit-identically in Deterministic mode.
package fabric

import (
	"fmt"
	"math"

	"charm/internal/fault"
	"charm/internal/mem"
	"charm/internal/obs"
	"charm/internal/topology"
)

// Kind selects an interconnect topology.
type Kind uint8

const (
	// KindStar is the hub-and-spoke default: each chiplet has one link to
	// its socket's I/O die, sockets are joined by external links.
	KindStar Kind = iota
	// KindMesh arranges each socket's chiplets in a 2D grid with
	// nearest-neighbor links (XY shortest-path routing).
	KindMesh
	// KindRing joins each socket's chiplets in a single bidirectional
	// ring — the cheapest fabric and the most congestion-prone.
	KindRing
	// KindCrossbar gives every chiplet pair its own direct link.
	KindCrossbar
	// KindFlatFly is a flattened butterfly: the grid of KindMesh, but
	// with full connectivity along each row and column (max two hops).
	KindFlatFly

	numKinds
)

// String returns the spec-grammar name of the kind.
func (k Kind) String() string {
	switch k {
	case KindStar:
		return "star"
	case KindMesh:
		return "mesh"
	case KindRing:
		return "ring"
	case KindCrossbar:
		return "crossbar"
	case KindFlatFly:
		return "flatfly"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// ParseKind parses a spec-grammar fabric name. The empty string selects
// KindStar so that zero-valued configs keep today's machine model.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "", "star":
		return KindStar, nil
	case "mesh":
		return KindMesh, nil
	case "ring":
		return KindRing, nil
	case "crossbar":
		return KindCrossbar, nil
	case "flatfly":
		return KindFlatFly, nil
	}
	return KindStar, fmt.Errorf("unknown fabric %q (want star, mesh, ring, crossbar, or flatfly)", s)
}

// Kinds returns every fabric kind, in enum order.
func Kinds() []Kind {
	out := make([]Kind, numKinds)
	for i := range out {
		out[i] = Kind(i)
	}
	return out
}

// LinkInfo describes one fabric link for telemetry and link-map rendering.
type LinkInfo struct {
	// Name is the stable telemetry label of the link (the "link" label of
	// charm_fabric_bytes_total et al.).
	Name string
	// A and B are the endpoint chiplets. A hub link has A == B (the other
	// end is the I/O die); an external socket link has A == B == -1.
	A, B topology.ChipletID
	// Socket is the owning socket of an external link, -1 for on-package
	// links.
	Socket topology.SocketID
}

// routerHopNS is the per-router latency MessageDelay adds for every
// non-hub hop beyond the two a hub route implicitly pays (source and
// destination links, the I/O-die hop included). Hub routes never pay it.
const routerHopNS = 10

// Fabric tracks bandwidth usage of every interconnect link and converts
// oversubscription into virtual-time queueing delays. Every transfer walks
// a precomputed deterministic route and charges each hop's bandwidth-window
// bucket; the transfer pays the worst per-hop queueing delay (hops overlap
// — the path is pipelined, not store-and-forward).
type Fabric struct {
	kind Kind
	topo *topology.Topology

	links []link
	nch   int // chiplets: the first memory route's column in routes
	// routes holds, for each chiplet ch, the link indices a transfer from
	// ch charges to each chiplet dst (column dst; none when dst == ch),
	// then the links between ch and each node n's memory controller
	// (column nch+n).
	routes routeTable
	// incident holds, for each chiplet ch (column 0), the links touching
	// ch.
	incident routeTable

	met    []linkMetrics // nil until Instrument
	faults *fault.Plan
}

// link is one point-to-point link.
type link struct {
	bucket *mem.TokenBucket
	a, b   topology.ChipletID // endpoints; a == b for a hub link, -1 for socket links
	socket topology.SocketID  // owning socket for external links, else -1
}

// hub reports whether l joins a chiplet to its socket's I/O die.
func (l *link) hub() bool { return l.socket < 0 && l.a == l.b }

// Build constructs a fabric of the given kind over t: the kind chooses the
// link graph, and every fabric charges, routes and reports the same way.
func Build(k Kind, t *topology.Topology, windowNS int64) *Fabric {
	f := &Fabric{kind: k, topo: t, nch: t.NumChiplets()}
	if k == KindStar {
		f.buildHub(windowNS)
	} else {
		f.buildNoC(windowNS)
	}
	f.incident = newRouteTable(f.nch, 1, 2*len(f.links))
	for ch := range f.nch {
		for i := range f.links {
			l := &f.links[i]
			if l.socket < 0 && (int(l.a) == ch || int(l.b) == ch) {
				f.incident.add(i)
			}
		}
		f.incident.end()
	}
	return f
}

// Kind identifies the interconnect topology.
func (f *Fabric) Kind() Kind { return f.kind }

// SetFaultPlan arms a compiled fault plan: charges against a browned-out
// link see its bandwidth divided by the plan's factor, and MessageDelay
// stretches latency by the worst factor along the path. A nil plan
// restores healthy behaviour. Must be called before the machine starts
// executing.
func (f *Fabric) SetFaultPlan(p *fault.Plan) { f.faults = p }

// Instrument registers per-link telemetry with reg, labelled by link name:
// cumulative bytes and queueing-delay counters plus an occupancy gauge.
func (f *Fabric) Instrument(reg *obs.Registry) {
	f.met = make([]linkMetrics, len(f.links))
	for i := range f.links {
		l := obs.Labels{"link": f.linkName(i)}
		f.met[i] = linkMetrics{
			bytes: reg.Counter("charm_fabric_bytes_total",
				"Bytes charged against the fabric link.", l),
			delay: reg.Counter("charm_fabric_queue_delay_ns_total",
				"Virtual ns of fabric queueing delay absorbed by accessors.", l),
		}
		reg.Func("charm_fabric_occupancy",
			"Current-window link occupancy (>1 = oversubscribed).",
			obs.KindGauge, l, f.links[i].bucket.Utilization, obs.Traced())
	}
}

// linkMetrics are one link's observability handles (zero-valued when the
// fabric is not instrumented).
type linkMetrics struct {
	bytes *obs.Counter
	delay *obs.Counter
}

// record adds one charge's telemetry to the link counters.
func (m *linkMetrics) record(bytes, delay int64) {
	m.bytes.Add(0, bytes)
	if delay > 0 {
		m.delay.Add(0, delay)
	}
}

// milliOf returns the fault degradation factor of one link at time t: a
// chiplet link inherits the worse of its endpoint chiplets' factors (a hub
// link its one chiplet's); no fault kind degrades an external link.
func (f *Fabric) milliOf(li int32, t int64) int64 {
	l := &f.links[li]
	if l.socket >= 0 {
		return 1000
	}
	m := f.faults.ChipletLinkMilli(l.a, t)
	if l.b != l.a {
		if m2 := f.faults.ChipletLinkMilli(l.b, t); m2 > m {
			m = m2
		}
	}
	return m
}

// chargePath charges every link on the path and returns the worst per-hop
// queueing delay. A healthy fabric calls Charge directly (ChargeScaled at
// factor 1000 is exactly Charge): this is the per-access hot path.
func (f *Fabric) chargePath(path []int32, t, bytes int64) int64 {
	var d int64
	links, healthy, met := f.links, f.faults == nil, f.met
	for _, li := range path {
		var dd int64
		if healthy {
			dd = links[li].bucket.Charge(t, bytes)
		} else {
			dd = links[li].bucket.ChargeScaled(t, bytes, f.milliOf(li, t))
		}
		if met != nil {
			met[li].record(bytes, dd)
		}
		if dd > d {
			d = dd
		}
	}
	return d
}

// ChargeTransfer accounts a cache-to-cache transfer of bytes from chiplet
// src to chiplet dst at time t along the src→dst route and returns the
// worst per-hop queueing delay. Transfers within one chiplet are free:
// their route has no links.
func (f *Fabric) ChargeTransfer(src, dst topology.ChipletID, t, bytes int64) int64 {
	return f.chargePath(f.routes.at(int(src), int(dst)), t, bytes)
}

// ChargeMemory accounts a DRAM transfer between chiplet ch and node n's
// memory controller. On a NoC a chiplet co-located with the controller pays
// no fabric charge; on the hub every access crosses the chiplet's link.
// DRAM channel bandwidth is charged separately.
func (f *Fabric) ChargeMemory(ch topology.ChipletID, n topology.NodeID, t, bytes int64) int64 {
	return f.chargePath(f.routes.at(int(ch), f.nch+int(n)), t, bytes)
}

// pathHeadroom is the least Headroom among the path's links: 0 with a
// fault plan armed, unbounded for an empty path.
func (f *Fabric) pathHeadroom(path []int32, t int64) int64 {
	if f.faults != nil {
		return 0
	}
	room := int64(math.MaxInt64)
	for _, li := range path {
		room = min(room, f.links[li].bucket.Headroom(t))
	}
	return room
}

// TransferHeadroom returns, charging nothing, how many bytes a src→dst
// transfer can still charge into the window containing t before a link of
// its route delays it (see mem.TokenBucket.Headroom). A route without links
// (src == dst) has unbounded room. With a fault plan armed every route,
// the empty one included, has 0: degradation is evaluated at each charge's
// own time, so callers must not defer charges.
func (f *Fabric) TransferHeadroom(src, dst topology.ChipletID, t int64) int64 {
	return f.pathHeadroom(f.routes.at(int(src), int(dst)), t)
}

// MemoryHeadroom is TransferHeadroom for the ChargeMemory route.
func (f *Fabric) MemoryHeadroom(ch topology.ChipletID, n topology.NodeID, t int64) int64 {
	return f.pathHeadroom(f.routes.at(int(ch), f.nch+int(n)), t)
}

// MessageDelay returns the latency + queueing cost of an explicit message
// of bytes from core src to core dst at time t (the RPC path): the
// topological latency stretched by the worst fault factor along the route,
// plus router latency for every non-hub hop beyond two, plus the route's
// queueing delay.
func (f *Fabric) MessageDelay(src, dst topology.CoreID, t, bytes int64) int64 {
	lat := f.topo.CASLatency(src, dst)
	sc, dc := f.topo.ChipletOf(src), f.topo.ChipletOf(dst)
	if sc != dc {
		milli, hops := int64(1000), 0
		for _, li := range f.routes.at(int(sc), int(dc)) {
			if m := f.milliOf(li, t); m > milli {
				milli = m
			}
			if !f.links[li].hub() {
				hops++
			}
		}
		lat = lat * milli / 1000
		if hops > 2 {
			lat += int64(hops-2) * routerHopNS
		}
	}
	return lat + f.ChargeTransfer(sc, dc, t, bytes)
}

// Links enumerates the fabric's links in telemetry order.
func (f *Fabric) Links() []LinkInfo {
	out := make([]LinkInfo, len(f.links))
	for i, l := range f.links {
		out[i] = LinkInfo{Name: f.linkName(i), A: l.a, B: l.b, Socket: l.socket}
	}
	return out
}

// LinkUtilMilli returns link i's current-window occupancy in milli-units
// (1000 = saturated) at virtual time t.
func (f *Fabric) LinkUtilMilli(i int, t int64) int64 {
	return f.links[i].bucket.UtilMilli(t)
}

// ChipletUtilMilli returns the occupancy of chiplet ch's hottest incident
// link in milli-units — the congestion signal placement scorers consume.
// On the hub that is ch's one link, which every transfer in or out crosses.
func (f *Fabric) ChipletUtilMilli(ch topology.ChipletID, t int64) int64 {
	var m int64
	for _, li := range f.incident.at(int(ch), 0) {
		if u := f.links[li].bucket.UtilMilli(t); u > m {
			m = u
		}
	}
	return m
}
