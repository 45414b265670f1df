// Package fabric models the on-package interconnect of a chiplet CPU.
// Latencies are topological (see topology.CostModel); fabric adds the
// *queueing* delays that appear when many chiplets move data concurrently.
//
// The interconnect is pluggable behind the Fabric interface. Star is the
// original hub-and-spoke Infinity-Fabric analog (per-chiplet links into an
// I/O die plus per-socket external links); Mesh, Ring, Crossbar, and
// FlattenedButterfly route each transfer src→dst over explicit per-hop
// links, every link carrying its own bandwidth-window queue and fault
// milli-factor. All charging is integer virtual-time math, so every
// fabric replays bit-identically in Deterministic mode.
package fabric

import (
	"fmt"

	"charm/internal/fault"
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

// Fabric tracks bandwidth usage of every interconnect link and converts
// oversubscription into virtual-time queueing delays.
type Fabric interface {
	// Kind identifies the interconnect topology.
	Kind() Kind
	// SetFaultPlan arms a compiled fault plan: charges against a
	// browned-out link see its bandwidth divided by the plan's factor,
	// and MessageDelay stretches latency by the worst factor along the
	// path. A nil plan restores healthy behaviour. Must be called before
	// the machine starts executing.
	SetFaultPlan(*fault.Plan)
	// Instrument registers per-link telemetry with reg: cumulative bytes
	// and queueing-delay counters plus an occupancy gauge per link.
	Instrument(*obs.Registry)
	// ChargeTransfer accounts a cache-to-cache transfer of bytes from
	// chiplet src to chiplet dst at time t and returns the queueing
	// delay (the worst per-hop delay along the route). Transfers within
	// one chiplet are free.
	ChargeTransfer(src, dst topology.ChipletID, t, bytes int64) int64
	// ChargeMemory accounts a DRAM transfer between chiplet ch and NUMA
	// node n's memory controller.
	ChargeMemory(ch topology.ChipletID, n topology.NodeID, t, bytes int64) int64
	// TransferHeadroom returns, charging nothing, how many bytes a src→dst
	// transfer can still charge into the window containing t before a
	// link of its route delays it (see mem.TokenBucket.Headroom). With a
	// fault plan armed it is 0: degradation is evaluated at each charge's
	// own time, so callers must not defer charges.
	TransferHeadroom(src, dst topology.ChipletID, t int64) int64
	// MemoryHeadroom is TransferHeadroom for the ChargeMemory route.
	MemoryHeadroom(ch topology.ChipletID, n topology.NodeID, t int64) int64
	// MessageDelay returns the latency + queueing cost of an explicit
	// message of bytes from core src to core dst at time t (the RPC path).
	MessageDelay(src, dst topology.CoreID, t, bytes int64) int64
	// Links enumerates the fabric's links in telemetry order.
	Links() []LinkInfo
	// TransferRoute returns the link indices (into Links) a
	// src→dst transfer charges, nil when src == dst.
	TransferRoute(src, dst topology.ChipletID) []int
	// LinkUtilMilli returns link i's current-window occupancy in
	// milli-units (1000 = saturated) at virtual time t.
	LinkUtilMilli(i int, t int64) int64
	// ChipletUtilMilli returns the occupancy of chiplet ch's hottest
	// incident link in milli-units — the congestion signal placement
	// scorers consume.
	ChipletUtilMilli(ch topology.ChipletID, t int64) int64
}

// Build constructs a fabric of the given kind over t. KindStar reproduces
// the original hub model bit-identically.
func Build(k Kind, t *topology.Topology, windowNS int64) Fabric {
	if k == KindStar {
		return New(t, windowNS)
	}
	return newRouted(k, t, windowNS)
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
