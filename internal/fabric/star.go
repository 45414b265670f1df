package fabric

import (
	"math"
	"strconv"

	"charm/internal/fault"
	"charm/internal/mem"
	"charm/internal/obs"
	"charm/internal/topology"
)

// Star is the hub-and-spoke interconnect (AMD's Infinity Fabric, Intel's
// UPI): every chiplet has one link to its socket's I/O die, and sockets
// are joined by external (xGMI/UPI) links. A transfer charges the source
// and destination chiplet links (plus both socket links when it crosses
// sockets) and pays the worst of the per-link queueing delays.
type Star struct {
	topo *topology.Topology
	// chipletLinks[ch] is the CCD<->I/O-die link of chiplet ch.
	chipletLinks []*mem.TokenBucket
	// socketLinks[s] is socket s's external (xGMI/UPI) link.
	socketLinks []*mem.TokenBucket
	// socketOf[ch] is chiplet ch's socket, tabulated from the Topology
	// methods (integer divisions) because every charge needs it.
	socketOf []topology.SocketID

	// Per-link telemetry, nil until Instrument.
	chipletMet []linkMetrics
	socketMet  []linkMetrics

	faults *fault.Plan
}

// New builds the hub-and-spoke link buckets for a machine.
func New(t *topology.Topology, windowNS int64) *Star {
	f := &Star{topo: t}
	f.chipletLinks = make([]*mem.TokenBucket, t.NumChiplets())
	for i := range f.chipletLinks {
		f.chipletLinks[i] = mem.NewTokenBucket(t.Cost.FabricBandwidth, windowNS)
	}
	f.socketLinks = make([]*mem.TokenBucket, t.Sockets)
	for i := range f.socketLinks {
		f.socketLinks[i] = mem.NewTokenBucket(t.Cost.SocketBandwidth, windowNS)
	}
	f.socketOf = make([]topology.SocketID, t.NumChiplets())
	for ch := range f.socketOf {
		f.socketOf[ch] = t.SocketOfNode(t.NodeOfChiplet(topology.ChipletID(ch)))
	}
	return f
}

// Kind identifies the interconnect topology.
func (f *Star) Kind() Kind { return KindStar }

// SetFaultPlan arms a compiled fault plan (nil restores healthy behaviour).
func (f *Star) SetFaultPlan(p *fault.Plan) { f.faults = p }

// Instrument registers per-link telemetry with reg: cumulative bytes and
// queueing delay counters plus a snapshot-time occupancy gauge for every
// chiplet link (ccdN) and socket link (socketN).
func (f *Star) Instrument(reg *obs.Registry) {
	instrument := func(buckets []*mem.TokenBucket, prefix string) []linkMetrics {
		met := make([]linkMetrics, len(buckets))
		for i, bucket := range buckets {
			l := obs.Labels{"link": prefix + strconv.Itoa(i)}
			met[i] = linkMetrics{
				bytes: reg.Counter("charm_fabric_bytes_total",
					"Bytes charged against the fabric link.", l),
				delay: reg.Counter("charm_fabric_queue_delay_ns_total",
					"Virtual ns of fabric queueing delay absorbed by accessors.", l),
			}
			reg.Func("charm_fabric_occupancy",
				"Current-window link occupancy (>1 = oversubscribed).",
				obs.KindGauge, l, bucket.Utilization, obs.Traced())
		}
		return met
	}
	f.chipletMet = instrument(f.chipletLinks, "ccd")
	f.socketMet = instrument(f.socketLinks, "socket")
}

// chargeChiplet charges one chiplet link and records its telemetry.
func (f *Star) chargeChiplet(ch topology.ChipletID, t, bytes int64) int64 {
	d := f.chipletLinks[ch].ChargeScaled(t, bytes, f.faults.ChipletLinkMilli(ch, t))
	if f.chipletMet != nil {
		f.chipletMet[ch].record(bytes, d)
	}
	return d
}

// chargeSocket charges one socket link and records its telemetry.
func (f *Star) chargeSocket(s topology.SocketID, t, bytes int64) int64 {
	d := f.socketLinks[s].ChargeScaled(t, bytes, f.faults.SocketLinkMilli(s, t))
	if f.socketMet != nil {
		f.socketMet[s].record(bytes, d)
	}
	return d
}

// ChargeTransfer accounts a cache-to-cache transfer of bytes from chiplet
// src to chiplet dst at time t and returns the queueing delay. Transfers
// within one chiplet are free (they stay inside the CCX).
func (f *Star) ChargeTransfer(src, dst topology.ChipletID, t, bytes int64) int64 {
	if src == dst {
		return 0
	}
	d := f.chargeChiplet(src, t, bytes)
	if d2 := f.chargeChiplet(dst, t, bytes); d2 > d {
		d = d2
	}
	ss, ds := f.socketOf[src], f.socketOf[dst]
	if ss != ds {
		if d2 := f.chargeSocket(ss, t, bytes); d2 > d {
			d = d2
		}
		if d2 := f.chargeSocket(ds, t, bytes); d2 > d {
			d = d2
		}
	}
	return d
}

// ChargeMemory accounts a DRAM transfer between chiplet ch and NUMA node n
// (the path crosses ch's fabric link, and the socket link when n is remote).
func (f *Star) ChargeMemory(ch topology.ChipletID, n topology.NodeID, t, bytes int64) int64 {
	d := f.chargeChiplet(ch, t, bytes)
	cs, ns := f.socketOf[ch], f.topo.SocketOfNode(n)
	if cs != ns {
		if d2 := f.chargeSocket(cs, t, bytes); d2 > d {
			d = d2
		}
		if d2 := f.chargeSocket(ns, t, bytes); d2 > d {
			d = d2
		}
	}
	return d
}

// headroom is the least Headroom among chiplet links a and b and, when
// sockets sa and sb differ, their links: 0 with a fault plan armed.
func (f *Star) headroom(a, b topology.ChipletID, sa, sb topology.SocketID, t int64) int64 {
	if f.faults != nil {
		return 0
	}
	room := min(f.chipletLinks[a].Headroom(t), f.chipletLinks[b].Headroom(t))
	if sa != sb {
		room = min(room, f.socketLinks[sa].Headroom(t), f.socketLinks[sb].Headroom(t))
	}
	return room
}

// TransferHeadroom is the room on the links ChargeTransfer charges.
func (f *Star) TransferHeadroom(src, dst topology.ChipletID, t int64) int64 {
	if src == dst {
		return math.MaxInt64
	}
	return f.headroom(src, dst, f.socketOf[src], f.socketOf[dst], t)
}

// MemoryHeadroom is the room on the links ChargeMemory charges.
func (f *Star) MemoryHeadroom(ch topology.ChipletID, n topology.NodeID, t int64) int64 {
	return f.headroom(ch, ch, f.socketOf[ch], f.topo.SocketOfNode(n), t)
}

// MessageDelay returns the latency + queueing cost of an explicit message of
// bytes from core src to core dst at time t (used by the RPC layer).
func (f *Star) MessageDelay(src, dst topology.CoreID, t, bytes int64) int64 {
	lat := f.topo.CASLatency(src, dst)
	sc, dc := f.topo.ChipletOf(src), f.topo.ChipletOf(dst)
	if sc != dc {
		// A browned-out link stretches message latency by the worst
		// degradation factor along the path: the two endpoint chiplet
		// links, and on cross-socket messages both socket links too.
		milli := f.faults.ChipletLinkMilli(sc, t)
		if m := f.faults.ChipletLinkMilli(dc, t); m > milli {
			milli = m
		}
		ss, ds := f.socketOf[sc], f.socketOf[dc]
		if ss != ds {
			if m := f.faults.SocketLinkMilli(ss, t); m > milli {
				milli = m
			}
			if m := f.faults.SocketLinkMilli(ds, t); m > milli {
				milli = m
			}
		}
		lat = lat * milli / 1000
	}
	q := f.ChargeTransfer(sc, dc, t, bytes)
	return lat + q
}

// Links enumerates the chiplet hub links (ccdN) then the socket links
// (socketN), matching telemetry label order.
func (f *Star) Links() []LinkInfo {
	out := make([]LinkInfo, 0, len(f.chipletLinks)+len(f.socketLinks))
	for i := range f.chipletLinks {
		ch := topology.ChipletID(i)
		out = append(out, LinkInfo{Name: "ccd" + strconv.Itoa(i), A: ch, B: ch, Socket: -1})
	}
	for i := range f.socketLinks {
		out = append(out, LinkInfo{Name: "socket" + strconv.Itoa(i), A: -1, B: -1, Socket: topology.SocketID(i)})
	}
	return out
}

// TransferRoute returns the link indices a src→dst transfer charges.
func (f *Star) TransferRoute(src, dst topology.ChipletID) []int {
	if src == dst {
		return nil
	}
	route := []int{int(src), int(dst)}
	ss, ds := f.socketOf[src], f.socketOf[dst]
	if ss != ds {
		base := len(f.chipletLinks)
		route = append(route, base+int(ss), base+int(ds))
	}
	return route
}

// LinkUtilMilli returns link i's current-window occupancy in milli-units.
func (f *Star) LinkUtilMilli(i int, t int64) int64 {
	if i < len(f.chipletLinks) {
		return f.chipletLinks[i].UtilMilli(t)
	}
	return f.socketLinks[i-len(f.chipletLinks)].UtilMilli(t)
}

// ChipletUtilMilli returns the occupancy of ch's hub link: in a star every
// transfer in or out of the chiplet crosses exactly that link.
func (f *Star) ChipletUtilMilli(ch topology.ChipletID, t int64) int64 {
	return f.chipletLinks[ch].UtilMilli(t)
}
