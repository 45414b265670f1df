package fabric

import (
	"fmt"
	"math"
	"strconv"

	"charm/internal/fault"
	"charm/internal/mem"
	"charm/internal/obs"
	"charm/internal/topology"
)

// routerHopNS is the per-router latency added for every hop beyond the
// two a hub fabric implicitly pays (source and destination links). Only
// routed fabrics pay it, so Star's numbers are untouched.
const routerHopNS = 10

// routed is a link-routed interconnect: each socket's chiplets form a NoC
// (mesh, ring, crossbar, or flattened butterfly) of point-to-point links,
// and sockets are joined by external links through a gateway chiplet.
// Every transfer walks a precomputed deterministic shortest-path route and
// charges each hop's bandwidth-window bucket; the transfer pays the worst
// per-hop queueing delay (hops overlap — the path is pipelined, not
// store-and-forward).
type routed struct {
	kind Kind
	topo *topology.Topology

	links []rlink
	// route[src][dst] lists the link indices a src→dst transfer charges
	// (nil on the diagonal).
	route [][][]int32
	// memRoute[ch][n] lists the links between chiplet ch and node n's
	// memory controller (empty when ch hosts the controller).
	memRoute [][][]int32
	// incident[ch] lists the links touching chiplet ch.
	incident [][]int32

	met    []linkMetrics // nil until Instrument
	faults *fault.Plan
}

// rlink is one point-to-point link.
type rlink struct {
	bucket *mem.TokenBucket
	name   string
	a, b   topology.ChipletID // endpoints; -1 for socket links
	socket topology.SocketID  // owning socket for external links, else -1
}

// newRouted builds a routed fabric of the given kind over t.
func newRouted(k Kind, t *topology.Topology, windowNS int64) *routed {
	f := &routed{kind: k, topo: t}
	cps := t.NodesPerSocket * t.ChipletsPerNode // chiplets per socket
	rows, cols := gridDims(t, cps)
	edges := nocEdges(k, cps, rows, cols)

	// Socket s's copy of local edge e is link s*len(edges)+e; the
	// external link of socket s follows at sockets*len(edges)+s.
	for s := 0; s < t.Sockets; s++ {
		base := topology.ChipletID(s * cps)
		for _, e := range edges {
			f.links = append(f.links, rlink{
				bucket: mem.NewTokenBucket(t.Cost.FabricBandwidth, windowNS),
				name:   fmt.Sprintf("s%dl%d-%d", s, e[0], e[1]),
				a:      base + topology.ChipletID(e[0]),
				b:      base + topology.ChipletID(e[1]),
				socket: -1,
			})
		}
	}
	for s := 0; s < t.Sockets; s++ {
		f.links = append(f.links, rlink{
			bucket: mem.NewTokenBucket(t.Cost.SocketBandwidth, windowNS),
			name:   "socket" + strconv.Itoa(s),
			a:      -1, b: -1,
			socket: topology.SocketID(s),
		})
	}

	local := localPaths(cps, edges)
	f.route = f.buildRoutes(cps, len(edges), local)
	f.memRoute = f.buildMemRoutes(cps, len(edges), local)
	f.incident = make([][]int32, t.NumChiplets())
	for i, l := range f.links {
		if l.socket >= 0 {
			continue
		}
		f.incident[l.a] = append(f.incident[l.a], int32(i))
		f.incident[l.b] = append(f.incident[l.b], int32(i))
	}
	return f
}

// gridDims returns the per-socket chiplet grid, honouring the topology's
// declared arrangement and defaulting to the near-square factorization.
func gridDims(t *topology.Topology, cps int) (rows, cols int) {
	if t.GridRows > 0 && t.GridCols > 0 {
		return t.GridRows, t.GridCols
	}
	r := 1
	for i := 1; i*i <= cps; i++ {
		if cps%i == 0 {
			r = i
		}
	}
	return r, cps / r
}

// nocEdges returns the undirected local edge list (a < b) of one socket's
// NoC for the kind.
func nocEdges(k Kind, cps, rows, cols int) [][2]int {
	var edges [][2]int
	switch k {
	case KindMesh:
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				i := r*cols + c
				if c+1 < cols {
					edges = append(edges, [2]int{i, i + 1})
				}
				if r+1 < rows {
					edges = append(edges, [2]int{i, i + cols})
				}
			}
		}
	case KindRing:
		for i := 0; i+1 < cps; i++ {
			edges = append(edges, [2]int{i, i + 1})
		}
		if cps >= 3 {
			edges = append(edges, [2]int{0, cps - 1})
		}
	case KindCrossbar:
		for i := 0; i < cps; i++ {
			for j := i + 1; j < cps; j++ {
				edges = append(edges, [2]int{i, j})
			}
		}
	case KindFlatFly:
		// Full connectivity along each grid dimension: every pair in a
		// row and every pair in a column (the two sets are disjoint).
		for r := 0; r < rows; r++ {
			for c1 := 0; c1 < cols; c1++ {
				for c2 := c1 + 1; c2 < cols; c2++ {
					edges = append(edges, [2]int{r*cols + c1, r*cols + c2})
				}
			}
		}
		for c := 0; c < cols; c++ {
			for r1 := 0; r1 < rows; r1++ {
				for r2 := r1 + 1; r2 < rows; r2++ {
					edges = append(edges, [2]int{r1*cols + c, r2*cols + c})
				}
			}
		}
	default:
		panic("fabric: newRouted called with non-routed kind " + k.String())
	}
	return edges
}

// localPaths runs a BFS per source over the local NoC and returns, for
// every (src, dst) pair, the local edge indices of the shortest path.
// Neighbors are expanded in ascending order, so tie-breaks — and therefore
// routes, charges, and replays — are deterministic.
func localPaths(cps int, edges [][2]int) [][][]int32 {
	neigh := make([][]int, cps) // ascending by construction order below
	edgeAt := make([][]int32, cps)
	for i := range edgeAt {
		edgeAt[i] = make([]int32, cps)
		for j := range edgeAt[i] {
			edgeAt[i][j] = -1
		}
	}
	for ei, e := range edges {
		edgeAt[e[0]][e[1]], edgeAt[e[1]][e[0]] = int32(ei), int32(ei)
	}
	for i := 0; i < cps; i++ {
		for j := 0; j < cps; j++ {
			if edgeAt[i][j] >= 0 {
				neigh[i] = append(neigh[i], j)
			}
		}
	}

	paths := make([][][]int32, cps)
	parent := make([]int, cps)
	queue := make([]int, 0, cps)
	for src := 0; src < cps; src++ {
		for i := range parent {
			parent[i] = -1
		}
		parent[src] = src
		queue = append(queue[:0], src)
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, nb := range neigh[cur] {
				if parent[nb] < 0 {
					parent[nb] = cur
					queue = append(queue, nb)
				}
			}
		}
		paths[src] = make([][]int32, cps)
		for dst := 0; dst < cps; dst++ {
			if dst == src {
				continue
			}
			if parent[dst] < 0 {
				panic("fabric: NoC is disconnected")
			}
			var rev []int32
			for cur := dst; cur != src; cur = parent[cur] {
				rev = append(rev, edgeAt[parent[cur]][cur])
			}
			path := make([]int32, len(rev))
			for i := range rev {
				path[i] = rev[len(rev)-1-i]
			}
			paths[src][dst] = path
		}
	}
	return paths
}

// buildRoutes composes the chiplet-to-chiplet routes: the local path
// within a socket, or local paths to each socket's gateway (local chiplet
// 0) joined by both external links for cross-socket transfers.
func (f *routed) buildRoutes(cps, lps int, local [][][]int32) [][][]int32 {
	t := f.topo
	nch := t.NumChiplets()
	sockBase := t.Sockets * lps
	route := make([][][]int32, nch)
	for src := 0; src < nch; src++ {
		route[src] = make([][]int32, nch)
		ss, sl := src/cps, src%cps
		for dst := 0; dst < nch; dst++ {
			if dst == src {
				continue
			}
			ds, dl := dst/cps, dst%cps
			var path []int32
			if ss == ds {
				path = offsetPath(local[sl][dl], ss*lps)
			} else {
				path = offsetPath(local[sl][0], ss*lps)
				path = append(path, int32(sockBase+ss), int32(sockBase+ds))
				path = append(path, offsetPath(local[0][dl], ds*lps)...)
			}
			route[src][dst] = path
		}
	}
	return route
}

// buildMemRoutes composes chiplet-to-memory-controller routes. Node n's
// controller sits at the node's first chiplet's router.
func (f *routed) buildMemRoutes(cps, lps int, local [][][]int32) [][][]int32 {
	t := f.topo
	nch, nn := t.NumChiplets(), t.NumNodes()
	sockBase := t.Sockets * lps
	mr := make([][][]int32, nch)
	for ch := 0; ch < nch; ch++ {
		mr[ch] = make([][]int32, nn)
		cs, cl := ch/cps, ch%cps
		for n := 0; n < nn; n++ {
			home := int(t.ChipletsOfNode(topology.NodeID(n))[0])
			hs, hl := home/cps, home%cps
			var path []int32
			if cs == hs {
				path = offsetPath(local[cl][hl], cs*lps)
			} else {
				path = offsetPath(local[cl][0], cs*lps)
				path = append(path, int32(sockBase+cs), int32(sockBase+hs))
				path = append(path, offsetPath(local[0][hl], hs*lps)...)
			}
			mr[ch][n] = path
		}
	}
	return mr
}

// offsetPath maps a local edge path onto one socket's link indices. It
// always copies, so append on the result never aliases the local table.
func offsetPath(local []int32, off int) []int32 {
	out := make([]int32, len(local))
	for i, e := range local {
		out[i] = e + int32(off)
	}
	return out
}

// Kind identifies the interconnect topology.
func (f *routed) Kind() Kind { return f.kind }

// SetFaultPlan arms a compiled fault plan (nil restores healthy behaviour).
func (f *routed) SetFaultPlan(p *fault.Plan) { f.faults = p }

// Instrument registers per-link telemetry with reg, labelled by link name.
func (f *routed) Instrument(reg *obs.Registry) {
	f.met = make([]linkMetrics, len(f.links))
	for i := range f.links {
		l := obs.Labels{"link": f.links[i].name}
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

// milliOf returns the fault degradation factor of one link at time t: a
// NoC link inherits the worse of its endpoint chiplets' factors, an
// external link its socket's.
func (f *routed) milliOf(li int32, t int64) int64 {
	l := &f.links[li]
	if l.socket >= 0 {
		return f.faults.SocketLinkMilli(l.socket, t)
	}
	m := f.faults.ChipletLinkMilli(l.a, t)
	if m2 := f.faults.ChipletLinkMilli(l.b, t); m2 > m {
		m = m2
	}
	return m
}

// chargePath charges every link on the path and returns the worst per-hop
// queueing delay.
func (f *routed) chargePath(path []int32, t, bytes int64) int64 {
	var d int64
	for _, li := range path {
		dd := f.links[li].bucket.ChargeScaled(t, bytes, f.milliOf(li, t))
		if f.met != nil {
			f.met[li].record(bytes, dd)
		}
		if dd > d {
			d = dd
		}
	}
	return d
}

// ChargeTransfer accounts a cache-to-cache transfer along the src→dst
// route and returns the worst per-hop queueing delay.
func (f *routed) ChargeTransfer(src, dst topology.ChipletID, t, bytes int64) int64 {
	if src == dst {
		return 0
	}
	return f.chargePath(f.route[src][dst], t, bytes)
}

// ChargeMemory accounts a DRAM transfer between chiplet ch and node n's
// memory controller. A chiplet co-located with the controller pays no
// fabric charge (DRAM channel bandwidth is charged separately).
func (f *routed) ChargeMemory(ch topology.ChipletID, n topology.NodeID, t, bytes int64) int64 {
	return f.chargePath(f.memRoute[ch][n], t, bytes)
}

// pathHeadroom is the least Headroom among the path's links: 0 with a
// fault plan armed, unbounded for an empty path.
func (f *routed) pathHeadroom(path []int32, t int64) int64 {
	if f.faults != nil {
		return 0
	}
	room := int64(math.MaxInt64)
	for _, li := range path {
		room = min(room, f.links[li].bucket.Headroom(t))
	}
	return room
}

// TransferHeadroom is the room on the src→dst route.
func (f *routed) TransferHeadroom(src, dst topology.ChipletID, t int64) int64 {
	return f.pathHeadroom(f.route[src][dst], t)
}

// MemoryHeadroom is the room between ch and node n's memory controller.
func (f *routed) MemoryHeadroom(ch topology.ChipletID, n topology.NodeID, t int64) int64 {
	return f.pathHeadroom(f.memRoute[ch][n], t)
}

// MessageDelay returns the latency + queueing cost of an explicit message:
// the topological latency stretched by the worst fault factor along the
// route, plus router latency for every hop beyond the hub model's two,
// plus the route's queueing delay.
func (f *routed) MessageDelay(src, dst topology.CoreID, t, bytes int64) int64 {
	lat := f.topo.CASLatency(src, dst)
	sc, dc := f.topo.ChipletOf(src), f.topo.ChipletOf(dst)
	if sc != dc {
		path := f.route[sc][dc]
		milli := int64(1000)
		for _, li := range path {
			if m := f.milliOf(li, t); m > milli {
				milli = m
			}
		}
		lat = lat * milli / 1000
		if h := len(path); h > 2 {
			lat += int64(h-2) * routerHopNS
		}
	}
	return lat + f.ChargeTransfer(sc, dc, t, bytes)
}

// Links enumerates the fabric's links in telemetry order.
func (f *routed) Links() []LinkInfo {
	out := make([]LinkInfo, len(f.links))
	for i, l := range f.links {
		out[i] = LinkInfo{Name: l.name, A: l.a, B: l.b, Socket: l.socket}
	}
	return out
}

// TransferRoute returns the link indices a src→dst transfer charges.
func (f *routed) TransferRoute(src, dst topology.ChipletID) []int {
	if src == dst {
		return nil
	}
	path := f.route[src][dst]
	out := make([]int, len(path))
	for i, li := range path {
		out[i] = int(li)
	}
	return out
}

// LinkUtilMilli returns link i's current-window occupancy in milli-units.
func (f *routed) LinkUtilMilli(i int, t int64) int64 {
	return f.links[i].bucket.UtilMilli(t)
}

// ChipletUtilMilli returns the occupancy of ch's hottest incident link.
func (f *routed) ChipletUtilMilli(ch topology.ChipletID, t int64) int64 {
	var m int64
	for _, li := range f.incident[ch] {
		if u := f.links[li].bucket.UtilMilli(t); u > m {
			m = u
		}
	}
	return m
}
