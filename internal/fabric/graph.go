package fabric

import (
	"fmt"
	"strconv"

	"charm/internal/mem"
	"charm/internal/topology"
)

// routeTable holds one route (a list of link indices) per (row, col) pair
// in a single array, appended row by row: rows*cols+1 offsets, then the
// routes back to back, so route r is data[data[r]:data[r+1]].
type routeTable struct {
	cols, n int // n counts the routes appended so far
	data    []int32
}

// newRouteTable sizes the array for routes of size links in total.
func newRouteTable(rows, cols, size int) routeTable {
	data := make([]int32, rows*cols+1, rows*cols+1+size)
	data[0] = int32(len(data))
	return routeTable{cols: cols, data: data}
}

// add appends link li to the route being built.
func (rt *routeTable) add(li int) { rt.data = append(rt.data, int32(li)) }

// end closes the route being built: the links added since the last end.
func (rt *routeTable) end() {
	rt.n++
	rt.data[rt.n] = int32(len(rt.data))
}

// at returns the route of pair (row, col).
func (rt *routeTable) at(row, col int) []int32 {
	r := row*rt.cols + col
	return rt.data[rt.data[r]:rt.data[r+1]]
}

// addLink appends one link with its own bandwidth-window bucket.
func (f *Fabric) addLink(a, b topology.ChipletID, socket topology.SocketID, bytesPerNS float64, windowNS int64) {
	f.links = append(f.links, link{bucket: mem.NewTokenBucket(bytesPerNS, windowNS), a: a, b: b, socket: socket})
}

// addSocketLinks appends socket s's external link as link base+s, after
// every on-package link (base = the number of on-package links).
func (f *Fabric) addSocketLinks(windowNS int64) {
	for s := 0; s < f.topo.Sockets; s++ {
		f.addLink(-1, -1, topology.SocketID(s), f.topo.Cost.SocketBandwidth, windowNS)
	}
}

// linkName is link i's telemetry label: ccdN for chiplet N's hub link,
// socketS for socket S's external link, and sSlA-B for the NoC edge
// between socket S's local chiplets A and B.
func (f *Fabric) linkName(i int) string {
	l := &f.links[i]
	switch {
	case l.socket >= 0:
		return "socket" + strconv.Itoa(int(l.socket))
	case l.hub():
		return "ccd" + strconv.Itoa(int(l.a))
	}
	cps := f.topo.NodesPerSocket * f.topo.ChipletsPerNode
	s := int(l.a) / cps
	return fmt.Sprintf("s%dl%d-%d", s, int(l.a)-s*cps, int(l.b)-s*cps)
}

// buildHub builds the star: link ch (ccdN) joins chiplet ch to its socket's
// I/O die, and link nch+s is socket s's external link. A transfer charges
// both chiplets' links, plus both socket links when it crosses sockets; a
// memory access charges the chiplet's link, plus both socket links when the
// node sits on the other socket.
func (f *Fabric) buildHub(windowNS int64) {
	t := f.topo
	nch, nn := t.NumChiplets(), t.NumNodes()
	cps := t.NodesPerSocket * t.ChipletsPerNode // chiplets per socket
	f.links = make([]link, 0, nch+t.Sockets)
	for ch := 0; ch < nch; ch++ {
		f.addLink(topology.ChipletID(ch), topology.ChipletID(ch), -1, t.Cost.FabricBandwidth, windowNS)
	}
	f.addSocketLinks(windowNS)

	f.routes = newRouteTable(nch, nch+nn, 4*nch*(nch+nn))
	cross := func(a, b int) {
		if a != b {
			f.routes.add(nch + a)
			f.routes.add(nch + b)
		}
	}
	for src := 0; src < nch; src++ {
		for dst := 0; dst < nch; dst++ {
			if dst != src {
				f.routes.add(src)
				f.routes.add(dst)
				cross(src/cps, dst/cps)
			}
			f.routes.end()
		}
		for n := 0; n < nn; n++ {
			f.routes.add(src)
			cross(src/cps, n/t.NodesPerSocket)
			f.routes.end()
		}
	}
}

// buildNoC builds a NoC per socket: socket s's copy of local edge e is link
// s*len(edges)+e, and the external links follow. A route is the local
// shortest path within a socket, or local paths to each socket's gateway
// (local chiplet 0) joined by both external links. Node n's memory
// controller sits at the router of the node's first chiplet.
func (f *Fabric) buildNoC(windowNS int64) {
	t := f.topo
	nch, nn := t.NumChiplets(), t.NumNodes()
	cps := t.NodesPerSocket * t.ChipletsPerNode
	rows, cols := gridDims(t, cps)
	edges := nocEdges(f.kind, cps, rows, cols)
	lps := len(edges) // links per socket
	f.links = make([]link, 0, t.Sockets*(lps+1))
	for s := 0; s < t.Sockets; s++ {
		base := topology.ChipletID(s * cps)
		for _, e := range edges {
			f.addLink(base+topology.ChipletID(e[0]), base+topology.ChipletID(e[1]), -1, t.Cost.FabricBandwidth, windowNS)
		}
	}
	f.addSocketLinks(windowNS)

	local := localPaths(cps, edges)
	longest := 0
	for _, row := range local {
		for _, p := range row {
			longest = max(longest, len(p))
		}
	}
	maxLen := 2*longest + 2 // out to the gateway, both socket links, in from the gateway
	f.routes = newRouteTable(nch, nch+nn, maxLen*nch*(nch+nn))
	path := func(a, b int) {
		as, al, bs, bl := a/cps, a%cps, b/cps, b%cps
		onSocket := func(s int, p []int32) {
			for _, e := range p {
				f.routes.add(s*lps + int(e))
			}
		}
		if as == bs {
			onSocket(as, local[al][bl])
		} else {
			onSocket(as, local[al][0])
			f.routes.add(t.Sockets*lps + as)
			f.routes.add(t.Sockets*lps + bs)
			onSocket(bs, local[0][bl])
		}
		f.routes.end()
	}
	for src := 0; src < nch; src++ {
		for dst := 0; dst < nch; dst++ {
			path(src, dst)
		}
		for n := 0; n < nn; n++ {
			path(src, n*t.ChipletsPerNode)
		}
	}
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
		panic("fabric: no NoC for kind " + k.String())
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
