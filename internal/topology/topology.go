// Package topology models the physical layout of chiplet-based CPUs:
// sockets, NUMA nodes, chiplets (CCDs/CCXs), cores, the cache geometry
// attached to each level, and the latency classes between cores.
//
// The model follows the machines used in the CHARM paper (EuroSys'26):
// a dual-socket AMD EPYC Milan 7713 and a dual-socket Intel Xeon Platinum
// 8488C. Synthetic topologies are provided for tests.
package topology

import (
	"fmt"
	"strings"
)

// CoreID identifies a physical core, numbered densely from 0 across the
// whole machine: socket-major, then chiplet, then core-within-chiplet.
type CoreID int

// ChipletID identifies a chiplet (CCD), numbered densely across the machine.
type ChipletID int

// NodeID identifies a NUMA node, numbered densely across the machine.
type NodeID int

// SocketID identifies a CPU socket.
type SocketID int

// LatencyClass classifies the relative position of two cores; each class
// corresponds to one step in the core-to-core latency distribution of
// Fig. 3 in the paper.
type LatencyClass uint8

const (
	// SameCore is a degenerate class (a core communicating with itself).
	SameCore LatencyClass = iota
	// IntraChiplet covers cores sharing an L3 slice (~25 ns on Milan).
	IntraChiplet
	// InterChipletNear covers cores on different chiplets in the same
	// NUMA node whose CCDs share an I/O-die quadrant (~85 ns).
	InterChipletNear
	// InterChipletFar covers cores on different chiplets in the same NUMA
	// node across I/O-die quadrants (~155 ns).
	InterChipletFar
	// InterSocket covers cores on different sockets (>200 ns).
	InterSocket
)

// String returns the canonical name of the latency class.
func (c LatencyClass) String() string {
	switch c {
	case SameCore:
		return "same-core"
	case IntraChiplet:
		return "intra-chiplet"
	case InterChipletNear:
		return "inter-chiplet-near"
	case InterChipletFar:
		return "inter-chiplet-far"
	case InterSocket:
		return "inter-socket"
	default:
		return fmt.Sprintf("LatencyClass(%d)", uint8(c))
	}
}

// CostModel holds the latency (in nanoseconds) and bandwidth parameters of
// a machine. Latencies are per cache-line (64 B) service times observed by
// a load; bandwidths are bytes per nanosecond (= GB/s / 1.0).
type CostModel struct {
	// L1Hit is charged for accesses served by the (implicit) L1/L2 front
	// end when the line is resident in the core-private hierarchy.
	L1Hit int64
	// L2Hit is charged when the private L2 holds the line.
	L2Hit int64
	// L3LocalHit is charged when the chiplet-local L3 slice holds the line.
	L3LocalHit int64
	// L3RemoteNearHit / L3RemoteFarHit are cache-to-cache transfers from
	// another chiplet in the same NUMA node (near/far quadrant).
	L3RemoteNearHit int64
	L3RemoteFarHit  int64
	// L3RemoteSocketHit is a cache-to-cache transfer across sockets.
	L3RemoteSocketHit int64
	// DRAMLocal / DRAMRemote are row-buffer-miss DRAM latencies for the
	// local and the remote NUMA node.
	DRAMLocal  int64
	DRAMRemote int64

	// CAS ping-pong latencies per class, used for the Fig. 3 CDF.
	CASIntraChiplet int64
	CASInterNear    int64
	CASInterFar     int64
	CASInterSocket  int64

	// ChannelBandwidth is the sustainable bandwidth of one memory channel
	// in bytes/ns. FabricBandwidth is the per-chiplet link to the I/O die;
	// SocketBandwidth the inter-socket link (per direction).
	ChannelBandwidth float64
	FabricBandwidth  float64
	SocketBandwidth  float64

	// CoroutineSwitch and ThreadSwitch are the context-switch costs of a
	// user-level coroutine switch and an OS thread switch respectively.
	CoroutineSwitch int64
	ThreadSwitch    int64
	// ThreadSpawn is the cost of creating an OS thread (std::async model).
	ThreadSpawn int64
	// StealPenalty is charged to a worker for one (successful or not)
	// steal probe of a victim deque, before fabric distance costs.
	StealPenalty int64
}

// Topology describes one machine. All counts are per containing unit.
type Topology struct {
	Name string

	Sockets         int
	NodesPerSocket  int // NUMA nodes per socket (NPS1 => 1)
	ChipletsPerNode int // CCDs per NUMA node
	CoresPerChiplet int

	// QuadrantChiplets is the number of chiplets sharing an I/O-die
	// quadrant; chiplet pairs within a quadrant use the "near" latency.
	QuadrantChiplets int

	// SMTWays is the hardware threads per physical core (1 = no SMT).
	// The simulator's scheduling unit stays the physical core: co-locating
	// two workers on one core shares its private L2 and inflates their
	// costs (the contention §4.6 says CHARM avoids by treating the
	// physical core as the smallest scheduling unit).
	SMTWays int

	CacheLine    int64 // bytes, typically 64
	L2PerCore    int64 // bytes
	L3PerChiplet int64 // bytes
	L3Ways       int
	L2Ways       int

	ChannelsPerNode int // memory channels per NUMA node

	// Kinds assigns a ChipletKind to every chiplet, dense by ChipletID
	// across the machine. Empty means homogeneous: every chiplet is
	// KindFast and all kind multipliers are exactly 1000 (no arithmetic
	// change anywhere).
	Kinds []ChipletKind

	// GridRows x GridCols arranges each socket's chiplets in a grid for
	// grid-routed fabrics (mesh, flattened butterfly). Zero means the
	// fabric picks a near-square factorization itself.
	GridRows int
	GridCols int

	Cost CostModel
}

// Validate checks structural invariants and returns a descriptive error for
// the first violation found.
func (t *Topology) Validate() error {
	switch {
	case t.Sockets <= 0:
		return fmt.Errorf("topology %q: Sockets must be positive, got %d", t.Name, t.Sockets)
	case t.NodesPerSocket <= 0:
		return fmt.Errorf("topology %q: NodesPerSocket must be positive, got %d", t.Name, t.NodesPerSocket)
	case t.ChipletsPerNode <= 0:
		return fmt.Errorf("topology %q: ChipletsPerNode must be positive, got %d", t.Name, t.ChipletsPerNode)
	case t.CoresPerChiplet <= 0:
		return fmt.Errorf("topology %q: CoresPerChiplet must be positive, got %d", t.Name, t.CoresPerChiplet)
	case t.QuadrantChiplets <= 0:
		return fmt.Errorf("topology %q: QuadrantChiplets must be positive, got %d", t.Name, t.QuadrantChiplets)
	case t.CacheLine <= 0 || t.CacheLine&(t.CacheLine-1) != 0:
		return fmt.Errorf("topology %q: CacheLine must be a positive power of two, got %d", t.Name, t.CacheLine)
	case t.L2PerCore < 0 || t.L3PerChiplet <= 0:
		return fmt.Errorf("topology %q: cache sizes must be positive (L2=%d L3=%d)", t.Name, t.L2PerCore, t.L3PerChiplet)
	case t.L3Ways <= 0 || t.L2Ways <= 0:
		return fmt.Errorf("topology %q: associativities must be positive (L2Ways=%d L3Ways=%d)", t.Name, t.L2Ways, t.L3Ways)
	case t.ChannelsPerNode <= 0:
		return fmt.Errorf("topology %q: ChannelsPerNode must be positive, got %d", t.Name, t.ChannelsPerNode)
	case t.SMTWays < 0:
		return fmt.Errorf("topology %q: SMTWays must not be negative, got %d", t.Name, t.SMTWays)
	}
	if len(t.Kinds) != 0 && len(t.Kinds) != t.NumChiplets() {
		return fmt.Errorf("topology %q: Kinds must cover every chiplet (%d) or be empty, got %d",
			t.Name, t.NumChiplets(), len(t.Kinds))
	}
	for i, k := range t.Kinds {
		if k != KindFast && k != KindEfficient && k != KindAccel {
			return fmt.Errorf("topology %q: Kinds[%d] = %v is not a concrete chiplet kind", t.Name, i, k)
		}
	}
	if t.GridRows != 0 || t.GridCols != 0 {
		perSocket := t.NodesPerSocket * t.ChipletsPerNode
		if t.GridRows <= 0 || t.GridCols <= 0 || t.GridRows*t.GridCols != perSocket {
			return fmt.Errorf("topology %q: grid %dx%d must cover the %d chiplets per socket",
				t.Name, t.GridRows, t.GridCols, perSocket)
		}
	}
	return nil
}

// SMT returns the hardware threads per core, at least 1.
func (t *Topology) SMT() int {
	if t.SMTWays < 1 {
		return 1
	}
	return t.SMTWays
}

// NumThreads returns the total hardware thread count.
func (t *Topology) NumThreads() int { return t.NumCores() * t.SMT() }

// NumNodes returns the total number of NUMA nodes in the machine.
func (t *Topology) NumNodes() int { return t.Sockets * t.NodesPerSocket }

// NumChiplets returns the total number of chiplets in the machine.
func (t *Topology) NumChiplets() int { return t.NumNodes() * t.ChipletsPerNode }

// NumCores returns the total number of cores in the machine.
func (t *Topology) NumCores() int { return t.NumChiplets() * t.CoresPerChiplet }

// CoresPerNode returns the number of cores in one NUMA node.
func (t *Topology) CoresPerNode() int { return t.ChipletsPerNode * t.CoresPerChiplet }

// CoresPerSocket returns the number of cores in one socket.
func (t *Topology) CoresPerSocket() int { return t.NodesPerSocket * t.CoresPerNode() }

// ChipletOf returns the chiplet that hosts core c.
func (t *Topology) ChipletOf(c CoreID) ChipletID {
	return ChipletID(int(c) / t.CoresPerChiplet)
}

// NodeOfCore returns the NUMA node that hosts core c.
func (t *Topology) NodeOfCore(c CoreID) NodeID {
	return NodeID(int(c) / t.CoresPerNode())
}

// NodeOfChiplet returns the NUMA node that hosts chiplet ch.
func (t *Topology) NodeOfChiplet(ch ChipletID) NodeID {
	return NodeID(int(ch) / t.ChipletsPerNode)
}

// SocketOfCore returns the socket that hosts core c.
func (t *Topology) SocketOfCore(c CoreID) SocketID {
	return SocketID(int(c) / t.CoresPerSocket())
}

// SocketOfNode returns the socket that hosts NUMA node n.
func (t *Topology) SocketOfNode(n NodeID) SocketID {
	return SocketID(int(n) / t.NodesPerSocket)
}

// FirstCoreOf returns the lowest-numbered core on chiplet ch.
func (t *Topology) FirstCoreOf(ch ChipletID) CoreID {
	return CoreID(int(ch) * t.CoresPerChiplet)
}

// CoresOfChiplet returns all core IDs on chiplet ch in ascending order.
func (t *Topology) CoresOfChiplet(ch ChipletID) []CoreID {
	cores := make([]CoreID, t.CoresPerChiplet)
	base := int(ch) * t.CoresPerChiplet
	for i := range cores {
		cores[i] = CoreID(base + i)
	}
	return cores
}

// quadrantOf returns the I/O-die quadrant index of a chiplet within its node.
func (t *Topology) quadrantOf(ch ChipletID) int {
	local := int(ch) % t.ChipletsPerNode
	return local / t.QuadrantChiplets
}

// ClassOf returns the latency class between two cores.
func (t *Topology) ClassOf(a, b CoreID) LatencyClass {
	if a == b {
		return SameCore
	}
	if t.SocketOfCore(a) != t.SocketOfCore(b) {
		return InterSocket
	}
	ca, cb := t.ChipletOf(a), t.ChipletOf(b)
	if ca == cb {
		return IntraChiplet
	}
	if t.NodeOfChiplet(ca) == t.NodeOfChiplet(cb) && t.quadrantOf(ca) == t.quadrantOf(cb) {
		return InterChipletNear
	}
	return InterChipletFar
}

// CASLatency returns the modeled compare-and-swap ping-pong latency in
// nanoseconds between two cores (the Fig. 3 measurement).
func (t *Topology) CASLatency(a, b CoreID) int64 {
	switch t.ClassOf(a, b) {
	case SameCore:
		return t.Cost.L1Hit
	case IntraChiplet:
		return t.Cost.CASIntraChiplet
	case InterChipletNear:
		return t.Cost.CASInterNear
	case InterChipletFar:
		return t.Cost.CASInterFar
	default:
		return t.Cost.CASInterSocket
	}
}

// L3HitLatency returns the latency for core c loading a line held by the L3
// of chiplet owner.
func (t *Topology) L3HitLatency(c CoreID, owner ChipletID) int64 {
	ch := t.ChipletOf(c)
	if ch == owner {
		return t.Cost.L3LocalHit
	}
	if t.SocketOfNode(t.NodeOfChiplet(ch)) != t.SocketOfNode(t.NodeOfChiplet(owner)) {
		return t.Cost.L3RemoteSocketHit
	}
	if t.NodeOfChiplet(ch) == t.NodeOfChiplet(owner) && t.quadrantOf(ch) == t.quadrantOf(owner) {
		return t.Cost.L3RemoteNearHit
	}
	return t.Cost.L3RemoteFarHit
}

// DRAMLatency returns the latency for core c loading a line homed on NUMA
// node n (excluding bandwidth queueing delays).
func (t *Topology) DRAMLatency(c CoreID, n NodeID) int64 {
	if t.NodeOfCore(c) == n {
		return t.Cost.DRAMLocal
	}
	return t.Cost.DRAMRemote
}

// Scaled returns a copy of the topology with all cache capacities divided by
// factor (minimum one line per way per set). Scaling caches together with
// workload sizes preserves working-set-to-cache ratios while keeping
// simulations fast; see DESIGN.md §4.5.
func (t *Topology) Scaled(factor int64) *Topology {
	if factor <= 1 {
		cp := *t
		return &cp
	}
	cp := *t
	cp.Name = fmt.Sprintf("%s/scale%d", t.Name, factor)
	minCache := cp.CacheLine * int64(cp.L3Ways)
	cp.L3PerChiplet = maxInt64(cp.L3PerChiplet/factor, minCache)
	if cp.L2PerCore > 0 {
		cp.L2PerCore = maxInt64(cp.L2PerCore/factor, cp.CacheLine*int64(cp.L2Ways))
	}
	return &cp
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// String returns a one-line summary of the topology.
func (t *Topology) String() string {
	l3 := fmt.Sprintf("%d KiB", t.L3PerChiplet>>10)
	if t.L3PerChiplet >= 1<<20 {
		l3 = fmt.Sprintf("%d MiB", t.L3PerChiplet>>20)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d socket(s) x %d node(s) x %d chiplet(s) x %d core(s) = %d cores, L3 %s/chiplet, %d ch/node",
		t.Name, t.Sockets, t.NodesPerSocket, t.ChipletsPerNode, t.CoresPerChiplet,
		t.NumCores(), l3, t.ChannelsPerNode)
	return b.String()
}
