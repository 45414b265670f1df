// Package mem simulates the memory subsystem of a chiplet machine: a
// simulated address space with NUMA allocation policies (the set_mempolicy
// analog of Alg. 2) and per-node DRAM bandwidth accounting that produces
// queueing delays under contention — the mechanism behind the paper's
// "more cores, limited memory channels" bottleneck (§2.2).
package mem

import (
	"fmt"
	"sync"
	"sync/atomic"

	"charm/internal/topology"
)

// Addr is a simulated virtual address. The high bits carry the region index
// so that the home NUMA node of any address resolves in O(1).
type Addr uint64

const (
	regionShift = 40
	offsetMask  = (1 << regionShift) - 1
	maxRegions  = 1 << 16
	// PageSize is the granularity of NUMA placement decisions.
	PageSize = 4096
)

// Region returns the region index encoded in the address.
func (a Addr) Region() int { return int(a >> regionShift) }

// Offset returns the byte offset within the region.
func (a Addr) Offset() uint64 { return uint64(a) & offsetMask }

// Policy selects how pages of an allocation are assigned to NUMA nodes,
// mirroring Linux mempolicies.
type Policy uint8

const (
	// Bind places every page on the node given at allocation time
	// (MPOL_BIND, what Alg. 2 sets after a migration).
	Bind Policy = iota
	// Interleave round-robins pages across all nodes (MPOL_INTERLEAVE).
	Interleave
	// FirstTouch places each page on the node of the first core that
	// touches it (the Linux default).
	FirstTouch
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case Bind:
		return "bind"
	case Interleave:
		return "interleave"
	case FirstTouch:
		return "first-touch"
	default:
		return fmt.Sprintf("Policy(%d)", uint8(p))
	}
}

// region is one allocation.
type region struct {
	size   int64
	policy Policy
	node   topology.NodeID // Bind target
	nodes  int             // node count for Interleave
	// pages holds node+1 per page for FirstTouch (0 = untouched).
	pages []atomic.Int32
}

// Space is a simulated address space. It is safe for concurrent use.
type Space struct {
	topo *topology.Topology

	mu      sync.Mutex
	regions [maxRegions]atomic.Pointer[region]
	next    atomic.Int64 // next region index
	// free holds region indexes released by Free, reused by Alloc so
	// long-running workloads never exhaust the region table. Reuse means
	// a dangling Addr into a freed region can alias a new allocation,
	// exactly like recycled virtual memory.
	free []int64

	allocated atomic.Int64 // bytes currently allocated
}

// NewSpace creates an empty address space for the given machine.
func NewSpace(t *topology.Topology) *Space {
	return &Space{topo: t}
}

// Alloc reserves size bytes under the given policy. For Bind, node is the
// home node; for Interleave and FirstTouch it is ignored. It panics if the
// space of 2^16 regions is exhausted or size is not positive, which
// indicates a programming error in the workload.
func (s *Space) Alloc(size int64, p Policy, node topology.NodeID) Addr {
	if size <= 0 {
		panic(fmt.Sprintf("mem: Alloc size must be positive, got %d", size))
	}
	if p == Bind && (int(node) < 0 || int(node) >= s.topo.NumNodes()) {
		panic(fmt.Sprintf("mem: Bind to invalid node %d", node))
	}
	r := &region{size: size, policy: p, node: node, nodes: s.topo.NumNodes()}
	if p == FirstTouch {
		r.pages = make([]atomic.Int32, (size+PageSize-1)/PageSize)
	}
	s.mu.Lock()
	var idx int64
	if n := len(s.free); n > 0 {
		idx = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		idx = s.next.Add(1) - 1
	}
	s.mu.Unlock()
	if idx >= maxRegions {
		panic("mem: region space exhausted")
	}
	s.regions[idx].Store(r)
	s.allocated.Add(size)
	return Addr(uint64(idx) << regionShift)
}

// AllocLocal reserves size bytes bound to the given node. It is the common
// case used by NUMA-aware runtimes ("allocate where I run").
func (s *Space) AllocLocal(size int64, node topology.NodeID) Addr {
	return s.Alloc(size, Bind, node)
}

// Free releases the region containing addr. Accessing freed memory panics.
func (s *Space) Free(addr Addr) {
	idx := addr.Region()
	if idx < 0 || idx >= maxRegions || s.regions[idx].Load() == nil {
		panic(fmt.Sprintf("mem: Free of invalid address %#x", uint64(addr)))
	}
	r := s.regions[idx].Swap(nil)
	if r != nil {
		s.allocated.Add(-r.size)
		s.mu.Lock()
		s.free = append(s.free, int64(idx))
		s.mu.Unlock()
	}
}

// TryRebind is Rebind for callers holding possibly-stale addresses: it
// returns (0, false) when the region was freed or is not Bind-policied
// instead of panicking.
func (s *Space) TryRebind(addr Addr, node topology.NodeID) (int64, bool) {
	idx := addr.Region()
	if idx < 0 || idx >= maxRegions {
		return 0, false
	}
	r := s.regions[idx].Load()
	if r == nil || r.policy != Bind || int(node) < 0 || int(node) >= s.topo.NumNodes() {
		return 0, false
	}
	return s.Rebind(addr, node), true
}

// Rebind changes the home node of a Bind region (the migrate_pages analog:
// AsymSched moves memory together with threads). It returns the number of
// bytes whose home changed, or panics for non-Bind regions or invalid
// addresses.
func (s *Space) Rebind(addr Addr, node topology.NodeID) int64 {
	r := s.regions[addr.Region()].Load()
	if r == nil {
		panic(fmt.Sprintf("mem: Rebind of invalid address %#x", uint64(addr)))
	}
	if r.policy != Bind {
		panic(fmt.Sprintf("mem: Rebind requires a Bind region, have %v", r.policy))
	}
	if int(node) < 0 || int(node) >= s.topo.NumNodes() {
		panic(fmt.Sprintf("mem: Rebind to invalid node %d", node))
	}
	if r.node == node {
		return 0
	}
	// Swap in a copy so concurrent HomeOf readers see either node
	// consistently.
	nr := *r
	nr.node = node
	s.regions[addr.Region()].Store(&nr)
	return r.size
}

// HomeOf resolves the NUMA node that owns the page containing addr.
// accessor is the node of the touching core, consumed by FirstTouch on the
// first access to a page.
func (s *Space) HomeOf(addr Addr, accessor topology.NodeID) topology.NodeID {
	r := s.regions[addr.Region()].Load()
	if r == nil {
		panic(fmt.Sprintf("mem: access to unallocated address %#x", uint64(addr)))
	}
	off := addr.Offset()
	if off >= uint64(r.size) {
		panic(fmt.Sprintf("mem: access beyond region: offset %d, size %d", off, r.size))
	}
	switch r.policy {
	case Bind:
		return r.node
	case Interleave:
		return topology.NodeID((off / PageSize) % uint64(r.nodes))
	case FirstTouch:
		pg := off / PageSize
		if v := r.pages[pg].Load(); v != 0 {
			return topology.NodeID(v - 1)
		}
		// First touch: claim for the accessor. A racing claim wins
		// arbitrarily, as on real hardware.
		if r.pages[pg].CompareAndSwap(0, int32(accessor)+1) {
			return accessor
		}
		return topology.NodeID(r.pages[pg].Load() - 1)
	default:
		panic(fmt.Sprintf("mem: unknown policy %d", r.policy))
	}
}
