// Coherence directory: the simulated I/O-die probe filter.
//
// Real chiplet CPUs do not broadcast-snoop every L3 slice on a miss; the
// I/O die keeps a directory (AMD's probe filter, Intel's snoop filter)
// mapping lines to the set of chiplets that hold them, so a miss probes
// only actual holders and a write invalidates only actual sharers. The
// directory here plays the same role for the simulator's hot path: it
// replaces the O(chiplets × ways) tag-array scans in closestHolder and
// invalidateOthers with an O(holders) walk over a presence bitmask, and
// the L2-inclusivity check with a single bit test.
//
// Layout: two levels, tuned so the steady-state fast path takes no
// exclusive lock and performs one atomic word operation per event.
//
//   - Lines group into pages of dirPageLines consecutive lines. A page is
//     its key (line >> dirPageShift, immutable once the page is created)
//     followed by a flat array of per-line presence bitmasks (uint64, so
//     any topology up to 64 chiplets is covered — every preset is 16 or
//     fewer), each updated with lock-free atomics. Contiguous streaming
//     runs therefore walk one hot page sequentially instead of hashing
//     every line.
//   - Page keys hash onto dirShards shards, each a small RWMutex-guarded
//     map from page key to page. Lookups take the read lock only; the
//     write lock is taken once per page lifetime (creation) and on reset.
//     Sharding keeps concurrent simulated cores from serializing on one
//     lock even when they fault pages in simultaneously.
//   - Each simulated core keeps two one-entry page caches in front of the
//     registry (dirCache): one for the line being accessed, one for the
//     capacity victims its fills push out. Every directory operation goes
//     through pageFor, so a streaming sweep takes a shard lock once per
//     page per stream, not once per evicted line.
//
// Memory: pages are created on first touch of their address range and
// never reclaimed, so the directory footprint is
// touched-address-space/8 — a few MB for the scaled experiments, tens of
// MB for paper-sized runs — and the live-bit population is bounded by the
// machine's aggregate L3 capacity.
//
// Exactness: the directory is a mirror of L3 tag-array state, not an
// approximation. Every mutation of an L3 goes through exactly one of
// Fill (which reports its victim exactly once, see cache.Insert),
// Invalidate, or Clear, and the Machine updates the directory at each of
// those points with an atomic read-modify-write of the line's mask. Under
// a single-threaded access sequence the directory is therefore
// bit-identical to a brute-force scan of the tag arrays
// (TestDirectoryMatchesScanState proves this); under concurrent access it
// tolerates the same benign races the lock-free tag arrays already
// tolerate — a racing insert pair on one cache set can leave a stale
// presence bit, which perturbs one transfer-latency estimate and nothing
// else, the same class of statistically irrelevant perturbation as the
// documented lost-LRU-update race.
package sim

import (
	"sync"
	"sync/atomic"
)

// dirShardBits selects 128 shards for the page maps: enough to spread any
// preset's core count with negligible collision, small enough to stay
// cache-resident.
const dirShardBits = 7

// dirShards is the shard count (a power of two so shard selection is a
// multiply-shift, no division).
const dirShards = 1 << dirShardBits

// dirPageShift selects 256-line pages (16 KiB of simulated address space,
// 2 KiB of directory): big enough that streaming runs amortize the page
// lookup, small enough that sparse access patterns don't balloon memory.
const dirPageShift = 8

// dirPageLines is the number of lines per page.
const dirPageLines = 1 << dirPageShift

// maxDirChiplets is the widest topology a uint64 presence mask covers.
const maxDirChiplets = 64

// dirPage holds the presence bitmasks of dirPageLines consecutive lines.
// key is the page's line >> dirPageShift, written once before the page is
// published, so a pointer to a page carries its own identity.
type dirPage struct {
	key   uint64
	masks [dirPageLines]atomic.Uint64
}

// dirShard is one lock domain of the page registry, padded so
// neighbouring shards' locks do not false-share.
type dirShard struct {
	mu    sync.RWMutex
	pages map[uint64]*dirPage
	_     [64 - 24 - 8]byte
}

// directory maps cache-line numbers to per-chiplet presence bitmasks.
type directory struct {
	shards [dirShards]dirShard
}

// newDirectory builds an empty directory.
func newDirectory() *directory {
	d := &directory{}
	for i := range d.shards {
		d.shards[i].pages = make(map[uint64]*dirPage, 8)
	}
	return d
}

// dirCache is a one-entry page cache owned by a single simulated core.
// Pages are created once and never freed, so a cached pointer stays
// valid for the machine's whole run. It turns the per-access page lookup
// into a key compare for the common case (consecutive or repeated lines).
// The entry is one word — the key lives in the page — so SMT siblings
// sharing a core's scratch can never pair one page's key with another's
// pointer and write presence bits into the wrong page.
type dirCache struct {
	p atomic.Pointer[dirPage]
}

// page returns the page covering line, creating it when create is set and
// returning nil otherwise. Fibonacci hashing spreads page keys over the
// shards; the create path double-checks under the write lock.
func (d *directory) page(line uint64, create bool) *dirPage {
	pk := line >> dirPageShift
	s := &d.shards[(pk*0x9E3779B97F4A7C15)>>(64-dirShardBits)]
	s.mu.RLock()
	p := s.pages[pk]
	s.mu.RUnlock()
	if p != nil || !create {
		return p
	}
	s.mu.Lock()
	if p = s.pages[pk]; p == nil {
		p = &dirPage{key: pk}
		s.pages[pk] = p
	}
	s.mu.Unlock()
	return p
}

// pageFor is page with a per-core cache entry in front: the hot path of
// every directory operation.
func (d *directory) pageFor(line uint64, create bool, c *dirCache) *dirPage {
	if p := c.p.Load(); p != nil && p.key == line>>dirPageShift {
		return p
	}
	p := d.page(line, create)
	if p != nil {
		c.p.Store(p)
	}
	return p
}

// slot returns the mask word of line within page p.
func (p *dirPage) slot(line uint64) *atomic.Uint64 {
	return &p.masks[line&(dirPageLines-1)]
}

// add records that chiplet ch now holds line. c is the calling core's
// page cache.
func (d *directory) add(line uint64, ch int, c *dirCache) {
	atomicOr(d.pageFor(line, true, c).slot(line), 1<<uint(ch))
}

// remove records that chiplet ch no longer holds line (a capacity
// eviction). Removing an absent bit is a no-op. c is the calling core's
// victim entry, kept apart from the one its fills use.
func (d *directory) remove(line uint64, ch int, c *dirCache) {
	if p := d.pageFor(line, false, c); p != nil {
		atomicAndNot(p.slot(line), 1<<uint(ch))
	}
}

// has reports whether chiplet ch holds line — the O(1) replacement for the
// L2-inclusivity Contains probe.
func (d *directory) has(line uint64, ch int, c *dirCache) bool {
	return d.holders(line, c)&(1<<uint(ch)) != 0
}

// holders returns the presence mask of line.
func (d *directory) holders(line uint64, c *dirCache) uint64 {
	if p := d.pageFor(line, false, c); p != nil {
		return p.slot(line).Load()
	}
	return 0
}

// takeOthers atomically clears every holder of line except self and
// returns the mask of cleared bits — the ownership-upgrade step of a
// write. The caller invalidates the corresponding tag arrays.
func (d *directory) takeOthers(line uint64, self int, c *dirCache) uint64 {
	p := d.pageFor(line, false, c)
	if p == nil {
		return 0
	}
	w := p.slot(line)
	selfBit := uint64(1) << uint(self)
	for {
		v := w.Load()
		others := v &^ selfBit
		if others == 0 {
			return 0
		}
		if w.CompareAndSwap(v, v&selfBit) {
			return others
		}
	}
}

// forEach calls fn for every line with a non-empty presence mask
// (diagnostics and tests).
func (d *directory) forEach(fn func(line, mask uint64)) {
	for i := range d.shards {
		s := &d.shards[i]
		s.mu.RLock()
		for pk, p := range s.pages {
			for j := range p.masks {
				if v := p.masks[j].Load(); v != 0 {
					fn(pk<<dirPageShift|uint64(j), v)
				}
			}
		}
		s.mu.RUnlock()
	}
}

// lines returns the number of tracked lines (diagnostics and tests).
func (d *directory) lines() int {
	n := 0
	d.forEach(func(uint64, uint64) { n++ })
	return n
}

// atomicOr sets bits in w atomically. (atomic.Uint64.Or needs go 1.23;
// the module targets 1.22, so these are CAS loops — uncontended they cost
// the same one RMW.)
func atomicOr(w *atomic.Uint64, bits uint64) {
	for {
		v := w.Load()
		if v&bits == bits || w.CompareAndSwap(v, v|bits) {
			return
		}
	}
}

// atomicAndNot clears bits in w atomically.
func atomicAndNot(w *atomic.Uint64, bits uint64) {
	for {
		v := w.Load()
		if v&bits == 0 || w.CompareAndSwap(v, v&^bits) {
			return
		}
	}
}
