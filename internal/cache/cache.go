// Package cache implements the set-associative cache structures of the
// simulated machine: core-private L2s and chiplet-local L3 slices.
//
// Tag arrays use atomics so concurrent simulated cores can probe and fill
// without locks; a lost LRU-update race merely perturbs replacement, which
// is statistically irrelevant. Set sampling (DESIGN.md §4.1) shrinks the
// simulated tag arrays: a cache configured with sample shift s holds
// capacity/2^s lines and is probed only for lines whose index is a multiple
// of 2^s, the classic set-sampling technique from architecture simulation.
package cache

import (
	"fmt"
	"sync/atomic"
)

// LineShift is log2 of the cache line size (64 B).
const LineShift = 6

// LineSize is the cache line size in bytes.
const LineSize = 1 << LineShift

// way is one slot of a set: an atomically updated (tag, lastUse) pair.
// tag 0 means empty; stored tags are line+1.
type way struct {
	tag atomic.Uint64
	use atomic.Int64
}

// Cache is a set-associative cache over line numbers (addr >> LineShift).
// It is safe for concurrent use.
type Cache struct {
	sets    []way // numSets * ways, row-major
	numSets int
	ways    int
	// sampleShift: only lines with line % 2^sampleShift == 0 belong here.
	sampleShift uint

	hits   atomic.Int64
	misses atomic.Int64
	evicts atomic.Int64
}

// New builds a cache of capacityBytes with the given associativity,
// simulating only 1/2^sampleShift of its sets. Capacity is rounded down to
// a whole number of sets; at least one set is always simulated.
func New(capacityBytes int64, ways int, sampleShift uint) *Cache {
	if ways <= 0 {
		panic(fmt.Sprintf("cache: ways must be positive, got %d", ways))
	}
	if capacityBytes <= 0 {
		panic(fmt.Sprintf("cache: capacity must be positive, got %d", capacityBytes))
	}
	lines := capacityBytes >> LineShift
	sets := int(lines) / ways >> sampleShift
	if sets < 1 {
		sets = 1
	}
	return &Cache{
		sets:        make([]way, sets*ways),
		numSets:     sets,
		ways:        ways,
		sampleShift: sampleShift,
	}
}

// setOf maps a sampled line to its set index. The sample bits are removed
// first so sampled lines spread over all simulated sets.
func (c *Cache) setOf(line uint64) int {
	return int((line >> c.sampleShift) % uint64(c.numSets))
}

// Lookup probes for line; on a hit it refreshes the LRU stamp with now and
// returns true. The caller must only pass sampled lines.
func (c *Cache) Lookup(line uint64, now int64) bool {
	tag := line + 1
	base := c.setOf(line) * c.ways
	for i := 0; i < c.ways; i++ {
		w := &c.sets[base+i]
		if w.tag.Load() == tag {
			w.use.Store(now)
			c.hits.Add(1)
			return true
		}
	}
	c.misses.Add(1)
	return false
}

// Touch is Lookup batched n times: on a hit it refreshes the LRU stamp with
// now (the stamp of the batch's final access) and adds n to the hit
// counter, leaving the array in exactly the state n consecutive Lookups at
// increasing times ending at now would have. It returns false — recording
// nothing — when the line is absent, so a caller batching repeat accesses
// can detect a concurrent invalidation and fall back to per-access replay.
func (c *Cache) Touch(line uint64, now int64, n int64) bool {
	tag := line + 1
	base := c.setOf(line) * c.ways
	for i := 0; i < c.ways; i++ {
		w := &c.sets[base+i]
		if w.tag.Load() == tag {
			w.use.Store(now)
			c.hits.Add(n)
			return true
		}
	}
	return false
}

// Contains probes for line without touching LRU state or hit statistics.
func (c *Cache) Contains(line uint64) bool {
	tag := line + 1
	base := c.setOf(line) * c.ways
	for i := 0; i < c.ways; i++ {
		if c.sets[base+i].tag.Load() == tag {
			return true
		}
	}
	return false
}

// Insert places line into its set, evicting the LRU way if the set is full.
// It returns the evicted line and true when an eviction happened. Inserting
// a line that is already present refreshes it instead.
//
// Eviction reporting is exact: the victim tag is claimed with an atomic
// swap, so every line that leaves the array is returned to exactly one
// caller — the coherence directory in package sim mirrors cache contents
// from these notifications and must never double-count or miss a victim.
func (c *Cache) Insert(line uint64, now int64) (evicted uint64, ok bool) {
	tag := line + 1
	base := c.setOf(line) * c.ways
	victim := base
	victimUse := int64(1<<63 - 1)
	for i := 0; i < c.ways; i++ {
		w := &c.sets[base+i]
		t := w.tag.Load()
		if t == tag {
			w.use.Store(now)
			return 0, false
		}
		if t == 0 {
			// Empty way: claim it; on a lost race keep scanning.
			if w.tag.CompareAndSwap(0, tag) {
				w.use.Store(now)
				return 0, false
			}
			if w.tag.Load() == tag {
				w.use.Store(now)
				return 0, false
			}
		}
		if u := w.use.Load(); u < victimUse {
			victimUse = u
			victim = base + i
		}
	}
	evicted, ok = c.sets[victim].replace(tag, now)
	if ok {
		c.evicts.Add(1)
	}
	return evicted, ok
}

// replace puts tag into way w and reports the line it displaced, if any;
// the caller counts the eviction. The swap is what makes eviction
// reporting exact (see Insert).
func (w *way) replace(tag uint64, now int64) (evicted uint64, ok bool) {
	old := w.tag.Swap(tag)
	w.use.Store(now)
	if old == 0 || old == tag {
		return 0, false
	}
	return old - 1, true
}

// Tally collects the statistics of a run of Fills in plain integers, so a
// streamed access pays the shared counters' locked adds once per cache
// level instead of twice per line.
type Tally struct{ Hits, Misses, Evicts int64 }

// Book adds t's counts to the cache's statistics and zeroes t. Stats and
// Evictions are exact whenever no Tally is outstanding.
func (c *Cache) Book(t *Tally) {
	if t.Hits != 0 {
		c.hits.Add(t.Hits)
	}
	if t.Misses != 0 {
		c.misses.Add(t.Misses)
	}
	if t.Evicts != 0 {
		c.evicts.Add(t.Evicts)
	}
	*t = Tally{}
}

// Fill is Lookup and, on a miss, Insert in one scan of the set: the miss
// path of the simulator probes and fills the same set back to back, and the
// second scan was 8% of a cross-chiplet fill. It returns hit when line was
// resident (LRU stamp refreshed, nothing inserted); otherwise line now
// occupies the first empty way or replaces the LRU way, and (evicted, ok)
// report the victim exactly as Insert does. Victim choice and the
// exactly-once eviction claim are Insert's; the hit, miss and eviction are
// counted in t, which the caller Books. FuzzCacheFill holds the two
// spellings to the same tags, stamps and booked statistics.
func (c *Cache) Fill(line uint64, now int64, t *Tally) (hit bool, evicted uint64, ok bool) {
	tag := line + 1
	base := c.setOf(line) * c.ways
	empty := -1
	victim := base
	victimUse := int64(1<<63 - 1)
	for i := 0; i < c.ways; i++ {
		w := &c.sets[base+i]
		switch cur := w.tag.Load(); {
		case cur == tag:
			w.use.Store(now)
			t.Hits++
			return true, 0, false
		case cur == 0:
			if empty < 0 {
				empty = base + i
			}
		case empty < 0:
			if u := w.use.Load(); u < victimUse {
				victimUse = u
				victim = base + i
			}
		}
	}
	t.Misses++
	if empty >= 0 {
		w := &c.sets[empty]
		if !w.tag.CompareAndSwap(0, tag) {
			// A concurrent fill took the way: Insert rescans (and counts
			// its own eviction).
			evicted, ok = c.Insert(line, now)
			return false, evicted, ok
		}
		w.use.Store(now)
		return false, 0, false
	}
	evicted, ok = c.sets[victim].replace(tag, now)
	if ok {
		t.Evicts++
	}
	return false, evicted, ok
}

// Invalidate removes line if present and reports whether it was. The
// removal is a compare-and-swap so a racing Insert of a different line
// into the same way is never wiped by mistake.
func (c *Cache) Invalidate(line uint64) bool {
	tag := line + 1
	base := c.setOf(line) * c.ways
	for i := 0; i < c.ways; i++ {
		w := &c.sets[base+i]
		if w.tag.Load() == tag {
			if w.tag.CompareAndSwap(tag, 0) {
				return true
			}
		}
	}
	return false
}

// Stats returns the lookup hit/miss counters.
func (c *Cache) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// Evictions returns the number of capacity evictions since Clear.
func (c *Cache) Evictions() int64 { return c.evicts.Load() }

// Capacity returns the number of lines the simulated structure holds.
func (c *Cache) Capacity() int { return c.numSets * c.ways }
