package cache

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestNewGeometry(t *testing.T) {
	c := New(64<<10, 8, 0) // 64 KiB, 8-way => 1024 lines, 128 sets
	if c.numSets != 128 {
		t.Errorf("Sets = %d, want 128", c.numSets)
	}
	if c.ways != 8 {
		t.Errorf("Ways = %d, want 8", c.ways)
	}
	if c.Capacity() != 1024 {
		t.Errorf("Capacity = %d, want 1024", c.Capacity())
	}
}

func TestNewSampled(t *testing.T) {
	c := New(64<<10, 8, 4) // sampling 1/16 => 8 sets
	if c.numSets != 8 {
		t.Errorf("Sets = %d, want 8", c.numSets)
	}
	sampled := func(line uint64) bool { return line&(1<<c.sampleShift-1) == 0 }
	if !sampled(0) || !sampled(16) || sampled(1) || sampled(15) {
		t.Error("sampled-line classification wrong for shift 4")
	}
}

func TestNewMinimumOneSet(t *testing.T) {
	c := New(64, 8, 10) // tiny capacity, aggressive sampling
	if c.numSets != 1 {
		t.Errorf("Sets = %d, want 1", c.numSets)
	}
}

func TestNewPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"zero ways":     func() { New(1024, 0, 0) },
		"zero capacity": func() { New(0, 4, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestLookupInsertInvalidate(t *testing.T) {
	c := New(4<<10, 4, 0)
	if c.Lookup(42, 1) {
		t.Error("empty cache must miss")
	}
	c.Insert(42, 2)
	if !c.Lookup(42, 3) {
		t.Error("inserted line must hit")
	}
	if !c.Contains(42) {
		t.Error("Contains must see inserted line")
	}
	if !c.Invalidate(42) {
		t.Error("Invalidate must find line")
	}
	if c.Contains(42) {
		t.Error("invalidated line must be gone")
	}
	if c.Invalidate(42) {
		t.Error("second Invalidate must report absence")
	}
}

func TestInsertIdempotent(t *testing.T) {
	c := New(1<<10, 4, 0)
	c.Insert(7, 1)
	if ev, ok := c.Insert(7, 2); ok {
		t.Errorf("re-insert evicted %d", ev)
	}
}

func TestLRUEviction(t *testing.T) {
	// 4-way, 1 set (4 lines * 64B = 256B).
	c := New(256, 4, 0)
	// All lines land in set 0 regardless of number (numSets=1).
	c.Insert(1, 10)
	c.Insert(2, 20)
	c.Insert(3, 30)
	c.Insert(4, 40)
	// Touch 1 so 2 becomes LRU.
	if !c.Lookup(1, 50) {
		t.Fatal("line 1 must be present")
	}
	ev, ok := c.Insert(5, 60)
	if !ok || ev != 2 {
		t.Errorf("evicted (%d,%v), want (2,true)", ev, ok)
	}
	if c.Contains(2) {
		t.Error("evicted line still present")
	}
	for _, l := range []uint64{1, 3, 4, 5} {
		if !c.Contains(l) {
			t.Errorf("line %d must survive", l)
		}
	}
}

func TestZeroLineIsStorable(t *testing.T) {
	c := New(1<<10, 4, 0)
	c.Insert(0, 1)
	if !c.Contains(0) {
		t.Error("line 0 must be storable (tag bias)")
	}
	if !c.Invalidate(0) {
		t.Error("line 0 must be invalidatable")
	}
}

func TestStats(t *testing.T) {
	c := New(1<<10, 4, 0)
	c.Lookup(1, 1) // miss
	c.Insert(1, 2)
	c.Lookup(1, 3) // hit
	h, m := c.Stats()
	if h != 1 || m != 1 {
		t.Errorf("stats = (%d,%d), want (1,1)", h, m)
	}
}

func TestWorkingSetFitsNoEvictions(t *testing.T) {
	// Property: a working set no larger than capacity, touched twice
	// round-robin, hits on every second pass (no conflict misses when
	// lines map uniformly: use exactly capacity-many consecutive lines,
	// which spread perfectly across sets).
	c := New(64<<10, 8, 0)
	n := uint64(c.Capacity())
	for l := uint64(0); l < n; l++ {
		c.Insert(l, int64(l))
	}
	for l := uint64(0); l < n; l++ {
		if !c.Lookup(l, int64(n+l)) {
			t.Fatalf("line %d must hit on second pass", l)
		}
	}
}

func TestWorkingSetExceedsCapacityEvicts(t *testing.T) {
	c := New(4<<10, 4, 0) // 64 lines
	n := uint64(c.Capacity()) * 4
	for l := uint64(0); l < n; l++ {
		c.Insert(l, int64(l))
	}
	present := 0
	for l := uint64(0); l < n; l++ {
		if c.Contains(l) {
			present++
		}
	}
	if present != c.Capacity() {
		t.Errorf("present = %d, want exactly capacity %d", present, c.Capacity())
	}
}

func TestSampledSetMapping(t *testing.T) {
	// Property: sampled lines map within bounds and consistently.
	c := New(8<<10, 4, 3)
	f := func(l uint32) bool {
		line := uint64(l) << 3 // make it sampled
		if line&(1<<c.sampleShift-1) != 0 {
			return false
		}
		s := c.setOf(line)
		return s >= 0 && s < c.numSets && s == c.setOf(line)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInsertLookupProperty(t *testing.T) {
	f := func(lines []uint16) bool {
		c := New(1<<20, 8, 0) // big enough to never evict a uint16 space
		for i, l := range lines {
			c.Insert(uint64(l), int64(i))
		}
		for _, l := range lines {
			if !c.Contains(uint64(l)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(64<<10, 8, 0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10000; i++ {
				l := uint64(g*10000 + i)
				c.Insert(l, int64(i))
				c.Lookup(l, int64(i))
				if i%3 == 0 {
					c.Invalidate(l)
				}
			}
		}(g)
	}
	wg.Wait()
	// No assertion beyond absence of races/panics; contents are
	// nondeterministic under contention by design.
}
