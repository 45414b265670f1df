package mem

import (
	"sync"
	"testing"
	"testing/quick"

	"charm/internal/fault"
	"charm/internal/topology"
)

func testSpace() *Space { return NewSpace(topology.SyntheticDual(2, 4)) }

func TestAllocBind(t *testing.T) {
	s := testSpace()
	a := s.Alloc(1<<20, Bind, 1)
	for off := uint64(0); off < 1<<20; off += PageSize {
		if got := s.HomeOf(a+Addr(off), 0); got != 1 {
			t.Fatalf("HomeOf(+%d) = %d, want 1", off, got)
		}
	}
}

func TestAllocInterleave(t *testing.T) {
	s := testSpace()
	a := s.Alloc(8*PageSize, Interleave, 0)
	want := []topology.NodeID{0, 1, 0, 1, 0, 1, 0, 1}
	for i, w := range want {
		if got := s.HomeOf(a+Addr(i*PageSize), 0); got != w {
			t.Errorf("page %d: home %d, want %d", i, got, w)
		}
	}
}

func TestFirstTouch(t *testing.T) {
	s := testSpace()
	a := s.Alloc(2*PageSize, FirstTouch, 0)
	if got := s.HomeOf(a, 1); got != 1 {
		t.Errorf("first touch by node 1: home %d, want 1", got)
	}
	// Second touch by node 0 must see the established home.
	if got := s.HomeOf(a, 0); got != 1 {
		t.Errorf("second touch: home %d, want 1", got)
	}
	// Untouched second page claimed by node 0.
	if got := s.HomeOf(a+PageSize, 0); got != 0 {
		t.Errorf("page 1 first touch by node 0: home %d, want 0", got)
	}
}

func TestFirstTouchConcurrent(t *testing.T) {
	s := testSpace()
	a := s.Alloc(PageSize, FirstTouch, 0)
	var wg sync.WaitGroup
	homes := make([]topology.NodeID, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			homes[i] = s.HomeOf(a, topology.NodeID(i%2))
		}(i)
	}
	wg.Wait()
	for i := 1; i < 16; i++ {
		if homes[i] != homes[0] {
			t.Fatalf("racing first-touch produced different homes: %v", homes)
		}
	}
}

func TestAllocatedAccounting(t *testing.T) {
	s := testSpace()
	a := s.Alloc(100, Bind, 0)
	b := s.Alloc(200, Bind, 0)
	if got := s.allocated.Load(); got != 300 {
		t.Errorf("Allocated = %d, want 300", got)
	}
	s.Free(a)
	if got := s.allocated.Load(); got != 200 {
		t.Errorf("after Free, Allocated = %d, want 200", got)
	}
	if got := s.regions[b.Region()].Load().size; got != 200 {
		t.Errorf("region size = %d, want 200", got)
	}
}

func TestAccessFreedPanics(t *testing.T) {
	s := testSpace()
	a := s.Alloc(100, Bind, 0)
	s.Free(a)
	mustPanic(t, "HomeOf freed", func() { s.HomeOf(a, 0) })
	mustPanic(t, "double Free", func() { s.Free(a) })
}

func TestAllocValidation(t *testing.T) {
	s := testSpace()
	mustPanic(t, "zero size", func() { s.Alloc(0, Bind, 0) })
	mustPanic(t, "negative size", func() { s.Alloc(-5, Bind, 0) })
	mustPanic(t, "bad node", func() { s.Alloc(10, Bind, 99) })
}

func TestOutOfRegionPanics(t *testing.T) {
	s := testSpace()
	a := s.Alloc(PageSize, Bind, 0)
	mustPanic(t, "beyond region", func() { s.HomeOf(a+Addr(PageSize), 0) })
}

func TestAddrEncoding(t *testing.T) {
	f := func(idx uint16, off uint32) bool {
		a := Addr(uint64(idx)<<regionShift | uint64(off))
		return a.Region() == int(idx) && a.Offset() == uint64(off)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPolicyString(t *testing.T) {
	for p, want := range map[Policy]string{
		Bind: "bind", Interleave: "interleave", FirstTouch: "first-touch", Policy(9): "Policy(9)",
	} {
		if got := p.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", p, got, want)
		}
	}
}

func TestTokenBucketUncongested(t *testing.T) {
	b := NewTokenBucket(10.0, 1000) // 10 B/ns => 10000 B/window
	if d := b.Charge(0, 5000); d != 0 {
		t.Errorf("under capacity: delay %d, want 0", d)
	}
	if d := b.Charge(10, 5000); d != 0 {
		t.Errorf("at capacity: delay %d, want 0", d)
	}
}

func TestTokenBucketCongested(t *testing.T) {
	b := NewTokenBucket(10.0, 1000)
	b.Charge(0, 10000)
	d := b.Charge(1, 10000) // 100% oversubscribed
	if d != 1000 {
		t.Errorf("oversubscribed delay = %d, want 1000", d)
	}
	// A later window is fresh.
	if d := b.Charge(5000, 100); d != 0 {
		t.Errorf("new window delay = %d, want 0", d)
	}
}

func TestTokenBucketZeroAndNegative(t *testing.T) {
	b := NewTokenBucket(1.0, 1000)
	if d := b.Charge(0, 0); d != 0 {
		t.Errorf("zero bytes delay = %d", d)
	}
	if d := b.Charge(0, -10); d != 0 {
		t.Errorf("negative bytes delay = %d", d)
	}
}

func TestTokenBucketDefaults(t *testing.T) {
	b := NewTokenBucket(2.0, 0)
	if b.windowNS != DefaultWindowNS {
		t.Errorf("WindowNS = %d, want %d", b.windowNS, DefaultWindowNS)
	}
	if b.capacity != 2*DefaultWindowNS {
		t.Errorf("Capacity = %d, want %d", b.capacity, 2*DefaultWindowNS)
	}
	tiny := NewTokenBucket(0, 10)
	if tiny.capacity < 1 {
		t.Errorf("capacity must be at least 1")
	}
}

func TestTokenBucketConcurrent(t *testing.T) {
	b := NewTokenBucket(1.0, 1000) // 1000 B/window
	var wg sync.WaitGroup
	delays := make([]int64, 8)
	for i := range delays {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var total int64
			for j := 0; j < 100; j++ {
				total += b.Charge(int64(j), 100)
			}
			delays[i] = total
		}(i)
	}
	wg.Wait()
	var any int64
	for _, d := range delays {
		any += d
	}
	if any == 0 {
		t.Error("8 workers x 10x capacity must observe queueing delays")
	}
}

// TestTokenBucketConcurrentExactBytes pins the recycle fix: concurrent
// charges racing a slot's window turnover must account every byte exactly
// once. The old CAS-then-Store recycle could wipe a racer's bytes or leave
// a charge accumulating onto the previous window's count.
func TestTokenBucketConcurrentExactBytes(t *testing.T) {
	const (
		windowNS   = 1000
		goroutines = 8
		charges    = 2000
		bytes      = 7
	)
	b := NewTokenBucket(1e6, windowNS) // huge capacity: delays irrelevant
	// Alternate between two windows that map to the same slot (numWindows
	// apart) so every charge races the slot recycle path, then finish with
	// one round into a final window and check its exact byte total.
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < charges; j++ {
				w := int64(j % 2 * numWindows) // windows 0 and 64: same slot
				b.Charge(w*windowNS, bytes)
			}
		}()
	}
	wg.Wait()
	// The last window written wins the slot; whichever it is, its count
	// must be a multiple of the charge size (no partial/wiped charges).
	for _, w := range []int64{0, numWindows} {
		if u := b.Utilization(w * windowNS); u != 0 {
			got := int64(u * float64(b.capacity))
			if got%bytes != 0 {
				t.Errorf("window %d holds %d bytes, not a multiple of %d: lost or duplicated charges", w, got, bytes)
			}
		}
	}
	// Sequential exactness into a fresh window: total must be the sum.
	var wg2 sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg2.Add(1)
		go func() {
			defer wg2.Done()
			for j := 0; j < charges; j++ {
				b.Charge(5*windowNS, bytes)
			}
		}()
	}
	wg2.Wait()
	want := int64(goroutines * charges * bytes)
	got := int64(b.Utilization(5*windowNS)*float64(b.capacity) + 0.5)
	if got != want {
		t.Errorf("window 5 accounted %d bytes, want %d (every concurrent charge exactly once)", got, want)
	}
}

// TestTokenBucketHeadroom is Headroom's contract against Charge, on
// buckets loaded with arbitrary earlier traffic: the query changes nothing
// (also not a slot still holding the window 64 back), charging exactly the
// reported room — in one piece or several — is free and leaves no room,
// and one byte more is delayed (rates of at most 1 B/ns, so that a single
// byte of excess is a whole nanosecond of delay).
func TestTokenBucketHeadroom(t *testing.T) {
	const window = 100_000
	prop := func(rate uint8, pre []uint16, at uint32, pieces uint8) bool {
		b := NewTokenBucket(float64(rate%100+1)/100, window)
		now := int64(at) + numWindows*window
		b.Charge(now-numWindows*window, 123)
		for _, p := range pre {
			b.Charge(now-now%window+int64(p), int64(p))
		}
		room := b.Headroom(now)
		if used := b.UtilMilli(now); room != b.Headroom(now) || used != b.UtilMilli(now) || (room == 0) != (used >= 1000) {
			return false
		}
		piece := room/(int64(pieces%7)+1) + 1
		for left := room; left > 0; left -= min(left, piece) {
			if b.Charge(now, min(left, piece)) != 0 {
				return false
			}
		}
		return b.Headroom(now) == 0 && b.Charge(now, 1) > 0
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// TestDRAMHeadroom: a node's headroom is its bucket's, and none at all
// once a fault plan is armed — the degradation factor is read per charge.
func TestDRAMHeadroom(t *testing.T) {
	topo := topology.SyntheticDual(2, 4)
	d := NewDRAM(topo, 1000)
	d.Charge(0, 0, 1000)
	if got, want := d.Headroom(0, 0), d.nodes[0].capacity-1000; got != want {
		t.Errorf("node 0 headroom %d, want %d", got, want)
	}
	if got, want := d.Headroom(1, 0), d.nodes[1].capacity; got != want {
		t.Errorf("untouched node 1 headroom %d, want its capacity %d", got, want)
	}
	plan, err := fault.New("brownout", 1).MemBrownout(1, 0, 10, 2).Compile(topo)
	if err != nil {
		t.Fatal(err)
	}
	d.SetFaultPlan(plan)
	if got := d.Headroom(0, 5000); got != 0 {
		t.Errorf("fault plan armed: headroom %d, want 0", got)
	}
}

func TestDRAMChargePerNode(t *testing.T) {
	topo := topology.SyntheticDual(2, 4)
	d := NewDRAM(topo, 1000)
	// Saturate node 0; node 1 must stay uncongested.
	cap := topo.Cost.ChannelBandwidth * float64(topo.ChannelsPerNode) * 1000
	d.Charge(0, 0, int64(cap))
	if delay := d.Charge(0, 0, int64(cap)); delay == 0 {
		t.Error("saturated node 0 must delay")
	}
	if delay := d.Charge(1, 0, 64); delay != 0 {
		t.Errorf("node 1 uncongested, delay = %d", delay)
	}
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}

func TestRegionSlotReuse(t *testing.T) {
	s := testSpace()
	a := s.Alloc(100, Bind, 0)
	s.Free(a)
	b := s.Alloc(200, Bind, 1)
	if a.Region() != b.Region() {
		t.Errorf("freed slot %d not reused (got %d)", a.Region(), b.Region())
	}
	if got := s.HomeOf(b, 0); got != 1 {
		t.Errorf("reused region home = %d, want 1", got)
	}
}

func TestRegionTableSurvivesChurn(t *testing.T) {
	s := testSpace()
	// Far more alloc/free cycles than the static table holds.
	for i := 0; i < 3*maxRegions; i++ {
		a := s.Alloc(64, Bind, 0)
		s.Free(a)
	}
	if s.allocated.Load() != 0 {
		t.Errorf("leaked %d bytes", s.allocated.Load())
	}
}

func TestRebind(t *testing.T) {
	s := testSpace()
	a := s.Alloc(8*PageSize, Bind, 0)
	moved := s.Rebind(a, 1)
	if moved != 8*PageSize {
		t.Errorf("Rebind moved %d bytes, want %d", moved, 8*PageSize)
	}
	for off := uint64(0); off < 8*PageSize; off += PageSize {
		if got := s.HomeOf(a+Addr(off), 0); got != 1 {
			t.Fatalf("page +%d home = %d after Rebind", off, got)
		}
	}
	// Same-node rebind is a no-op.
	if s.Rebind(a, 1) != 0 {
		t.Error("same-node Rebind must move nothing")
	}
	mustPanic(t, "rebind interleaved", func() {
		b := s.Alloc(PageSize, Interleave, 0)
		s.Rebind(b, 1)
	})
	mustPanic(t, "rebind bad node", func() { s.Rebind(a, 99) })
	mustPanic(t, "rebind freed", func() {
		c := s.Alloc(64, Bind, 0)
		s.Free(c)
		s.Rebind(c, 1)
	})
}
