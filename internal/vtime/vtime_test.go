package vtime

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestClockAdvance(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatalf("zero clock at %d", c.Now())
	}
	if got := c.Advance(10); got != 10 {
		t.Errorf("Advance(10) = %d, want 10", got)
	}
	if got := c.Advance(5); got != 15 {
		t.Errorf("Advance(5) = %d, want 15", got)
	}
}

func TestClockAdvanceIgnoresNonPositive(t *testing.T) {
	var c Clock
	c.Advance(7)
	if got := c.Advance(0); got != 7 {
		t.Errorf("Advance(0) = %d, want 7", got)
	}
	if got := c.Advance(-3); got != 7 {
		t.Errorf("Advance(-3) = %d, want 7", got)
	}
}

func TestClockSyncTo(t *testing.T) {
	var c Clock
	c.Advance(100)
	if got := c.SyncTo(50); got != 100 {
		t.Errorf("SyncTo(50) = %d, want 100 (never backwards)", got)
	}
	if got := c.SyncTo(200); got != 200 {
		t.Errorf("SyncTo(200) = %d, want 200", got)
	}
}

func TestClockMonotonicProperty(t *testing.T) {
	f := func(steps []int16) bool {
		var c Clock
		prev := int64(0)
		for _, s := range steps {
			var now int64
			if s%2 == 0 {
				now = c.Advance(int64(s))
			} else {
				now = c.SyncTo(int64(s))
			}
			if now < prev {
				return false
			}
			prev = now
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClockConcurrentSyncTo(t *testing.T) {
	var c Clock
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c.SyncTo(int64(i * 100))
		}(i)
	}
	wg.Wait()
	if got := c.Now(); got != 3100 {
		t.Errorf("concurrent SyncTo: Now = %d, want 3100", got)
	}
}

func TestBarrier(t *testing.T) {
	var b Barrier
	b.Enter(10)
	b.Enter(300)
	b.Enter(42)
	if got := b.Release(5); got != 305 {
		t.Errorf("Release = %d, want 305", got)
	}
	b.Reset()
	if got := b.Release(0); got != 0 {
		t.Errorf("after Reset, Release = %d, want 0", got)
	}
}

func TestBarrierConcurrent(t *testing.T) {
	var b Barrier
	var wg sync.WaitGroup
	for i := 1; i <= 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b.Enter(int64(i))
		}(i)
	}
	wg.Wait()
	if got := b.Release(1); got != 65 {
		t.Errorf("Release = %d, want 65", got)
	}
}
