package task

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestDequeLIFOOwner(t *testing.T) {
	d := NewDeque[int](4)
	vals := []int{1, 2, 3}
	for i := range vals {
		d.Push(&vals[i])
	}
	if d.Len() != 3 {
		t.Errorf("Len = %d, want 3", d.Len())
	}
	for i := 2; i >= 0; i-- {
		got := d.Pop()
		if got == nil || *got != vals[i] {
			t.Fatalf("Pop = %v, want %d", got, vals[i])
		}
	}
	if d.Pop() != nil {
		t.Error("empty Pop must return nil")
	}
	if !d.Empty() {
		t.Error("deque must be empty")
	}
}

func TestDequeStealFIFO(t *testing.T) {
	d := NewDeque[int](4)
	vals := []int{10, 20, 30}
	for i := range vals {
		d.Push(&vals[i])
	}
	for i := 0; i < 3; i++ {
		got := d.Steal()
		if got == nil || *got != vals[i] {
			t.Fatalf("Steal = %v, want %d", got, vals[i])
		}
	}
	if d.Steal() != nil {
		t.Error("empty Steal must return nil")
	}
}

func TestDequeGrowth(t *testing.T) {
	d := NewDeque[int](8)
	n := 10000
	vals := make([]int, n)
	for i := range vals {
		vals[i] = i
		d.Push(&vals[i])
	}
	if d.Len() != n {
		t.Fatalf("Len = %d, want %d", d.Len(), n)
	}
	for i := n - 1; i >= 0; i-- {
		got := d.Pop()
		if got == nil || *got != i {
			t.Fatalf("Pop = %v, want %d", got, i)
		}
	}
}

func TestDequeOwnerStealInterleave(t *testing.T) {
	f := func(ops []bool) bool {
		d := NewDeque[int](8)
		pushed, popped := 0, 0
		vals := make([]int, len(ops))
		for i, push := range ops {
			if push {
				vals[i] = i
				d.Push(&vals[i])
				pushed++
			} else {
				if d.Pop() != nil {
					popped++
				}
				if d.Steal() != nil {
					popped++
				}
			}
		}
		for d.Pop() != nil {
			popped++
		}
		return pushed == popped && d.Empty()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestDequeStress checks the core work-stealing invariant under real
// concurrency: every pushed element is consumed exactly once.
func TestDequeStress(t *testing.T) {
	d := NewDeque[int64](64)
	const n = 50000
	const thieves = 4
	consumed := make([]atomic.Int32, n)
	var wg sync.WaitGroup
	var done atomic.Bool

	for th := 0; th < thieves; th++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				if v := d.Steal(); v != nil {
					consumed[*v].Add(1)
				}
			}
			// Final drain.
			for {
				v := d.Steal()
				if v == nil {
					return
				}
				consumed[*v].Add(1)
			}
		}()
	}

	vals := make([]int64, n)
	for i := int64(0); i < n; i++ {
		vals[i] = i
		d.Push(&vals[i])
		if i%3 == 0 {
			if v := d.Pop(); v != nil {
				consumed[*v].Add(1)
			}
		}
	}
	for {
		v := d.Pop()
		if v == nil {
			break
		}
		consumed[*v].Add(1)
	}
	done.Store(true)
	wg.Wait()
	// Drain anything a thief aborted on.
	for {
		v := d.Steal()
		if v == nil {
			break
		}
		consumed[*v].Add(1)
	}
	for i := range consumed {
		if c := consumed[i].Load(); c != 1 {
			t.Fatalf("element %d consumed %d times", i, c)
		}
	}
}

// item is an inbox element: an integer payload behind the intrusive link.
type item struct {
	Node[*item]
	v int64
}

// items returns n elements carrying base, base+1, ..., base+n-1.
func items(base int64, n int) []item {
	out := make([]item, n)
	for i := range out {
		out[i].v = base + int64(i)
	}
	return out
}

func TestInboxFIFO(t *testing.T) {
	q := NewInbox[*item]()
	if !q.Empty() {
		t.Error("new inbox must be empty")
	}
	vals := items(1, 3)
	for i := range vals {
		q.Put(&vals[i])
	}
	for i := 0; i < 3; i++ {
		got := q.Take()
		if got != &vals[i] {
			t.Fatalf("Take = %v, want element %d", got, vals[i].v)
		}
	}
	if q.Take() != nil {
		t.Error("empty Take must return nil")
	}
	if !q.Empty() {
		t.Error("drained inbox must report empty")
	}
}

// TestInboxSingleElementCycle puts one element back every time it comes
// out: the single-element path re-links the stub behind it, and the
// element's own node must be free again by the time Take returns.
func TestInboxSingleElementCycle(t *testing.T) {
	q := NewInbox[*item]()
	var e item
	for i := 0; i < 100; i++ {
		e.v = int64(i)
		q.Put(&e)
		got := q.Take()
		if got != &e || got.v != int64(i) {
			t.Fatalf("cycle %d: Take = %v", i, got)
		}
		if q.Take() != nil {
			t.Fatalf("cycle %d: queue must be empty", i)
		}
	}
}

func TestInboxMPSCStress(t *testing.T) {
	q := NewInbox[*item]()
	const producers = 8
	const perProducer = 20000
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			vals := items(int64(p*perProducer), perProducer)
			for i := range vals {
				q.Put(&vals[i])
			}
		}(p)
	}
	seen := make(map[int64]bool, producers*perProducer)
	doneCh := make(chan struct{})
	go func() { wg.Wait(); close(doneCh) }()
	for {
		v := q.Take()
		if v != nil {
			if seen[v.v] {
				t.Fatalf("duplicate %d", v.v)
			}
			seen[v.v] = true
			if len(seen) == producers*perProducer {
				break
			}
			continue
		}
		select {
		case <-doneCh:
			if v := q.Take(); v != nil {
				seen[v.v] = true
				continue
			}
			if len(seen) != producers*perProducer {
				t.Fatalf("lost elements: got %d, want %d", len(seen), producers*perProducer)
			}
			return
		default:
		}
	}
}

func TestInboxPerProducerOrder(t *testing.T) {
	// MPSC guarantees per-producer FIFO order.
	q := NewInbox[*item]()
	const producers = 4
	const per = 5000
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			vals := items(int64(p*per), per)
			for i := range vals {
				q.Put(&vals[i])
			}
		}(p)
	}
	wg.Wait()
	last := [producers]int{-1, -1, -1, -1}
	count := 0
	for count < producers*per {
		v := q.Take()
		if v == nil {
			continue
		}
		p, i := int(v.v)/per, int(v.v)%per
		if i <= last[p] {
			t.Fatalf("producer %d out of order: %d after %d", p, i, last[p])
		}
		last[p] = i
		count++
	}
}

// hop is an element that records how many inboxes it has passed through.
type hop struct {
	Node[*hop]
	id, hops int
}

// TestInboxTakeRePut is the steal put-back path: each consumer re-puts an
// element into another inbox the moment Take returns it, while producers
// keep racing fresh elements into both inboxes. Every element must travel
// A → B exactly rounds times and arrive at the end exactly once.
func TestInboxTakeRePut(t *testing.T) {
	const producers = 4
	const per = 2000
	const rounds = 3
	a, b := NewInbox[*hop](), NewInbox[*hop]()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			hs := make([]hop, per)
			for i := range hs {
				hs[i].id = p*per + i
				// Half the producers feed B directly: its consumer sees
				// fresh puts and re-puts from A's consumer interleaved.
				if p%2 == 0 {
					a.Put(&hs[i])
				} else {
					b.Put(&hs[i])
				}
			}
		}(p)
	}
	var stop atomic.Bool
	moved := make(chan int, 1)
	go func() { // A's consumer: straight back out, into B
		n := 0
		for !stop.Load() {
			if h := a.Take(); h != nil {
				b.Put(h)
				n++
			}
		}
		moved <- n
	}()
	arrived := make([]int, producers*per)
	finished := 0
	for finished < producers*per { // B's consumer: count a hop, re-put into A
		h := b.Take()
		if h == nil {
			continue
		}
		h.hops++
		if h.hops < rounds {
			a.Put(h)
			continue
		}
		arrived[h.id]++
		finished++
	}
	stop.Store(true)
	wg.Wait()
	n := <-moved
	for id, c := range arrived {
		if c != 1 {
			t.Fatalf("element %d arrived %d times", id, c)
		}
	}
	if want := producers*per*rounds - producers/2*per; n != want {
		t.Errorf("A's consumer moved %d elements, want %d", n, want)
	}
	if a.Take() != nil || b.Take() != nil {
		t.Error("inboxes must be drained")
	}
}
