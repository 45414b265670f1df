package task

import "sync/atomic"

// Node is the intrusive MPSC link an inbox element embeds: Put threads
// the element's own Node into the queue, so enqueueing allocates nothing.
// An element is in at most one inbox at a time; once Take has returned it,
// its Node is free and the element may be Put again, into any inbox.
type Node[P any] struct {
	next atomic.Pointer[Node[P]]
	val  P
}

// link returns n. Element types get it by embedding Node, which is what
// makes them satisfy Inbox's constraint.
func (n *Node[P]) link() *Node[P] { return n }

// Linked is the constraint on inbox elements: pointers to a type that
// embeds Node[P].
type Linked[P any] interface {
	link() *Node[P]
}

// Inbox is a lock-free multi-producer single-consumer queue (Vyukov's
// intrusive MPSC design). Producers Put from any goroutine; only the owner
// may Take. Used as the per-worker message inbox for the call() RPC path.
type Inbox[P Linked[P]] struct {
	head atomic.Pointer[Node[P]] // producers swap here
	tail *Node[P]                // consumer-owned
	n    atomic.Int64            // approximate length for observability
	stub Node[P]
}

// NewInbox creates an empty inbox.
func NewInbox[P Linked[P]]() *Inbox[P] {
	q := &Inbox[P]{}
	q.head.Store(&q.stub)
	q.tail = &q.stub
	return q
}

// pushNode links n at the head. Safe for concurrent producers.
func (q *Inbox[P]) pushNode(n *Node[P]) {
	n.next.Store(nil)
	prev := q.head.Swap(n)
	prev.next.Store(n)
}

// Put enqueues v through its embedded Node. Safe for concurrent producers;
// v must not be in any inbox already.
func (q *Inbox[P]) Put(v P) {
	n := v.link()
	n.val = v
	q.pushNode(n)
	q.n.Add(1)
}

// release unlinks tail, whose successor is now the consumer's tail, and
// returns its element. Nothing in the queue references tail afterwards:
// the producer that linked the successor has finished with it.
func (q *Inbox[P]) release(tail, next *Node[P]) P {
	q.tail = next
	q.n.Add(-1)
	return tail.val
}

// Take dequeues the oldest element, or returns nil when the queue is empty.
// A nil return during a concurrent Put means "retry later": the element
// becomes visible once the producer finishes linking. Only the owner may
// call Take. An element is released only once it has a successor, so the
// caller may Put it again at once.
func (q *Inbox[P]) Take() P {
	var zero P
	tail := q.tail
	next := tail.next.Load()
	if tail == &q.stub {
		if next == nil {
			return zero // empty
		}
		// Skip the stub.
		q.tail = next
		tail = next
		next = tail.next.Load()
	}
	if next != nil {
		return q.release(tail, next)
	}
	if tail != q.head.Load() {
		// A producer is between Swap and next.Store; not yet visible.
		return zero
	}
	// Exactly one element: re-insert the stub behind it so the element
	// gains a successor, then dequeue it.
	q.pushNode(&q.stub)
	if next = tail.next.Load(); next != nil {
		return q.release(tail, next)
	}
	return zero
}

// Len returns the approximate queue length (exact when producers are
// quiescent). Safe for concurrent use; used for queue-depth telemetry.
func (q *Inbox[P]) Len() int64 {
	if n := q.n.Load(); n > 0 {
		return n
	}
	return 0
}

// Empty reports whether the inbox appears empty to the consumer.
func (q *Inbox[P]) Empty() bool {
	return q.tail == &q.stub && q.tail.next.Load() == nil
}
