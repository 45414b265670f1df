// Package vtime provides the virtual-time substrate of the simulator.
//
// Every simulated core owns a Clock measured in virtual nanoseconds. The
// cost model advances a core's clock by the latency of each memory access,
// context switch, or synchronization event. Synchronization points
// (barriers, task handoffs, steals) merge clocks by taking the maximum, the
// standard conservative rule for virtual-time simulation: an event cannot be
// observed before it happened.
//
// Clocks are atomics so that monitoring code (the profiler, the harness) can
// read them concurrently, but only the owning worker advances them.
package vtime

import "sync/atomic"

// Clock is a virtual-nanosecond clock owned by one simulated core.
// The zero value is a clock at time 0, ready to use.
type Clock struct {
	now atomic.Int64
}

// Now returns the current virtual time in nanoseconds.
func (c *Clock) Now() int64 { return c.now.Load() }

// Advance moves the clock forward by d nanoseconds and returns the new time.
// Negative d is ignored: virtual time never runs backwards.
func (c *Clock) Advance(d int64) int64 {
	if d <= 0 {
		return c.now.Load()
	}
	return c.now.Add(d)
}

// SyncTo raises the clock to at least t (max-merge). It returns the
// resulting time. Used when a worker observes an event stamped t, e.g.
// receiving a task or passing a barrier.
func (c *Clock) SyncTo(t int64) int64 {
	for {
		cur := c.now.Load()
		if t <= cur {
			return cur
		}
		if c.now.CompareAndSwap(cur, t) {
			return t
		}
	}
}

// Set forces the clock to t. Only for initialization and tests.
func (c *Clock) Set(t int64) { c.now.Store(t) }

// Barrier implements virtual-time barrier semantics for a fixed party count:
// all parties enter with their local time; everyone leaves at the maximum
// entry time plus a per-party synchronization cost. The caller provides real
// (host) synchronization; Barrier only computes the virtual release time.
type Barrier struct {
	max atomic.Int64
}

// Enter records a party's entry time and returns nothing; call Release after
// host-side synchronization to obtain the common release time.
func (b *Barrier) Enter(t int64) {
	for {
		cur := b.max.Load()
		if t <= cur {
			return
		}
		if b.max.CompareAndSwap(cur, t) {
			return
		}
	}
}

// Release returns the virtual release time: the maximum entry time plus
// cost, which models the notification latency of the barrier.
func (b *Barrier) Release(cost int64) int64 { return b.max.Load() + cost }

// Reset prepares the barrier for reuse. The caller must ensure no party is
// between Enter and Release.
func (b *Barrier) Reset() { b.max.Store(0) }
