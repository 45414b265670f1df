package mem

import (
	"strconv"
	"sync/atomic"

	"charm/internal/fault"
	"charm/internal/obs"
	"charm/internal/topology"
)

// DefaultWindowNS is the default accounting window for bandwidth buckets.
// 10 µs is fine enough to capture phase changes and coarse enough to keep
// atomic contention negligible.
const DefaultWindowNS = 10_000

const numWindows = 64

// Slot state packs the window identity and its byte count into one word so
// recycling a slot for a new window and charging bytes into it are a single
// atomic transition. The earlier two-word scheme (separate id and used
// atomics with a CAS-then-Store recycle) had a window where a concurrent
// charge could land on the stale byte count — double-counting the previous
// window's traffic into the new one — or be wiped by the winner's reset.
//
//	state = tag(window) << usedBits | used
//
// usedBits bounds a window's accountable bytes at ~256 GiB (far beyond any
// modeled per-window capacity; charges saturate there). The tag keeps the
// low 26 bits of the absolute window index: two windows can only alias if
// they map to the same slot AND are 2^26 windows (~11 virtual minutes at
// the default 10 µs window) apart at the same instant, which the 64-slot
// ring makes unreachable in practice.
const (
	usedBits = 38
	usedMask = (uint64(1) << usedBits) - 1
	tagMask  = (uint64(1) << (64 - usedBits)) - 1
)

// bucketSlot is one accounting window: a packed (window tag, bytes used)
// word updated by CAS.
type bucketSlot struct {
	state atomic.Uint64
}

// charge accounts bytes into the window containing t and returns the
// window's resulting byte total. It retries until the packed CAS lands, so
// every charged byte is counted in exactly one window.
func (s *bucketSlot) charge(w, bytes int64) int64 {
	tag := uint64(w) & tagMask
	for {
		cur := s.state.Load()
		var used uint64
		if cur>>usedBits == tag {
			used = cur & usedMask // same window: accumulate
		}
		used += uint64(bytes)
		if used > usedMask {
			used = usedMask // saturate; the delay is already enormous
		}
		if s.state.CompareAndSwap(cur, tag<<usedBits|used) {
			return int64(used)
		}
	}
}

// TokenBucket models the sustainable throughput of a shared resource
// (a NUMA node's memory channels, a fabric link) over virtual time.
// Charges within a window up to capacity are free; beyond it, callers
// receive a queueing delay proportional to the oversubscription. Because
// each caller's virtual clock then advances past the congested window, the
// effective per-window throughput converges to the capacity — bandwidth
// saturation emerges without a central arbiter.
type TokenBucket struct {
	windowNS int64
	capacity int64 // bytes per window
	slots    [numWindows]bucketSlot
}

// NewTokenBucket creates a bucket sustaining bytesPerNS over windows of
// windowNS virtual nanoseconds. windowNS <= 0 selects DefaultWindowNS.
func NewTokenBucket(bytesPerNS float64, windowNS int64) *TokenBucket {
	if windowNS <= 0 {
		windowNS = DefaultWindowNS
	}
	cap := int64(bytesPerNS * float64(windowNS))
	if cap < 1 {
		cap = 1
	}
	if cap > int64(usedMask)/2 {
		// Keep capacity well below the packed byte-count ceiling so the
		// oversubscription comparison can still exceed it.
		cap = int64(usedMask) / 2
	}
	return &TokenBucket{windowNS: windowNS, capacity: cap}
}

// Charge accounts bytes at virtual time t and returns the queueing delay in
// nanoseconds the caller must add to its clock (0 when uncongested).
func (b *TokenBucket) Charge(t int64, bytes int64) int64 {
	if bytes <= 0 {
		return 0
	}
	w := t / b.windowNS
	used := b.slots[w%numWindows].charge(w, bytes)
	if used <= b.capacity {
		return 0
	}
	excess := used - b.capacity
	// Delay = time to drain the excess at the sustainable rate.
	return excess * b.windowNS / b.capacity
}

// ChargeScaled is Charge with the bucket's capacity scaled to
// capacity*1000/milli for this one charge — the fault-injection hook for
// bandwidth brownouts. milli is the degradation factor in milli-units
// (1000 = healthy); ChargeScaled(t, bytes, 1000) is exactly Charge. The
// byte accounting still goes into the shared slots, so degraded and
// healthy accessors in the same window see each other's traffic.
func (b *TokenBucket) ChargeScaled(t, bytes, milli int64) int64 {
	if milli <= 1000 {
		return b.Charge(t, bytes)
	}
	if bytes <= 0 {
		return 0
	}
	capEff := b.capacity * 1000 / milli
	if capEff < 1 {
		capEff = 1
	}
	w := t / b.windowNS
	used := b.slots[w%numWindows].charge(w, bytes)
	if used <= capEff {
		return 0
	}
	return (used - capEff) * b.windowNS / capEff
}

// Headroom returns how many more bytes the window containing t takes
// before a Charge is delayed: charging up to that many, in any number of
// pieces, returns 0 as long as no one else charges the window in between.
// It claims nothing and knows the healthy capacity only.
func (b *TokenBucket) Headroom(t int64) int64 {
	w := t / b.windowNS
	cur := b.slots[w%numWindows].state.Load()
	if cur>>usedBits != uint64(w)&tagMask {
		return b.capacity
	}
	return max(b.capacity-int64(cur&usedMask), 0)
}

// Utilization returns the fraction of the bucket's capacity charged into
// the accounting window containing virtual time t. Values above 1 mean
// the window is oversubscribed and callers are absorbing queueing delay.
func (b *TokenBucket) Utilization(t int64) float64 {
	w := t / b.windowNS
	cur := b.slots[w%numWindows].state.Load()
	if cur>>usedBits != uint64(w)&tagMask {
		return 0
	}
	return float64(cur&usedMask) / float64(b.capacity)
}

// UtilMilli returns the utilization of the window containing t in integer
// milli-units (1000 = full capacity, >1000 = oversubscribed). Placement
// code uses this instead of Utilization so decisions stay in the integer
// domain and replay bit-identically.
func (b *TokenBucket) UtilMilli(t int64) int64 {
	w := t / b.windowNS
	cur := b.slots[w%numWindows].state.Load()
	if cur>>usedBits != uint64(w)&tagMask {
		return 0
	}
	return int64(cur&usedMask) * 1000 / b.capacity
}

// channelMetrics are one node's observability handles (nil when the DRAM
// is not instrumented).
type channelMetrics struct {
	bytes *obs.Counter
	delay *obs.Counter
}

// DRAM aggregates the per-NUMA-node memory bandwidth of a machine. Each
// node's memory channels share one token bucket (channel interleaving).
type DRAM struct {
	nodes  []*TokenBucket
	met    []channelMetrics
	faults *fault.Plan
}

// SetFaultPlan arms a compiled fault plan: subsequent charges against a
// browned-out node see its bandwidth divided by the plan's factor at the
// charge's virtual time. A nil plan restores healthy behaviour. Must be
// called before the machine starts executing (the field is read without
// synchronization on the hot path).
func (d *DRAM) SetFaultPlan(p *fault.Plan) { d.faults = p }

// NewDRAM builds the per-node buckets from the topology's channel count and
// per-channel bandwidth.
func NewDRAM(t *topology.Topology, windowNS int64) *DRAM {
	d := &DRAM{nodes: make([]*TokenBucket, t.NumNodes())}
	perNode := float64(t.ChannelsPerNode) * t.Cost.ChannelBandwidth
	for i := range d.nodes {
		d.nodes[i] = NewTokenBucket(perNode, windowNS)
	}
	return d
}

// Instrument registers per-channel-group telemetry with reg: cumulative
// bytes, accumulated queueing delay, and a snapshot-time utilization
// gauge per NUMA node. Idempotent per registry.
func (d *DRAM) Instrument(reg *obs.Registry) {
	d.met = make([]channelMetrics, len(d.nodes))
	for i := range d.nodes {
		l := obs.Labels{"channel": "node" + strconv.Itoa(i)}
		d.met[i] = channelMetrics{
			bytes: reg.Counter("charm_mem_bytes_total",
				"Bytes charged against the node's memory channels.", l),
			delay: reg.Counter("charm_mem_queue_delay_ns_total",
				"Virtual ns of DRAM bandwidth queueing delay absorbed by accessors.", l),
		}
		bucket := d.nodes[i]
		reg.Func("charm_mem_bandwidth_util",
			"Current-window memory bandwidth utilization (>1 = oversubscribed).",
			obs.KindGauge, l, bucket.Utilization, obs.Traced())
	}
}

// Headroom is node's TokenBucket.Headroom at t, or 0 with a fault plan
// armed: degradation is evaluated at each charge's own time, so no charge
// may be deferred.
func (d *DRAM) Headroom(node topology.NodeID, t int64) int64 {
	if d.faults != nil {
		return 0
	}
	return d.nodes[node].Headroom(t)
}

// Charge accounts a DRAM transfer of bytes against node at time t and
// returns the queueing delay.
func (d *DRAM) Charge(node topology.NodeID, t, bytes int64) int64 {
	delay := d.nodes[node].ChargeScaled(t, bytes, d.faults.MemMilli(node, t))
	if d.met != nil {
		d.met[node].bytes.Add(0, bytes)
		if delay > 0 {
			d.met[node].delay.Add(0, delay)
		}
	}
	return delay
}
