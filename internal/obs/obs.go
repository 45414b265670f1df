// Package obs is the virtual-time observability substrate of the runtime:
// a metrics registry of counters, gauges, and fixed-bucket histograms,
// all sharded per worker so that recording stays off the simulated access
// fast path, merged only at snapshot time.
//
// Design rules:
//
//   - Recording is gated on one atomic enabled flag: with metrics off, a
//     Record costs a single read-mostly atomic load and no writes.
//   - Hot-path handles (Counter, Gauge, Histogram) are sharded: each
//     worker writes its own cache-line-padded slot, so concurrent workers
//     never contend on a metric.
//   - Snapshot-time metrics (Func) are evaluated lazily against the
//     current virtual time — per-chiplet PMU aggregations and link
//     occupancies cost nothing between snapshots.
//   - Periodic sampling is driven by virtual time (MaybeSample from the
//     scheduler tick), producing the time series the Chrome trace's
//     counter tracks and the JSON history are built from.
package obs

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind classifies a metric for exporters.
type Kind uint8

const (
	// KindCounter is a monotonically increasing count.
	KindCounter Kind = iota
	// KindGauge is an instantaneous value.
	KindGauge
	// KindHistogram is a fixed-bucket distribution.
	KindHistogram
)

// String returns the Prometheus TYPE name of the kind.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Labels attaches dimensions (chiplet, link, channel, worker) to a metric.
type Labels map[string]string

// labelKey renders labels canonically (sorted) for dedup and ordering, in
// one allocation: the key string itself (none for no labels).
func labelKey(l Labels) string {
	switch len(l) {
	case 0:
		return ""
	case 1:
		for k, v := range l {
			return k + "=" + v
		}
	}
	var buf [8]string
	keys := buf[:0]
	size := len(l) - 1 // the commas
	for k, v := range l {
		keys = append(keys, k)
		size += len(k) + 1 + len(v)
	}
	slices.Sort(keys)
	var b strings.Builder
	b.Grow(size)
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(l[k])
	}
	return b.String()
}

// Desc describes one registered metric.
type Desc struct {
	Name   string
	Help   string
	Labels Labels
	Kind   Kind
	// Traced metrics are included in periodic samples and exported as
	// Chrome-trace counter tracks.
	Traced bool
	// Exemplars gives a histogram one TraceID slot per bucket, linking
	// tail buckets to a job trace that landed there (ObserveT).
	Exemplars bool
}

// Option modifies a metric description at registration.
type Option func(*Desc)

// Traced marks a metric for periodic sampling / trace counter tracks.
func Traced() Option { return func(d *Desc) { d.Traced = true } }

// WithExemplars allocates per-bucket exemplar slots on a histogram so
// ObserveT can attach the observing job's TraceID to its bucket.
func WithExemplars() Option { return func(d *Desc) { d.Exemplars = true } }

// metric is the internal interface every registered metric implements.
type metric interface {
	describe() *Desc
	collect(now int64) Sample
}

// pad64 is a cache-line-padded atomic counter slot (one per shard).
type pad64 struct {
	v atomic.Int64
	_ [56]byte
}

// Registry holds all metrics of one runtime.
type Registry struct {
	shards  int
	enabled atomic.Bool

	// Virtual-time sampling state.
	sampleEvery atomic.Int64
	lastSample  atomic.Int64

	mu      sync.Mutex
	metrics []metric
	byKey   map[string]metric
	// traced is the Traced, non-histogram subsequence of metrics, in
	// registration order: what a periodic sample collects. It only grows
	// by append, or is replaced whole, so a copy of the header taken under
	// mu stays valid after mu is released.
	traced []metric

	histMu    sync.Mutex
	history   []Snapshot // ring buffer when full
	histStart int        // index of the oldest entry once wrapped
	histCap   int
	dropped   int64
}

// NewRegistry creates a registry whose sharded metrics have one slot per
// worker (shards < 1 selects 1). The registry starts disabled.
func NewRegistry(shards int) *Registry {
	if shards < 1 {
		shards = 1
	}
	return &Registry{shards: shards, byKey: map[string]metric{}}
}

// SetEnabled turns recording on or off. Disabled handles drop records
// after a single atomic load.
func (r *Registry) SetEnabled(on bool) { r.enabled.Store(on) }

// register dedups by (name, labels): re-registering returns the existing
// metric (the kinds must agree), which makes instrumentation idempotent.
func (r *Registry) register(d Desc, mk func() metric) metric {
	key := d.Name + "{" + labelKey(d.Labels) + "}"
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.byKey[key]
	switch {
	case !ok:
		m = mk()
		r.byKey[key] = m
		r.metrics = append(r.metrics, m)
		if d.Traced && d.Kind != KindHistogram {
			r.traced = append(r.traced, m)
		}
	case m.describe().Kind != d.Kind:
		panic(fmt.Sprintf("obs: %s re-registered as %s (was %s)", key, d.Kind, m.describe().Kind))
	case d.Traced && !m.describe().Traced:
		// Rebuilt, not inserted into, so a sample's copy stays valid.
		m.describe().Traced = true
		r.traced = nil
		for _, m := range r.metrics {
			if d := m.describe(); d.Traced && d.Kind != KindHistogram {
				r.traced = append(r.traced, m)
			}
		}
	}
	return m
}

// Counter registers (or returns) a sharded monotonic counter.
func (r *Registry) Counter(name, help string, labels Labels, opts ...Option) *Counter {
	d := Desc{Name: name, Help: help, Labels: labels, Kind: KindCounter}
	for _, o := range opts {
		o(&d)
	}
	return r.register(d, func() metric {
		return &Counter{d: d, r: r, shards: make([]pad64, r.shards)}
	}).(*Counter)
}

// Gauge registers (or returns) a sharded additive gauge: each shard holds
// its own contribution and the exported value is the sum over shards.
func (r *Registry) Gauge(name, help string, labels Labels, opts ...Option) *Gauge {
	d := Desc{Name: name, Help: help, Labels: labels, Kind: KindGauge}
	for _, o := range opts {
		o(&d)
	}
	return r.register(d, func() metric {
		return &Gauge{d: d, r: r, shards: make([]pad64, r.shards)}
	}).(*Gauge)
}

// Histogram registers (or returns) a fixed-bucket histogram. bounds are
// inclusive upper bucket bounds in ascending order; an implicit +Inf
// bucket catches the overflow.
func (r *Registry) Histogram(name, help string, labels Labels, bounds []int64, opts ...Option) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %s bounds not ascending: %v", name, bounds))
		}
	}
	d := Desc{Name: name, Help: help, Labels: labels, Kind: KindHistogram}
	for _, o := range opts {
		o(&d)
	}
	return r.register(d, func() metric {
		h := &Histogram{d: d, r: r, bounds: append([]int64(nil), bounds...)}
		h.shards = make([]histShard, r.shards)
		for i := range h.shards {
			h.shards[i].counts = make([]atomic.Int64, len(bounds)+1)
			if d.Exemplars {
				h.shards[i].ex = make([]atomic.Uint64, len(bounds)+1)
			}
		}
		return h
	}).(*Histogram)
}

// Func registers a metric evaluated lazily at snapshot time against the
// snapshot's virtual timestamp. kind must be KindCounter or KindGauge.
func (r *Registry) Func(name, help string, kind Kind, labels Labels, f func(now int64) float64, opts ...Option) {
	if kind == KindHistogram {
		panic("obs: Func metrics cannot be histograms")
	}
	d := Desc{Name: name, Help: help, Labels: labels, Kind: kind}
	for _, o := range opts {
		o(&d)
	}
	r.register(d, func() metric { return &funcMetric{d: d, f: f} })
}

// Counter is a sharded monotonic counter.
type Counter struct {
	d      Desc
	r      *Registry
	shards []pad64
}

func (c *Counter) describe() *Desc { return &c.d }

// Add increments the counter by v on the given shard (the caller's worker
// ID). It is a no-op while the registry is disabled.
func (c *Counter) Add(shard int, v int64) {
	if !c.r.enabled.Load() {
		return
	}
	c.shards[shard].v.Add(v)
}

// Inc is Add(shard, 1).
func (c *Counter) Inc(shard int) { c.Add(shard, 1) }

// Value merges all shards.
func (c *Counter) Value() int64 {
	var s int64
	for i := range c.shards {
		s += c.shards[i].v.Load()
	}
	return s
}

func (c *Counter) collect(int64) Sample {
	return Sample{Name: c.d.Name, Labels: c.d.Labels, Kind: c.d.Kind,
		Help: c.d.Help, Traced: c.d.Traced, Value: float64(c.Value())}
}

// Gauge is a sharded additive gauge.
type Gauge struct {
	d      Desc
	r      *Registry
	shards []pad64
}

func (g *Gauge) describe() *Desc { return &g.d }

// Set stores the shard's contribution. Unlike counters, Set works even
// while the registry is disabled so state-tracking gauges stay coherent
// across enable/disable cycles (a Set is one atomic store either way).
func (g *Gauge) Set(shard int, v int64) { g.shards[shard].v.Store(v) }

// Value merges all shards by summing.
func (g *Gauge) Value() int64 {
	var s int64
	for i := range g.shards {
		s += g.shards[i].v.Load()
	}
	return s
}

func (g *Gauge) collect(int64) Sample {
	return Sample{Name: g.d.Name, Labels: g.d.Labels, Kind: g.d.Kind,
		Help: g.d.Help, Traced: g.d.Traced, Value: float64(g.Value())}
}

// histShard is one worker's private bucket array.
type histShard struct {
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	sum    atomic.Int64
	ex     []atomic.Uint64 // optional per-bucket exemplar TraceIDs
	_      [24]byte
}

// Histogram is a sharded fixed-bucket histogram over int64 observations
// (virtual nanoseconds in practice).
type Histogram struct {
	d      Desc
	r      *Registry
	bounds []int64
	shards []histShard
}

func (h *Histogram) describe() *Desc { return &h.d }

// Observe records v into the shard's bucket for the smallest bound >= v.
func (h *Histogram) Observe(shard int, v int64) { h.ObserveT(shard, v, 0) }

// ObserveT is Observe plus an exemplar: when the histogram was registered
// WithExemplars and trace is non-zero, the bucket's exemplar slot keeps
// the largest TraceID seen — a max is shard-order-independent, so merged
// exemplars are deterministic under replay (and the largest job id is the
// most recently admitted job to land in the bucket).
func (h *Histogram) ObserveT(shard int, v int64, trace TraceID) {
	if !h.r.enabled.Load() {
		return
	}
	s := &h.shards[shard]
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	s.counts[i].Add(1)
	s.sum.Add(v)
	if s.ex != nil && trace != 0 {
		for {
			old := s.ex[i].Load()
			if uint64(trace) <= old || s.ex[i].CompareAndSwap(old, uint64(trace)) {
				break
			}
		}
	}
}

// Merged returns the merged per-bucket counts (last entry is +Inf), the
// sum of observations, and the total count.
func (h *Histogram) Merged() (counts []int64, sum, count int64) {
	return h.MergedInto(nil)
}

// MergedInto is Merged with the counts written over buf (reallocated when
// too small), for a caller that merges often and owns a scratch slice.
func (h *Histogram) MergedInto(buf []int64) (counts []int64, sum, count int64) {
	if n := len(h.bounds) + 1; cap(buf) >= n {
		counts = buf[:n]
		clear(counts)
	} else {
		counts = make([]int64, n)
	}
	for s := range h.shards {
		sh := &h.shards[s]
		for i := range counts {
			counts[i] += sh.counts[i].Load()
		}
		sum += sh.sum.Load()
	}
	for _, c := range counts {
		count += c
	}
	return counts, sum, count
}

// Exemplars merges the per-bucket exemplar TraceIDs across shards (max
// wins; 0 means none). Returns nil when the histogram has no exemplar
// slots.
func (h *Histogram) Exemplars() []TraceID {
	if !h.d.Exemplars {
		return nil
	}
	out := make([]TraceID, len(h.bounds)+1)
	for s := range h.shards {
		sh := &h.shards[s]
		if sh.ex == nil {
			continue
		}
		for i := range out {
			if v := TraceID(sh.ex[i].Load()); v > out[i] {
				out[i] = v
			}
		}
	}
	return out
}

func (h *Histogram) collect(int64) Sample {
	counts, sum, count := h.Merged()
	return Sample{Name: h.d.Name, Labels: h.d.Labels, Kind: h.d.Kind,
		Help: h.d.Help, Traced: h.d.Traced,
		Hist: &HistData{Bounds: h.bounds, Counts: counts, Sum: sum, Count: count,
			Exemplars: h.Exemplars()}}
}

// funcMetric is evaluated at snapshot time.
type funcMetric struct {
	d Desc
	f func(now int64) float64
}

func (m *funcMetric) describe() *Desc { return &m.d }

func (m *funcMetric) collect(now int64) Sample {
	return Sample{Name: m.d.Name, Labels: m.d.Labels, Kind: m.d.Kind,
		Help: m.d.Help, Traced: m.d.Traced, Value: m.f(now)}
}

// HistData is a histogram's merged state in a snapshot.
type HistData struct {
	Bounds    []int64 // upper bounds, ascending, +Inf implicit
	Counts    []int64 // per-bucket (non-cumulative); len(Bounds)+1
	Sum       int64
	Count     int64
	Exemplars []TraceID // per-bucket exemplar TraceIDs (nil if disabled)
}

// Quantile estimates the q-quantile (0 <= q <= 1) of the distribution by
// linear interpolation within the bucket holding the target rank. Values
// in the +Inf overflow bucket are attributed to the last finite bound (a
// floor — the true quantile may be larger). Returns 0 when empty.
func (h *HistData) Quantile(q float64) int64 {
	if h.Count == 0 || len(h.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.Count)
	var cum float64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if rank <= next || i == len(h.Counts)-1 {
			if i >= len(h.Bounds) {
				return h.Bounds[len(h.Bounds)-1]
			}
			lo := int64(0)
			if i > 0 {
				lo = h.Bounds[i-1]
			}
			hi := h.Bounds[i]
			frac := (rank - cum) / float64(c)
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			return lo + int64(frac*float64(hi-lo))
		}
		cum = next
	}
	return h.Bounds[len(h.Bounds)-1]
}

// Sample is one metric's value at snapshot time.
type Sample struct {
	Name   string
	Labels Labels
	Kind   Kind
	Help   string
	Traced bool
	Value  float64   // counter/gauge/func value
	Hist   *HistData // histogram state (nil otherwise)
}

// Key renders the sample's identity as name{labels}.
func (s *Sample) Key() string {
	lk := labelKey(s.Labels)
	if lk == "" {
		return s.Name
	}
	return s.Name + "{" + lk + "}"
}

// Snapshot is the full machine state at one virtual time.
type Snapshot struct {
	T       int64
	Samples []Sample
}

// Find returns the first sample with the given name and labels, or nil.
func (s *Snapshot) Find(name string, labels Labels) *Sample {
	want := labelKey(labels)
	for i := range s.Samples {
		if s.Samples[i].Name == name && labelKey(s.Samples[i].Labels) == want {
			return &s.Samples[i]
		}
	}
	return nil
}

// Snapshot merges every metric at virtual time now, sorted by
// (name, labels) so output is deterministic and diffable.
func (r *Registry) Snapshot(now int64) Snapshot {
	r.mu.Lock()
	metrics := make([]metric, len(r.metrics))
	copy(metrics, r.metrics)
	r.mu.Unlock()
	snap := Snapshot{T: now, Samples: make([]Sample, 0, len(metrics))}
	for _, m := range metrics {
		snap.Samples = append(snap.Samples, m.collect(now))
	}
	sort.SliceStable(snap.Samples, func(i, j int) bool {
		if snap.Samples[i].Name != snap.Samples[j].Name {
			return snap.Samples[i].Name < snap.Samples[j].Name
		}
		return labelKey(snap.Samples[i].Labels) < labelKey(snap.Samples[j].Labels)
	})
	return snap
}

// snapshotTraced collects only Traced, non-histogram metrics — the cheap
// periodic sample the trace counter tracks are built from. Its one
// allocation is the Samples slice it returns.
func (r *Registry) snapshotTraced(now int64) Snapshot {
	r.mu.Lock()
	metrics := r.traced
	r.mu.Unlock()
	snap := Snapshot{T: now, Samples: make([]Sample, 0, len(metrics))}
	for _, m := range metrics {
		snap.Samples = append(snap.Samples, m.collect(now))
	}
	return snap
}

// EnableSampling turns on periodic traced-metric sampling every interval
// virtual nanoseconds, keeping at most maxSamples snapshots (ring buffer;
// older snapshots are dropped and counted). interval <= 0 disables.
func (r *Registry) EnableSampling(interval int64, maxSamples int) {
	if maxSamples < 1 {
		maxSamples = 4096
	}
	r.histMu.Lock()
	r.histCap = maxSamples
	r.histMu.Unlock()
	r.sampleEvery.Store(interval)
}

// MaybeSample records a traced-metric snapshot when at least the sampling
// interval has elapsed since the last one. Safe for concurrent use from
// every worker. The fast path (sampling off or not yet due) is two atomic
// loads; a due caller re-checks, snapshots and appends inside one histMu
// section, so snapshots enter the ring in the order their timestamps were
// accepted and History is time-ordered by construction — a claimer
// preempted between claiming and filing can no longer land behind a later
// one. Func metrics therefore run with histMu held and must not call back
// into History or EnableSampling.
func (r *Registry) MaybeSample(now int64) bool {
	iv := r.sampleEvery.Load()
	if iv <= 0 || !r.enabled.Load() {
		return false
	}
	if now-r.lastSample.Load() < iv {
		return false
	}
	r.histMu.Lock()
	defer r.histMu.Unlock()
	if now-r.lastSample.Load() < iv {
		return false // another caller filed this interval while we waited
	}
	r.lastSample.Store(now)
	snap := r.snapshotTraced(now)
	if len(r.history) < r.histCap {
		r.history = append(r.history, snap)
	} else {
		r.history[r.histStart] = snap
		r.histStart = (r.histStart + 1) % r.histCap
		r.dropped++
	}
	return true
}

// SampleHorizon returns the earliest virtual time MaybeSample would record
// at (math.MaxInt64 while sampling is off): a MaybeSample(now) with now
// below it does nothing.
func (r *Registry) SampleHorizon() int64 {
	iv := r.sampleEvery.Load()
	if iv <= 0 || !r.enabled.Load() {
		return math.MaxInt64
	}
	return r.lastSample.Load() + iv
}

// History returns the recorded periodic snapshots in time order.
func (r *Registry) History() []Snapshot {
	r.histMu.Lock()
	defer r.histMu.Unlock()
	out := make([]Snapshot, 0, len(r.history))
	out = append(out, r.history[r.histStart:]...)
	out = append(out, r.history[:r.histStart]...)
	return out
}
