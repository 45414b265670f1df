package obs

import (
	"cmp"
	"encoding/json"
	"io"
	"slices"
	"sync"
	"sync/atomic"
)

// This file is the runtime's one event record. Every job admitted through
// the open-loop service carries a TraceID, and the runtime emits typed span
// events — queue wait, per-stage execution, per-task lifecycle, sheds,
// breaker transitions — into a sharded span buffer. The same buffer
// holds the profile: every task's lifecycle, the Alg. 1 samples, and the
// migration and fault instants. Two gates decide what is recorded: tracing
// records the job kinds, profiling the profile kinds, and a task, re-home
// or park is recorded by either (Span.gates). Spans carry only
// virtual timestamps, so under deterministic lockstep two runs of the same
// seeded workload produce byte-identical trace output (see WriteJSON's
// canonical ordering).
//
// Buffering follows the registry's sharding rule: each worker appends to
// its own cache-padded shard, so concurrent workers never contend; the
// service-side emissions (admission, stage advancement, breakers) go to a
// dedicated extra shard serialized by the service lock. Shard locks exist
// only so post-run collection and mid-run compaction are race-free — in
// steady state every shard has exactly one writer and the lock is never
// contended.
// Each span is touched a constant number of times: appended to a fixed-size
// chunk, packed chunk by chunk by compaction, and, for the critical-path
// report, grouped through an index of its position by a counting scatter
// on its TraceID and copied once into a per-trace scratch (DESIGN.md §4.15).

// TraceID identifies one job's causal trace. 0 is the runtime scope:
// spans that belong to the machine (re-homes, parks, breaker flaps, SLO
// alerts) rather than to a single job.
type TraceID uint64

// SpanKind types a span event.
type SpanKind uint8

const (
	// SpanAdmitQueue covers arrival → dispatch: the admission-queue wait.
	// Arg is the job's priority class.
	SpanAdmitQueue SpanKind = iota
	// SpanStage covers one job stage: dispatch → barrier release.
	// Stage is the stage index; Arg is the stage's task count.
	SpanStage
	// SpanTask is one task's lifecycle: Start is the enqueue stamp, End
	// the completion; Arg is the first-execution time (so Arg−Start is the
	// task's dispatch-queue wait and End−Arg its execution window) and
	// Arg2 the virtual ns of that window spent in simulated memory/fabric
	// accesses (the stall aggregate). Worker completed it; Task, Home,
	// Steals, Hops and Flags carry its provenance. A task outside any job
	// (trace 0) is recorded only while profiling.
	SpanTask
	// SpanRehome is an instant: a worker migrated off a dead core.
	// Arg is the replacement core.
	SpanRehome
	// SpanPark is an instant: a worker parked with no replacement core.
	SpanPark
	// SpanCancel is an instant: the job was discarded after cancellation.
	SpanCancel
	// SpanShed covers arrival → drop for a job discarded by deadline-
	// aware shedding (hopeless budget or evicted). Arg is the priority.
	SpanShed
	// SpanReject is an instant: the job was refused at admission.
	SpanReject
	// SpanExpire covers arrival → drop for a job whose deadline passed
	// while queued.
	SpanExpire
	// SpanFail is an instant: a task failure terminated the job.
	SpanFail
	// SpanBreaker is an instant: a chiplet breaker changed state.
	// Chiplet locates it; Arg is the new state, Arg2 the previous
	// (admit.BreakerState values).
	SpanBreaker
	// SpanSLOAlert is an instant: a burn-rate alert fired (Arg2=1) or
	// cleared (Arg2=0) for priority class Arg.
	SpanSLOAlert
	// SpanLease is an instant: a chiplet-group lease changed hands.
	// Chiplet locates it; Arg is the new tenant index (-1 = freed), Arg2
	// the previous owner (-1 = was free).
	SpanLease

	// The profile kinds, recorded only while profiling. Each is a
	// runtime-scope instant on Worker's track.

	// SpanSpread samples a worker's Alg. 1 spread_rate (Arg) after a
	// decision.
	SpanSpread
	// SpanFillRate samples the normalized fill rate (Arg) an Alg. 1
	// decision saw.
	SpanFillRate
	// SpanMigration: the worker moved to core Arg.
	SpanMigration
	// SpanOffline: the worker found its core offline.
	SpanOffline
	// SpanResume: a parked worker resumed on its revived core.
	SpanResume

	numSpanKinds
)

// Span.Flags bits of a SpanTask.
const (
	// FlagRemoteSteal marks a task that a steal moved across a chiplet
	// boundary.
	FlagRemoteSteal uint8 = 1 << iota
	// FlagDelegated marks a task shipped by Call, CallAsync or Delegate.
	FlagDelegated
)

// String names the kind for reports and serialized traces.
func (k SpanKind) String() string {
	switch k {
	case SpanAdmitQueue:
		return "admit-queue"
	case SpanStage:
		return "stage"
	case SpanTask:
		return "task"
	case SpanRehome:
		return "rehome"
	case SpanPark:
		return "park"
	case SpanCancel:
		return "cancel"
	case SpanShed:
		return "shed"
	case SpanReject:
		return "reject"
	case SpanExpire:
		return "expire"
	case SpanFail:
		return "fail"
	case SpanBreaker:
		return "breaker"
	case SpanSLOAlert:
		return "slo-alert"
	case SpanLease:
		return "lease"
	case SpanSpread:
		return "spread"
	case SpanFillRate:
		return "fill-rate"
	case SpanMigration:
		return "migration"
	case SpanOffline:
		return "offline"
	case SpanResume:
		return "resume"
	}
	return "?"
}

// Span is one typed trace event in virtual time. Instant events have
// End == Start. The Arg/Arg2 meanings are kind-specific (see the kind
// constants). The fields are ordered widest first, which packs a span in
// 72 bytes.
type Span struct {
	Trace TraceID
	Start int64
	End   int64
	Arg   int64
	Arg2  int64
	// Task is a SpanTask's runtime-wide task sequence number.
	Task    uint64
	Worker  int32
	Chiplet int32
	Stage   int32
	// Home is the worker a SpanTask was submitted to; Steals counts the
	// steals that moved it and Hops its delegation depth.
	Home   int32
	Steals uint16
	Hops   uint16
	Kind   SpanKind
	Flags  uint8
}

// gates reports which gates record s: tracing records the job kinds and
// profiling the profile kinds. A task is both when it belongs to a job and
// a profile kind otherwise; a re-home or park is both.
func (s *Span) gates() (job, profile bool) {
	switch s.Kind {
	case SpanTask:
		return s.Trace != 0, true
	case SpanRehome, SpanPark:
		return true, true
	}
	profile = s.Kind >= SpanSpread
	return !profile, profile
}

// spanChunk is the length of one buffer chunk: 1024 spans = 72 KiB, so a
// shard grows by one fixed-size allocation at a time. In eachTrace's index a
// span's position is its chunk's number in the table of every shard's
// chunks, shifted left by spanChunkBits, plus its offset in the chunk (so
// 4 Mi chunks, 288 GiB of spans, fit in the uint32).
const (
	spanChunkBits = 10
	spanChunk     = 1 << spanChunkBits
)

// traceShard is one writer's private span buffer: a list of chunks of cap
// spanChunk of which every one but the last is full, so span k of the
// shard is chunks[k/spanChunk][k%spanChunk]. The mutex is only ever
// contended by post-run collection and compaction; steady-state appends
// come from the shard's single owner. 64 bytes: one cache line a shard.
type traceShard struct {
	mu     sync.Mutex
	chunks [][]Span
	free   [][]Span // emptied by compaction, reused before allocating
	n      int      // buffered spans
}

// DefaultSpanCap is the per-shard span bound when NewTracer is given 0.
const DefaultSpanCap = 1 << 16

// DefaultFlightRecorderCap bounds how many violating/anomalous traces the
// flight recorder retains.
const DefaultFlightRecorderCap = 256

// Tracer is the runtime's span sink. Emission is gated on two atomic
// flags, tracing (the job kinds) and profiling (the profile kinds): with
// both off an Emit costs two atomic loads and no writes, so recorded and
// unrecorded runs have identical virtual-time results. While profiling is
// on the record is complete: the shard cap drops nothing and Compact is a
// no-op.
type Tracer struct {
	enabled     atomic.Bool
	profiling   atomic.Bool
	shardCap    int
	shards      []traceShard
	dropped     atomic.Int64
	compactions atomic.Int64

	// Flight-recorder state: a bounded FIFO of retained TraceIDs plus
	// the log of released (healthy and completed, or ring-evicted) traces
	// that the next compaction may reclaim. Append-only, so finishing a
	// job edits no set; Compact skips the ones retained since. The FIFO is
	// a circular buffer whose length is its capacity: ringN entries from
	// ringHead on, wrapping. The first Retain allocates it
	// (DefaultFlightRecorderCap entries).
	recMu    sync.Mutex
	retained map[TraceID]struct{}
	ring     []TraceID
	ringHead int
	ringN    int
	released []TraceID
}

// NewTracer builds a tracer with the given shard count (one per worker
// plus one for the service side) and per-shard span bound (0 selects
// DefaultSpanCap). The tracer starts disabled.
func NewTracer(shards, shardCap int) *Tracer {
	if shards < 1 {
		shards = 1
	}
	if shardCap <= 0 {
		shardCap = DefaultSpanCap
	}
	return &Tracer{
		shardCap: shardCap,
		shards:   make([]traceShard, shards),
		retained: map[TraceID]struct{}{},
	}
}

// SetEnabled turns job tracing on or off.
func (t *Tracer) SetEnabled(on bool) { t.enabled.Store(on) }

// Enabled reports whether job kinds are being recorded.
func (t *Tracer) Enabled() bool { return t.enabled.Load() }

// SetProfiling turns the profile on or off.
func (t *Tracer) SetProfiling(on bool) { t.profiling.Store(on) }

// Emit appends one span to the given shard. It is a no-op unless a gate
// that records the span's kind is on; a full shard drops the span and
// counts it, unless profiling is on.
func (t *Tracer) Emit(shard int, s Span) {
	job, profile := s.gates()
	profiling := t.profiling.Load()
	if !(profile && profiling || job && t.enabled.Load()) {
		return
	}
	sh := &t.shards[shard]
	sh.mu.Lock()
	if sh.n >= t.shardCap && !profiling {
		sh.mu.Unlock()
		t.dropped.Add(1)
		return
	}
	k := sh.n / spanChunk
	if k == len(sh.chunks) { // every chunk is full
		c := make([]Span, 0, spanChunk)
		if f := len(sh.free); f > 0 {
			c, sh.free = sh.free[f-1][:0], sh.free[:f-1]
		}
		sh.chunks = append(sh.chunks, c)
	}
	sh.chunks[k] = append(sh.chunks[k], s)
	sh.n++
	sh.mu.Unlock()
}

// DroppedSpans reports how many spans were discarded on full shards.
func (t *Tracer) DroppedSpans() int64 { return t.dropped.Load() }

// Retain marks a trace for flight-recorder retention (SLO violators and
// anomalies). When the ring is full the oldest retained trace is evicted
// and released for compaction.
func (t *Tracer) Retain(id TraceID) {
	if !t.enabled.Load() || id == 0 {
		return
	}
	t.recMu.Lock()
	if t.ring == nil {
		t.ring = make([]TraceID, DefaultFlightRecorderCap)
	}
	if _, ok := t.retained[id]; !ok {
		if t.ringN == len(t.ring) {
			old := t.ring[t.ringHead]
			delete(t.retained, old)
			t.released = append(t.released, old)
			t.ringHead = (t.ringHead + 1) % len(t.ring)
			t.ringN--
		}
		t.retained[id] = struct{}{}
		t.ring[(t.ringHead+t.ringN)%len(t.ring)] = id
		t.ringN++
	}
	t.recMu.Unlock()
}

// Release marks a completed trace as uninteresting: compaction may drop
// its spans to reclaim buffer space (tail-based retention — only
// violating traces keep their full span record).
func (t *Tracer) Release(id TraceID) {
	if !t.enabled.Load() || id == 0 {
		return
	}
	t.recMu.Lock()
	t.released = append(t.released, id)
	t.recMu.Unlock()
}

// RetainedIDs returns the flight recorder's contents in retention order.
func (t *Tracer) RetainedIDs() []TraceID {
	t.recMu.Lock()
	out := make([]TraceID, t.ringN)
	for i := range out {
		out[i] = t.ring[(t.ringHead+i)%len(t.ring)]
	}
	t.recMu.Unlock()
	return out
}

// Compact drops the spans of released (healthy, completed) traces from
// every shard, reclaiming buffer space mid-run. The caller decides when
// — the job service invokes it from its evaluation tick once the buffer
// passes a high-water mark, which keeps the decision in virtual time and
// therefore deterministic. While profiling is on it drops nothing: the
// profile keeps every task.
func (t *Tracer) Compact() {
	if t.profiling.Load() {
		return
	}
	t.recMu.Lock()
	drop := make(map[TraceID]struct{}, len(t.released))
	for _, id := range t.released {
		if _, keep := t.retained[id]; !keep {
			drop[id] = struct{}{}
		}
	}
	t.released = t.released[:0]
	t.recMu.Unlock()
	if len(drop) == 0 {
		return
	}
	t.compactions.Add(1)
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		// Pack the survivors toward the front, chunk by chunk; the write
		// position never passes the read position.
		kept := 0
		for _, c := range sh.chunks {
			for j := range c {
				if _, ok := drop[c[j].Trace]; !ok {
					sh.chunks[kept/spanChunk][:spanChunk][kept%spanChunk] = c[j]
					kept++
				}
			}
		}
		used := (kept + spanChunk - 1) / spanChunk
		sh.free = append(sh.free, sh.chunks[used:]...)
		sh.chunks = sh.chunks[:used]
		if used > 0 {
			sh.chunks[used-1] = sh.chunks[used-1][:kept-(used-1)*spanChunk]
		}
		sh.n = kept
		sh.mu.Unlock()
	}
}

// Size returns how many spans are buffered and how many chunks (spanChunk
// spans, 72 KiB each; recycled ones included) the shards hold.
func (t *Tracer) Size() (spans, chunks int) {
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		spans += sh.n
		chunks += len(sh.chunks) + len(sh.free)
		sh.mu.Unlock()
	}
	return spans, chunks
}

// SpanCount returns the number of buffered spans across all shards.
func (t *Tracer) SpanCount() int {
	n, _ := t.Size()
	return n
}

// Compactions reports how many Compact calls found something to drop.
func (t *Tracer) Compactions() int64 { return t.compactions.Load() }

// spanCmp is the canonical span order, so any two runs that produced the
// same span multiset serialize byte-identically regardless of shard
// placement. Chiplet is not a key: where spans that differ in it alone
// (lease grants at one instant) end up is each sort's business. It returns
// at the first key that differs.
func spanCmp(a, b Span) int {
	switch {
	case a.Start != b.Start:
		return cmp.Compare(a.Start, b.Start)
	case a.Trace != b.Trace:
		return cmp.Compare(a.Trace, b.Trace)
	case a.Kind != b.Kind:
		return cmp.Compare(a.Kind, b.Kind)
	case a.Stage != b.Stage:
		return cmp.Compare(a.Stage, b.Stage)
	case a.Worker != b.Worker:
		return cmp.Compare(a.Worker, b.Worker)
	case a.End != b.End:
		return cmp.Compare(a.End, b.End)
	case a.Arg != b.Arg:
		return cmp.Compare(a.Arg, b.Arg)
	}
	return cmp.Compare(a.Arg2, b.Arg2)
}

// eachChunk calls f on every buffered chunk, shard by shard in emission
// order, holding the shard's lock.
func (t *Tracer) eachChunk(f func([]Span)) {
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for _, c := range sh.chunks {
			f(c)
		}
		sh.mu.Unlock()
	}
}

// gather copies every buffered span into one presized slice.
func (t *Tracer) gather() []Span {
	out := make([]Span, 0, t.SpanCount())
	t.eachChunk(func(c []Span) { out = append(out, c...) })
	return out
}

// Spans merges every shard's buffer in canonical order.
func (t *Tracer) Spans() []Span {
	out := t.gather()
	slices.SortFunc(out, spanCmp)
	return out
}

// Trace is one job's collected spans in canonical order.
type Trace struct {
	ID    TraceID
	Spans []Span
}

// TraceOf collects the spans of a single trace: only the matches are
// copied and sorted (equal spans in gathered order, as in eachTrace).
func (t *Tracer) TraceOf(id TraceID) Trace {
	tr := Trace{ID: id}
	t.eachChunk(func(c []Span) {
		for i := range c {
			if c[i].Trace == id {
				tr.Spans = append(tr.Spans, c[i])
			}
		}
	})
	slices.SortStableFunc(tr.Spans, spanCmp)
	return tr
}

// eachTrace calls f on every buffered trace in ascending TraceID order (the
// runtime scope, trace 0, first when present), its spans in canonical order
// and spans equal under spanCmp in gathered order: shard by shard, emission
// order. Before the first trace it calls size with the number of buffered
// spans of each kind, so that the caller can size what it fills.
//
// The buffer is never copied whole. The walk indexes every span by its
// position, groups the positions by TraceID (radixStable) and copies one
// trace at a time into a scratch slice that the next trace reuses, so f
// must not keep tr.Spans.
//
// The walk holds every shard lock, taken in shard order, from its first
// read to its last f: a report is a post-run read, so it sees one
// consistent buffer, and a worker that emits meanwhile waits for it. f must
// not call into the tracer.
func (t *Tracer) eachTrace(size func(kinds *[1 << 8]int), f func(tr Trace)) {
	for i := range t.shards {
		t.shards[i].mu.Lock()
	}
	defer func() {
		for i := range t.shards {
			t.shards[i].mu.Unlock()
		}
	}()
	var chunks [][]Span
	n := 0
	for i := range t.shards {
		chunks = append(chunks, t.shards[i].chunks...)
		n += t.shards[i].n
	}
	span := func(p uint32) *Span { return &chunks[p>>spanChunkBits][p&(spanChunk-1)] }
	var kinds [1 << 8]int
	pos := make([]uint32, 0, n)
	var vary TraceID
	for c, ch := range chunks {
		for o := range ch {
			pos = append(pos, uint32(c)<<spanChunkBits|uint32(o))
			kinds[ch[o].Kind]++
			vary |= ch[o].Trace ^ chunks[0][0].Trace
		}
	}
	size(&kinds)
	pos = radixStable(pos, make([]uint32, n), uint64(vary), func(p uint32) uint64 { return uint64(span(p).Trace) })
	var buf []Span
	for lo := 0; lo < len(pos); {
		id := span(pos[lo]).Trace
		buf = buf[:0]
		for ; lo < len(pos) && span(pos[lo]).Trace == id; lo++ {
			buf = append(buf, *span(pos[lo]))
		}
		// A job's run is a handful of spans: an insertion sort. Stable, so
		// spans equal under spanCmp stay in gathered order.
		slices.SortStableFunc(buf, spanCmp)
		f(Trace{ID: id, Spans: buf})
	}
}

// radixStable orders pos by key, stably: a counting scatter per 16-bit
// digit of the key, least significant first, skipping the digits in which
// vary has no bit set (vary has a bit set wherever two keys differ). Job ids
// and latencies are small and dense, so this is one or two passes; sparse
// or huge keys cost up to four. tmp is scratch as long as pos; the result
// is whichever of the two the last pass filled.
func radixStable(pos, tmp []uint32, vary uint64, key func(uint32) uint64) []uint32 {
	var at []int32
	for shift := 0; shift < 64; shift += 16 {
		if vary>>shift&0xffff == 0 {
			continue
		}
		if at == nil {
			at = make([]int32, 1<<16)
		} else {
			clear(at)
		}
		for _, p := range pos {
			at[key(p)>>shift&0xffff]++
		}
		next := int32(0)
		for d, c := range at {
			at[d], next = next, next+c
		}
		for _, p := range pos {
			d := key(p) >> shift & 0xffff
			tmp[at[d]] = p
			at[d]++
		}
		pos, tmp = tmp, pos
	}
	return pos
}

// jsonSpan is the serialized span form: stable field order, symbolic
// kind, virtual-ns timestamps.
type jsonSpan struct {
	Trace   TraceID `json:"trace"`
	Kind    string  `json:"kind"`
	Start   int64   `json:"start"`
	End     int64   `json:"end"`
	Worker  int32   `json:"worker"`
	Chiplet int32   `json:"chiplet"`
	Stage   int32   `json:"stage"`
	Arg     int64   `json:"arg,omitempty"`
	Arg2    int64   `json:"arg2,omitempty"`
}

// TraceDoc is the serialized trace document.
type TraceDoc struct {
	Spans    []jsonSpan `json:"spans"`
	Retained []TraceID  `json:"retained,omitempty"`
	Dropped  int64      `json:"dropped,omitempty"`
}

// WriteJSON serializes every buffered span (canonical order) plus the
// flight-recorder contents. Two deterministic runs of the same seeded
// workload produce byte-identical output.
func (t *Tracer) WriteJSON(w io.Writer) error {
	spans := t.Spans()
	doc := TraceDoc{Spans: make([]jsonSpan, 0, len(spans)),
		Retained: t.RetainedIDs(), Dropped: t.dropped.Load()}
	for _, s := range spans {
		doc.Spans = append(doc.Spans, jsonSpan{
			Trace: s.Trace, Kind: s.Kind.String(), Start: s.Start, End: s.End,
			Worker: s.Worker, Chiplet: s.Chiplet, Stage: s.Stage,
			Arg: s.Arg, Arg2: s.Arg2,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}
