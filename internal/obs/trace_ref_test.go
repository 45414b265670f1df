package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// The reference model: the span pipeline as it stood before it was rebuilt
// to touch each span a constant number of times — gather, one sort.Slice
// over every span, a map of appended slices, per-trace maps in the analyzer,
// string-keyed culprit maps. It is the oracle of the differential test and
// the fuzzer below; nothing outside the tests calls it.
//
// Two places of the old code left an order to sort.Slice that sort.Slice
// does not specify, and the model pins both to what the pipeline now
// guarantees:
//   - spans equal under the canonical order (they differ in Chiplet alone:
//     lease grants of several chiplets at one instant) keep their gathered
//     order — shard by shard, emission order — inside a Trace;
//   - two stage spans of one trace with the same Stage index stay in
//     canonical span order in Breakdown.Stages.
// refSpans, which feeds the JSON document, keeps the plain sort.Slice: it
// and slices.SortFunc are the same pdqsort, so equal spans land where they
// always did and the exported bytes do not move.

func refLess(a, b *Span) bool {
	if a.Start != b.Start {
		return a.Start < b.Start
	}
	if a.Trace != b.Trace {
		return a.Trace < b.Trace
	}
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.Stage != b.Stage {
		return a.Stage < b.Stage
	}
	if a.Worker != b.Worker {
		return a.Worker < b.Worker
	}
	if a.End != b.End {
		return a.End < b.End
	}
	if a.Arg != b.Arg {
		return a.Arg < b.Arg
	}
	return a.Arg2 < b.Arg2
}

func refSpans(t *Tracer) []Span {
	out := t.gather()
	sort.Slice(out, func(i, j int) bool { return refLess(&out[i], &out[j]) })
	return out
}

func refTraces(t *Tracer) []Trace {
	spans := t.gather()
	sort.SliceStable(spans, func(i, j int) bool { return refLess(&spans[i], &spans[j]) })
	byID := map[TraceID][]Span{}
	for _, s := range spans {
		byID[s.Trace] = append(byID[s.Trace], s)
	}
	ids := make([]TraceID, 0, len(byID))
	for id := range byID {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]Trace, 0, len(ids))
	for _, id := range ids {
		out = append(out, Trace{ID: id, Spans: byID[id]})
	}
	return out
}

func refWriteJSON(t *Tracer) []byte {
	spans := refSpans(t)
	doc := TraceDoc{Spans: make([]jsonSpan, 0, len(spans)),
		Retained: t.RetainedIDs(), Dropped: t.DroppedSpans()}
	for _, s := range spans {
		doc.Spans = append(doc.Spans, jsonSpan{
			Trace: s.Trace, Kind: s.Kind.String(), Start: s.Start, End: s.End,
			Worker: s.Worker, Chiplet: s.Chiplet, Stage: s.Stage,
			Arg: s.Arg, Arg2: s.Arg2,
		})
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(doc); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func refAnalyze(tr Trace) (Breakdown, bool) {
	b := Breakdown{Trace: tr.ID}
	var stages []Span
	var admit, term *Span
	tasksByStage := map[int32][]Span{}
	for i := range tr.Spans {
		s := &tr.Spans[i]
		switch s.Kind {
		case SpanAdmitQueue:
			admit = s
		case SpanStage:
			stages = append(stages, *s)
		case SpanTask:
			tasksByStage[s.Stage] = append(tasksByStage[s.Stage], *s)
		case SpanShed, SpanExpire, SpanReject, SpanCancel, SpanFail:
			if term == nil || s.End > term.End {
				term = s
			}
			if b.Finish < s.End {
				b.Finish = s.End
			}
		}
	}
	if admit != nil {
		b.Arrival = admit.Start
		b.Priority = admit.Arg
		b.AdmitQueue = admit.End - admit.Start
	} else if term != nil {
		b.Arrival = term.Start
		b.Priority = term.Arg
	}
	if len(stages) == 0 {
		b.Total = b.Finish - b.Arrival
		if b.Total < 0 {
			b.Total = 0
		}
		if b.AdmitQueue < b.Total {
			b.AdmitQueue = b.Total
		}
		return b, false
	}
	sort.SliceStable(stages, func(i, j int) bool { return stages[i].Stage < stages[j].Stage })
	for _, st := range stages {
		sb := StageBreakdown{Stage: st.Stage, Start: st.Start, End: st.End,
			Tasks: st.Arg, Chiplet: -1, Worker: -1}
		wall := st.End - st.Start
		var crit *Span
		tasks := tasksByStage[st.Stage]
		for i := range tasks {
			if crit == nil || tasks[i].End > crit.End {
				crit = &tasks[i]
			}
		}
		if crit != nil {
			execStart := crit.Arg
			queue := execStart - st.Start
			if queue < 0 {
				queue = 0
			}
			stall := crit.Arg2
			compute := crit.End - execStart - stall
			if compute < 0 {
				compute = 0
			}
			if queue+compute+stall > wall {
				over := queue + compute + stall - wall
				if queue >= over {
					queue -= over
				} else {
					over -= queue
					queue = 0
					if compute >= over {
						compute -= over
					} else {
						compute = 0
					}
				}
			}
			sb.Queue, sb.Compute, sb.Stall = queue, compute, stall
			sb.Chiplet, sb.Worker = crit.Chiplet, crit.Worker
			sb.Queue += wall - (queue + compute + stall)
		} else {
			sb.Queue = wall
		}
		b.Stages = append(b.Stages, sb)
		b.DispatchQueue += sb.Queue
		b.Compute += sb.Compute
		b.Stall += sb.Stall
		if b.Finish < st.End {
			b.Finish = st.End
		}
	}
	if b.Arrival == 0 && admit == nil {
		b.Arrival = stages[0].Start
	}
	b.Total = b.Finish - b.Arrival
	attributed := b.AdmitQueue + b.DispatchQueue + b.Compute + b.Stall
	b.Unattributed = b.Total - attributed
	if b.Unattributed < 0 {
		b.Unattributed = 0
	}
	return b, true
}

func refBuildReport(t *Tracer) Report {
	var rep Report
	faults := map[string]*Culprit{}
	chiplets := map[string]*Culprit{}
	stages := map[string]*Culprit{}
	bump := func(m map[string]*Culprit, key string, ns int64) {
		c := m[key]
		if c == nil {
			c = &Culprit{Key: key}
			m[key] = c
		}
		c.NS += ns
		c.Count++
	}
	for _, tr := range refTraces(t) {
		if tr.ID == 0 {
			for _, s := range tr.Spans {
				switch s.Kind {
				case SpanRehome, SpanPark, SpanBreaker:
					bump(faults, s.Kind.String(), 0)
				}
			}
			continue
		}
		for _, s := range tr.Spans {
			switch s.Kind {
			case SpanShed, SpanExpire, SpanFail, SpanCancel:
				bump(faults, s.Kind.String(), 0)
			}
		}
		b, ok := refAnalyze(tr)
		if !ok && b.Total == 0 {
			continue
		}
		rep.Jobs = append(rep.Jobs, b)
		rep.TotalNS += b.Total
		rep.AttribNS += b.Total - b.Unattributed
		rep.QueueNS += b.AdmitQueue + b.DispatchQueue
		rep.ComputeNS += b.Compute
		rep.StallNS += b.Stall
		rep.UnattribNS += b.Unattributed
		for _, st := range b.Stages {
			bump(stages, fmt.Sprintf("stage-%d", st.Stage), st.End-st.Start)
			if st.Chiplet >= 0 {
				bump(chiplets, fmt.Sprintf("chiplet-%d", st.Chiplet), st.Compute+st.Stall)
			}
		}
	}
	refSortCulprits := func(m map[string]*Culprit) []Culprit {
		out := make([]Culprit, 0, len(m))
		for _, c := range m {
			out = append(out, *c)
		}
		sort.Slice(out, func(i, j int) bool {
			if out[i].NS != out[j].NS {
				return out[i].NS > out[j].NS
			}
			if out[i].Count != out[j].Count {
				return out[i].Count > out[j].Count
			}
			return out[i].Key < out[j].Key
		})
		return out
	}
	rep.ByChiplet = refSortCulprits(chiplets)
	rep.ByStage = refSortCulprits(stages)
	rep.ByFault = refSortCulprits(faults)
	sort.Slice(rep.Jobs, func(i, j int) bool {
		if rep.Jobs[i].Total != rep.Jobs[j].Total {
			return rep.Jobs[i].Total > rep.Jobs[j].Total
		}
		return rep.Jobs[i].Trace < rep.Jobs[j].Trace
	})
	return rep
}

// walkTraces collects what eachTrace hands out, each trace's spans copied
// out of the scratch the walk reuses, and the per-kind counts it reports
// before the first trace.
func walkTraces(t *Tracer) (traces []Trace, kinds [1 << 8]int) {
	traces = []Trace{}
	t.eachTrace(func(k *[1 << 8]int) { kinds = *k }, func(tr Trace) {
		traces = append(traces, Trace{ID: tr.ID, Spans: slices.Clone(tr.Spans)})
	})
	return traces, kinds
}

// departure compares everything the tracer exports with the reference
// model's view of the same buffer and describes the first difference: a
// trace of the walk, its kind counts, a job, the rest of the report, the
// JSON document, one TraceOf. It returns "" when there is none.
func departure(tr *Tracer) string {
	want := refTraces(tr)
	got, kinds := walkTraces(tr)
	if !reflect.DeepEqual(got, want) {
		for i := 0; i < len(got) && i < len(want); i++ {
			if !reflect.DeepEqual(got[i], want[i]) {
				return fmt.Sprintf("eachTrace's trace %d:\n got %+v\nwant %+v", i, got[i], want[i])
			}
		}
		return fmt.Sprintf("eachTrace walks %d traces, the reference %d", len(got), len(want))
	}
	var wantKinds [1 << 8]int
	for _, x := range want {
		for _, s := range x.Spans {
			wantKinds[s.Kind]++
		}
	}
	if kinds != wantKinds {
		return fmt.Sprintf("eachTrace counts kinds %v, the buffer holds %v", kinds[:numSpanKinds], wantKinds[:numSpanKinds])
	}
	if got, want := BuildReport(tr), refBuildReport(tr); !reflect.DeepEqual(got, want) {
		for i := 0; i < len(got.Jobs) && i < len(want.Jobs); i++ {
			if !reflect.DeepEqual(got.Jobs[i], want.Jobs[i]) {
				return fmt.Sprintf("BuildReport Jobs[%d]:\n got %+v\nwant %+v", i, got.Jobs[i], want.Jobs[i])
			}
		}
		nGot, nWant := len(got.Jobs), len(want.Jobs)
		got.Jobs, want.Jobs = nil, nil
		return fmt.Sprintf("BuildReport (%d jobs, reference %d):\n got %+v\nwant %+v", nGot, nWant, got, want)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		return err.Error()
	}
	if !bytes.Equal(buf.Bytes(), refWriteJSON(tr)) {
		return fmt.Sprintf("WriteJSON orders its %d spans differently", tr.SpanCount())
	}
	for _, id := range []TraceID{0, 1} {
		var spans []Span
		for _, x := range want {
			if x.ID == id {
				spans = x.Spans
			}
		}
		if got := tr.TraceOf(id).Spans; !reflect.DeepEqual(got, spans) {
			return fmt.Sprintf("TraceOf(%d):\n got %+v\nwant %+v", id, got, spans)
		}
	}
	return ""
}

// randomTraceIDs draws the ids of one buffer: small and dense like a job
// service's, dense behind a large offset, or sparse over all 64 bits (so
// the grouping scatters on one, two or all four digits).
func randomTraceIDs(rng *rand.Rand, n int) []TraceID {
	ids := make([]TraceID, n)
	mode := rng.Intn(3)
	base := TraceID(rng.Uint64())
	for i := range ids {
		switch mode {
		case 0:
			ids[i] = TraceID(1 + rng.Intn(2*n))
		case 1:
			ids[i] = base + TraceID(rng.Intn(1<<17))
		default:
			ids[i] = TraceID(rng.Uint64() | uint64(rng.Intn(2))<<63)
		}
	}
	return ids
}

// emitRandomJob emits one job's spans: a completed multi-stage job with
// retries and equal-End tasks, one that failed or was cancelled mid-way, or
// one that never dispatched (shed, expired, rejected). Each span is lost
// with probability drop, as a full shard would lose it; times are small so
// that keys collide.
func emitRandomJob(rng *rand.Rand, tr *Tracer, id TraceID, drop float64) {
	shards := len(tr.shards)
	emit := func(s Span) {
		if rng.Float64() >= drop {
			s.Trace = id
			tr.Emit(rng.Intn(shards), s)
		}
	}
	arrival := int64(rng.Intn(40))
	prio := int64(rng.Intn(3))
	if rng.Intn(4) == 0 {
		kind := []SpanKind{SpanShed, SpanExpire, SpanReject}[rng.Intn(3)]
		emit(Span{Kind: kind, Start: arrival, End: arrival + int64(rng.Intn(3))*10, Stage: -1, Arg: prio})
		return
	}
	now := arrival + int64(rng.Intn(20))
	emit(Span{Kind: SpanAdmitQueue, Start: arrival, End: now, Stage: -1, Arg: prio})
	for st, n := int32(0), int32(1+rng.Intn(4)); st < n; st++ {
		stage := st
		if rng.Intn(8) == 0 {
			stage = int32(rng.Intn(2)) // a repeated or out-of-order stage index
		}
		tasks := 1 + rng.Intn(5)
		end := now
		for k := 0; k < tasks; k++ {
			w := int32(rng.Intn(8))
			exec := now + int64(rng.Intn(10))
			done := exec + int64(1+rng.Intn(3))*10 // few values: equal Ends
			emit(Span{Kind: SpanTask, Start: now, End: done, Worker: w, Chiplet: w / 2,
				Stage: stage, Arg: exec, Arg2: int64(rng.Intn(8))})
			end = max(end, done)
		}
		end += int64(rng.Intn(3))
		emit(Span{Kind: SpanStage, Start: now, End: end, Stage: stage, Arg: int64(tasks)})
		now = end
		if rng.Intn(12) == 0 {
			kind := []SpanKind{SpanFail, SpanCancel}[rng.Intn(2)]
			emit(Span{Kind: kind, Start: arrival, End: now, Stage: -1, Arg: prio})
			return
		}
	}
}

// emitRuntimeScope emits trace-0 spans, among them lease grants that differ
// in Chiplet alone.
func emitRuntimeScope(rng *rand.Rand, tr *Tracer, n int) {
	kinds := []SpanKind{SpanRehome, SpanPark, SpanBreaker, SpanSLOAlert, SpanLease}
	for i := 0; i < n; i++ {
		at := int64(rng.Intn(30))
		tr.Emit(rng.Intn(len(tr.shards)), Span{Kind: kinds[rng.Intn(len(kinds))], Start: at, End: at,
			Chiplet: int32(rng.Intn(4)), Stage: -1, Arg: int64(rng.Intn(2))})
	}
}

// TestBuildReportMatchesReference: on seeded random span multisets the
// rebuilt pipeline must export what the reference model exports — the
// whole Report under reflect.DeepEqual, the trace document byte for byte.
// Among the buffers are ones whose position index has holes (several
// shards end in a partial chunk), ones that refill chunks a compaction
// emptied, and one of more than 65 536 traces, which the grouping scatters
// on two digits; the test checks that each of these shapes occurred.
func TestBuildReportMatchesReference(t *testing.T) {
	var holes, reused int
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := NewTracer(1+rng.Intn(9), 0)
		tr.SetEnabled(true)
		jobs := rng.Intn(60)
		if seed%25 == 0 {
			jobs = 1500 // past one chunk a shard, and the sorts' small-slice paths
		}
		drop := []float64{0, 0.1, 0.4}[rng.Intn(3)]
		if rng.Intn(4) > 0 {
			emitRuntimeScope(rng, tr, rng.Intn(40))
		}
		emitJobs := func(ids []TraceID) {
			for _, id := range ids {
				emitRandomJob(rng, tr, id, drop) // a repeated id merges two jobs' spans: still a trace
				if rng.Intn(3) == 0 {
					tr.Release(id)
				} else if rng.Intn(8) == 0 {
					tr.Retain(id)
				}
			}
		}
		emitJobs(randomTraceIDs(rng, jobs))
		if seed == 150 {
			// 70 000 more traces of one span each, ids 1..70 000 in random
			// order: the grouping scatters on two digits.
			for _, j := range rng.Perm(70_000) {
				at := int64(rng.Intn(40))
				tr.Emit(rng.Intn(len(tr.shards)), Span{Trace: TraceID(j + 1), Kind: SpanShed,
					Start: at, End: at + int64(rng.Intn(3)), Stage: -1})
			}
		}
		if rng.Intn(2) == 0 {
			tr.Compact()
			if seed%25 == 0 {
				// Refill what the compaction emptied: Emit takes freed
				// chunks before it allocates.
				free := func() (n int) {
					for i := range tr.shards {
						n += len(tr.shards[i].free)
					}
					return n
				}
				before := free()
				emitJobs(randomTraceIDs(rng, jobs))
				if free() < before {
					reused++
				}
			}
		}
		partial := 0
		for i := range tr.shards {
			if c := tr.shards[i].chunks; len(c) > 0 && len(c[len(c)-1]) < spanChunk {
				partial++
			}
		}
		if partial >= 2 && tr.SpanCount() > spanChunk {
			holes++
		}
		if d := departure(tr); d != "" {
			t.Fatalf("seed %d departs from the reference model: %s", seed, d)
		}
	}
	if holes == 0 || reused == 0 {
		t.Fatalf("the seeds built %d buffers with holes in the index and %d that reused freed chunks; want both", holes, reused)
	}
}

// FuzzBuildReport drives the same oracle from raw bytes: nine bytes a span,
// every field squeezed into a few values so that collisions are the rule;
// the ninth byte picks the shard, or repeats the span, or releases its
// trace and compacts.
func FuzzBuildReport(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 10, 0, 0, 0, 0, 0, 1, 1, 10, 30, 0, 0, 4, 0, 1, 1, 2, 10, 25, 0, 3, 12, 2, 2})
	f.Add(bytes.Repeat([]byte{0xff, 7, 3, 9, 1, 2, 3, 4, 5}, 40))
	// Trace 1 is admitted after its stage ran: a negative Total, which
	// must still order below trace 2's.
	f.Add([]byte{1, 0, 30, 1, 0, 0, 0, 0, 0, 1, 1, 0, 5, 0, 1, 1, 0, 1, 2, 0, 0, 2, 0, 0, 0, 0, 2, 2, 1, 2, 5, 0, 1, 1, 0, 0})
	f.Add(append(bytes.Repeat([]byte{3, 1, 5, 9, 1, 0, 7, 2, 0xc1}, 4),
		[]byte{3, 0, 0, 0, 0, 0, 0, 0, 0xf0, 4, 2, 6, 1, 2, 0, 1, 1, 0xc1}...))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := NewTracer(3, 0)
		tr.SetEnabled(true)
		for ; len(data) >= 9; data = data[9:] {
			id := TraceID(data[0] % 8)
			if data[0] >= 128 {
				id = TraceID(data[0]) << (data[0] % 57) // sparse, up to the top bit
			}
			if data[8] >= 0xf0 {
				// Release the trace and compact: chunks empty, and later
				// spans refill them.
				tr.Release(id)
				tr.Compact()
				continue
			}
			start := int64(data[2] % 32)
			s := Span{
				Trace: id, Kind: SpanKind(data[1] % uint8(SpanLease+1)), // the job-trace kinds
				Start: start, End: start + int64(data[3]%32),
				Worker: int32(data[4] % 4), Chiplet: int32(data[4]%4) / 2,
				Stage: int32(data[5]%4) - 1,
				Arg:   int64(data[6] % 48), Arg2: int64(data[7] % 8),
			}
			// From 0xc0 on a record stands for 400 copies of its span, so
			// that a short input crosses chunk boundaries.
			for n := 1 + 399*int(data[8]/0xc0); n > 0; n-- {
				tr.Emit(int(data[8])%3, s)
			}
		}
		if d := departure(tr); d != "" {
			t.Fatalf("departs from the reference model: %s", d)
		}
	})
}

// refRecorder is the flight recorder as it stood: a set of released traces
// edited on every Retain and Release, a slice of spans a shard filtered in
// place.
type refRecorder struct {
	cap      int
	shards   [][]Span
	retained map[TraceID]struct{}
	ring     []TraceID
	released map[TraceID]struct{}
}

func (r *refRecorder) retain(id TraceID) {
	if _, ok := r.retained[id]; ok || id == 0 {
		return
	}
	if len(r.ring) >= r.cap {
		old := r.ring[0]
		r.ring = r.ring[1:]
		delete(r.retained, old)
		r.released[old] = struct{}{}
	}
	r.retained[id] = struct{}{}
	r.ring = append(r.ring, id)
	delete(r.released, id)
}

func (r *refRecorder) release(id TraceID) {
	if _, ok := r.retained[id]; !ok && id != 0 {
		r.released[id] = struct{}{}
	}
}

func (r *refRecorder) compact() {
	for i, spans := range r.shards {
		kept := spans[:0]
		for _, s := range spans {
			if _, drop := r.released[s.Trace]; !drop {
				kept = append(kept, s)
			}
		}
		r.shards[i] = kept
	}
	r.released = map[TraceID]struct{}{}
}

// TestTracerCompactMatchesReference: random Emit/Retain/Release/Compact
// sequences over several chunks a shard must leave each shard holding the
// spans the old set-based recorder kept, in the same order, with the same
// ring — whatever the order in which a trace was released, retained and
// evicted.
func TestTracerCompactMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const shards, ids = 3, 24
		tr := NewTracer(shards, 3*spanChunk+17)
		tr.SetEnabled(true)
		tr.ring = make([]TraceID, 4)
		ref := &refRecorder{cap: 4, shards: make([][]Span, shards),
			retained: map[TraceID]struct{}{}, released: map[TraceID]struct{}{}}
		for op := 0; op < 12_000; op++ {
			id := TraceID(rng.Intn(ids))
			switch r := rng.Intn(1000); {
			case r < 960:
				sh := rng.Intn(shards)
				s := Span{Trace: id, Kind: SpanStage, Start: int64(op), End: int64(op) + 1}
				tr.Emit(sh, s)
				if len(ref.shards[sh]) < 3*spanChunk+17 {
					ref.shards[sh] = append(ref.shards[sh], s)
				}
			case r < 975:
				tr.Retain(id)
				ref.retain(id)
			case r < 995:
				tr.Release(id)
				ref.release(id)
			default:
				tr.Compact()
				ref.compact()
			}
		}
		tr.Compact()
		ref.compact()
		if got := tr.RetainedIDs(); !reflect.DeepEqual(got, append([]TraceID(nil), ref.ring...)) {
			t.Fatalf("seed %d: ring %v, reference %v", seed, got, ref.ring)
		}
		for i := range tr.shards {
			var got []Span
			for _, c := range tr.shards[i].chunks {
				if len(c) == 0 || len(got)%spanChunk != 0 {
					t.Fatalf("seed %d: shard %d holds an empty chunk or a partial one before its last", seed, i)
				}
				got = append(got, c...)
			}
			if len(got) != tr.shards[i].n || !reflect.DeepEqual(got, append([]Span(nil), ref.shards[i]...)) {
				t.Fatalf("seed %d: shard %d holds %d spans (n=%d), reference %d",
					seed, i, len(got), tr.shards[i].n, len(ref.shards[i]))
			}
		}
	}
}
