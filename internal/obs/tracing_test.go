package obs

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// --- Prometheus label escaping (exposition-format compliance) ---

func TestPromLabelEscaping(t *testing.T) {
	cases := []struct{ in, want string }{
		{"plain", "plain"},
		{`back\slash`, `back\\slash`},
		{`dou"ble`, `dou\"ble`},
		{"new\nline", `new\nline`},
		{"tab\tstays", "tab\tstays"}, // only \ " \n are escaped
		{"uni-\u00e9\u4e16", "uni-\u00e9\u4e16"},
		{`all\three"at
once`, `all\\three\"at\nonce`},
		{"", ""},
	}
	for _, c := range cases {
		if got := escapeLabel(c.in); got != c.want {
			t.Errorf("escapeLabel(%q) = %q, want %q", c.in, got, c.want)
		}
	}
	// End to end: the escaped value must appear in the exposition line and
	// the raw value must not produce an unescaped quote or newline.
	r := NewRegistry(1)
	r.SetEnabled(true)
	r.Counter("charm_escape_test_total", "h", Labels{"path": "a\\b\"c\nd"}).Inc(0)
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r.Snapshot(0)); err != nil {
		t.Fatal(err)
	}
	want := `charm_escape_test_total{path="a\\b\"c\nd"} 1`
	if !strings.Contains(buf.String(), want) {
		t.Errorf("exposition output missing %q:\n%s", want, buf.String())
	}
}

// --- JSON export edge cases (labels survive, exemplars surface) ---

func TestJSONLabelAndExemplarEdgeCases(t *testing.T) {
	r := NewRegistry(2)
	r.SetEnabled(true)
	r.Counter("charm_json_edge_total", "h", Labels{"k": `q"uote` + "\nnl"}).Inc(0)
	h := r.Histogram("charm_json_lat_ns", "h", nil, []int64{10, 100}, WithExemplars())
	h.ObserveT(0, 5, TraceID(7))
	h.ObserveT(1, 500, TraceID(9))
	h.ObserveT(1, 500, TraceID(3)) // 9 stays: exemplar keeps the max trace
	doc := writtenDoc(t, r.Snapshot(0), nil)
	var found, exemplars int
	for _, m := range doc.Metrics {
		switch m.Name {
		case "charm_json_edge_total":
			found++
			if m.Labels["k"] != `q"uote`+"\nnl" {
				t.Errorf("label mangled in JSON: %q", m.Labels["k"])
			}
		case "charm_json_lat_ns":
			found++
			for _, b := range m.Buckets {
				switch b.Exemplar {
				case 7:
					if b.LE != "10" {
						t.Errorf("exemplar 7 on bucket le=%s, want 10", b.LE)
					}
					exemplars++
				case 9:
					if b.LE != "+Inf" {
						t.Errorf("exemplar 9 on bucket le=%s, want +Inf", b.LE)
					}
					exemplars++
				case 0: // no exemplar on this bucket
				default:
					t.Errorf("unexpected exemplar %d on le=%s", b.Exemplar, b.LE)
				}
			}
		}
	}
	if found != 2 {
		t.Fatalf("found %d of 2 metrics in JSON doc", found)
	}
	if exemplars != 2 {
		t.Errorf("surfaced %d exemplars, want 2", exemplars)
	}
}

// TestHistogramExemplars: the per-bucket exemplar slot must keep the
// maximum TraceID across shards (a shard-order-independent merge), and a
// histogram without WithExemplars must return nil.
func TestHistogramExemplars(t *testing.T) {
	r := NewRegistry(4)
	r.SetEnabled(true)
	h := r.Histogram("charm_ex_ns", "h", nil, []int64{100}, WithExemplars())
	for shard := 0; shard < 4; shard++ {
		h.ObserveT(shard, 50, TraceID(10+shard))
		h.ObserveT(shard, 5000, TraceID(20+shard))
	}
	h.ObserveT(0, 50, 0) // trace 0 never becomes an exemplar
	ex := h.Exemplars()
	if len(ex) != 2 {
		t.Fatalf("exemplar slots = %d, want 2", len(ex))
	}
	if ex[0] != 13 || ex[1] != 23 {
		t.Errorf("exemplars = %v, want [13 23]", ex)
	}
	plain := r.Histogram("charm_noex_ns", "h", nil, []int64{100})
	plain.Observe(0, 50)
	if plain.Exemplars() != nil {
		t.Error("histogram without WithExemplars returned exemplars")
	}
}

// --- Sampling under concurrency (satellite: race coverage) ---

// TestSamplingConcurrentShards: concurrent MaybeSample and shard writes
// must race-cleanly produce a bounded history with monotone timestamps and
// an accurate drop count.
func TestSamplingConcurrentShards(t *testing.T) {
	const shards, iters, cap = 8, 2000, 16
	r := NewRegistry(shards)
	r.SetEnabled(true)
	r.EnableSampling(1, cap) // every virtual tick
	c := r.Counter("charm_samp_total", "h", nil, Traced())
	g := r.Gauge("charm_samp_gauge", "h", nil, Traced())
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 1; i <= iters; i++ {
				c.Inc(s)
				g.Set(s, int64(i))
				r.MaybeSample(int64(i))
			}
		}(s)
	}
	wg.Wait()
	hist := r.History()
	if len(hist) == 0 || len(hist) > cap {
		t.Fatalf("history length %d, want 1..%d", len(hist), cap)
	}
	for i := 1; i < len(hist); i++ {
		if hist[i].T <= hist[i-1].T {
			t.Fatalf("history out of order: T[%d]=%d, T[%d]=%d",
				i-1, hist[i-1].T, i, hist[i].T)
		}
	}
	// Every sample taken past the cap evicted exactly one snapshot.
	taken := int64(len(hist)) + r.dropped
	if r.dropped == 0 && taken > cap {
		t.Errorf("took %d samples with cap %d but dropped none", taken, cap)
	}
	if c.Value() != shards*iters {
		t.Errorf("counter = %d, want %d", c.Value(), shards*iters)
	}
}

// --- Tracer mechanics ---

// TestTracerRetainReleaseCompact: Compact must drop only the spans of
// released (or ring-evicted) traces and keep retained ones intact.
func TestTracerRetainReleaseCompact(t *testing.T) {
	tr := NewTracer(2, 0)
	tr.SetEnabled(true)
	for id := TraceID(1); id <= 4; id++ {
		tr.Emit(int(id)%2, Span{Trace: id, Kind: SpanTask, Start: int64(id), End: int64(id) + 1})
	}
	tr.Retain(1)
	tr.Retain(2)
	tr.Release(3)
	tr.Release(4)
	tr.Compact()
	if got := len(tr.TraceOf(1).Spans) + len(tr.TraceOf(2).Spans); got != 2 {
		t.Errorf("retained traces lost spans: %d left, want 2", got)
	}
	for _, id := range []TraceID{3, 4} {
		if n := len(tr.TraceOf(id).Spans); n != 0 {
			t.Errorf("released trace %d still has %d spans", id, n)
		}
	}
	// A trace that is neither retained nor released survives compaction
	// (it may still be in flight).
	tr.Emit(0, Span{Trace: 9, Kind: SpanTask, Start: 9, End: 10})
	tr.Compact()
	if n := len(tr.TraceOf(9).Spans); n != 1 {
		t.Errorf("in-flight trace compacted away (%d spans)", n)
	}

	// Across chunk boundaries: three traces laid out as one full chunk, one
	// full chunk, half a chunk. Releasing the middle one empties a middle
	// chunk; the survivors are packed (every chunk but the last full), the
	// emptied chunk is recycled, and later emits land behind the survivors.
	tr = NewTracer(1, 0)
	tr.SetEnabled(true)
	emit := func(id TraceID, n int) {
		for i := 0; i < n; i++ {
			tr.Emit(0, Span{Trace: id, Kind: SpanTask, Start: int64(tr.SpanCount())})
		}
	}
	emit(1, spanChunk)
	emit(2, spanChunk)
	emit(3, spanChunk/2)
	tr.Release(2)
	tr.Compact()
	if got := tr.SpanCount(); got != spanChunk+spanChunk/2 {
		t.Fatalf("span count after emptying the middle chunk = %d, want %d", got, spanChunk+spanChunk/2)
	}
	sh := &tr.shards[0]
	if len(sh.chunks) != 2 || len(sh.chunks[0]) != spanChunk || len(sh.chunks[1]) != spanChunk/2 || len(sh.free) != 1 {
		t.Fatalf("layout after compaction: %d chunks (last %d long), %d free; want 2 (%d), 1",
			len(sh.chunks), len(sh.chunks[len(sh.chunks)-1]), len(sh.free), spanChunk/2)
	}
	emit(4, spanChunk) // fills the last chunk, then takes the recycled one
	if _, got := tr.Size(); got != 3 {
		t.Errorf("chunks held after refilling = %d, want 3 (the recycled chunk reused, none allocated)", got)
	}
	for id, want := range map[TraceID]int{1: spanChunk, 2: 0, 3: spanChunk / 2, 4: spanChunk} {
		spans := tr.TraceOf(id).Spans
		if len(spans) != want {
			t.Errorf("trace %d holds %d spans after compact+emit, want %d", id, len(spans), want)
		}
		for i := 1; i < len(spans); i++ {
			if spans[i].Start <= spans[i-1].Start {
				t.Fatalf("trace %d: span %d repeated or lost by the packing", id, i)
			}
		}
	}
	if got := tr.Compactions(); got != 1 {
		t.Errorf("Compactions() = %d, want 1", got)
	}
	tr.Compact() // nothing released since: not a compaction
	if got := tr.Compactions(); got != 1 {
		t.Errorf("Compactions() = %d after an empty Compact, want 1", got)
	}
}

// TestTracerConcurrentEmitCompactCollect: one writer per shard emitting
// across chunk boundaries while another goroutine releases, compacts and
// collects must be race-free, and must never lose a span of a trace that
// was not released.
func TestTracerConcurrentEmitCompactCollect(t *testing.T) {
	const writers, perWriter = 4, 3*spanChunk + 7
	tr := NewTracer(writers, 0)
	tr.SetEnabled(true)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				// Odd traces are released below, even ones are kept.
				tr.Emit(w, Span{Trace: TraceID(1 + i%8), Kind: SpanTask, Start: int64(i), Worker: int32(w)})
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		for id := TraceID(1); id <= 8; id += 2 {
			tr.Release(id)
		}
		tr.Compact()
		traces, _ := walkTraces(tr)
		for _, x := range traces {
			for _, s := range x.Spans {
				if s.Trace != x.ID {
					t.Fatalf("trace %d was handed a span of trace %d", x.ID, s.Trace)
				}
			}
		}
		tr.Size()
	}
	tr.Compact()
	for id := TraceID(2); id <= 8; id += 2 {
		var want int
		for i := 0; i < perWriter; i++ {
			if TraceID(1+i%8) == id {
				want += writers
			}
		}
		if got := len(tr.TraceOf(id).Spans); got != want {
			t.Errorf("unreleased trace %d holds %d spans, want %d", id, got, want)
		}
	}
	for id := TraceID(1); id <= 8; id += 2 {
		if got := len(tr.TraceOf(id).Spans); got != 0 {
			t.Errorf("released trace %d still holds %d spans after the last Compact", id, got)
		}
	}
}

// TestTracerRingEviction: retaining past the flight-recorder cap must
// evict the oldest retained trace, which the next Compact reclaims. The
// ring is circular: retaining many times its capacity, re-retaining a
// held trace included, keeps the newest traces in retention order.
func TestTracerRingEviction(t *testing.T) {
	tr := NewTracer(1, 0)
	tr.SetEnabled(true)
	tr.ring = make([]TraceID, 2)
	for id := TraceID(1); id <= 3; id++ {
		tr.Emit(0, Span{Trace: id, Kind: SpanTask, Start: int64(id), End: int64(id) + 1})
		tr.Retain(id)
	}
	ids := tr.RetainedIDs()
	if _, ok := tr.retained[1]; len(ids) != 2 || ok {
		t.Fatalf("retained = %v, want [2 3] (oldest evicted)", ids)
	}
	tr.Compact()
	if n := len(tr.TraceOf(1).Spans); n != 0 {
		t.Errorf("evicted trace 1 still has %d spans after Compact", n)
	}

	// Wrap a ring of three around more than three times.
	tr = NewTracer(1, 0)
	tr.SetEnabled(true)
	tr.ring = make([]TraceID, 3)
	for id := TraceID(1); id <= 11; id++ {
		tr.Emit(0, Span{Trace: id, Kind: SpanTask, Start: int64(id), End: int64(id) + 1})
		tr.Retain(id)
		tr.Retain(id - 1) // still held: not queued again
		if want := min(int(id), 3); len(tr.RetainedIDs()) != want {
			t.Fatalf("after retaining %d: ring %v, want %d entries", id, tr.RetainedIDs(), want)
		}
	}
	if got := tr.RetainedIDs(); !reflect.DeepEqual(got, []TraceID{9, 10, 11}) {
		t.Fatalf("retained = %v, want [9 10 11]", got)
	}
	tr.Compact()
	for id := TraceID(1); id <= 11; id++ {
		want := 0
		if id >= 9 {
			want = 1
		}
		if n := len(tr.TraceOf(id).Spans); n != want {
			t.Errorf("trace %d holds %d spans after Compact, want %d", id, n, want)
		}
	}
}

// TestTracerShardOverflowDrops: a full shard must drop spans and count
// them rather than grow or block.
func TestTracerShardOverflowDrops(t *testing.T) {
	tr := NewTracer(1, 4)
	tr.SetEnabled(true)
	for i := 0; i < 10; i++ {
		tr.Emit(0, Span{Trace: 1, Kind: SpanTask, Start: int64(i), End: int64(i) + 1})
	}
	if got := tr.SpanCount(); got != 4 {
		t.Errorf("span count = %d, want 4 (shard cap)", got)
	}
	if got := tr.DroppedSpans(); got != 6 {
		t.Errorf("dropped = %d, want 6", got)
	}

	// A cap that is not a multiple of the chunk: the bound is on spans, the
	// last chunk stays partly empty, and compaction makes room again.
	const cap = 2*spanChunk + 100
	tr = NewTracer(2, cap)
	tr.SetEnabled(true)
	for i := 0; i < cap+50; i++ {
		tr.Emit(1, Span{Trace: TraceID(1 + i%2), Kind: SpanTask, Start: int64(i)})
	}
	if got, chunks := tr.Size(); got != cap || chunks != 3 {
		t.Errorf("span count / chunks = %d / %d, want %d / 3", got, chunks, cap)
	}
	if got := tr.DroppedSpans(); got != 50 {
		t.Errorf("dropped = %d, want 50", got)
	}
	tr.Release(1)
	tr.Compact()
	for i := 0; i < cap; i++ {
		tr.Emit(1, Span{Trace: 3, Kind: SpanTask, Start: int64(i)})
	}
	if got, chunks := tr.Size(); got != cap || chunks != 3 {
		t.Errorf("after compact+refill: span count / chunks = %d / %d, want %d / 3", got, chunks, cap)
	}
	if got := tr.DroppedSpans(); got != 50+cap/2 {
		t.Errorf("dropped after refill = %d, want %d", got, 50+cap/2)
	}
}

// TestTracerProfilingKeepsEverything: while profiling is on the record is
// complete — a full shard keeps growing and Compact drops no released
// trace — and once it is off again both bounds apply as before.
func TestTracerProfilingKeepsEverything(t *testing.T) {
	tr := NewTracer(1, 4)
	tr.SetEnabled(true)
	tr.SetProfiling(true)
	for i := 0; i < 10; i++ {
		tr.Emit(0, Span{Trace: TraceID(1 + i%2), Kind: SpanTask, Start: int64(i), End: int64(i) + 1})
	}
	if got, dropped := tr.SpanCount(), tr.DroppedSpans(); got != 10 || dropped != 0 {
		t.Errorf("profiling past the shard cap: %d spans, %d dropped; want 10, 0", got, dropped)
	}
	tr.Release(1)
	tr.Compact()
	if got := tr.SpanCount(); got != 10 || tr.Compactions() != 0 {
		t.Errorf("Compact while profiling left %d spans after %d compactions, want 10 after 0", got, tr.Compactions())
	}
	tr.SetProfiling(false)
	tr.Emit(0, Span{Trace: 2, Kind: SpanTask, Start: 10})
	if got := tr.DroppedSpans(); got != 1 {
		t.Errorf("dropped past the cap once profiling is off = %d, want 1", got)
	}
	tr.Compact()
	if got := len(tr.TraceOf(1).Spans); got != 0 {
		t.Errorf("released trace 1 holds %d spans after Compact with profiling off", got)
	}
	if got := len(tr.TraceOf(2).Spans); got != 5 {
		t.Errorf("unreleased trace 2 holds %d spans, want 5", got)
	}
}

// TestTracerGates: tracing records the job kinds and profiling the profile
// kinds. A task that belongs to a job and every re-home and park is
// recorded by either gate; a task outside any job only while profiling.
func TestTracerGates(t *testing.T) {
	profileKinds := map[SpanKind]bool{SpanSpread: true, SpanFillRate: true,
		SpanMigration: true, SpanOffline: true, SpanResume: true}
	for k := SpanKind(0); k < numSpanKinds; k++ {
		for _, id := range []TraceID{0, 7} {
			var job, profile bool
			switch {
			case k == SpanRehome || k == SpanPark:
				job, profile = true, true
			case k == SpanTask:
				job, profile = id != 0, true
			default:
				job, profile = !profileKinds[k], profileKinds[k]
			}
			for _, g := range []struct{ tracing, profiling bool }{{false, false}, {true, false}, {false, true}, {true, true}} {
				tr := NewTracer(1, 0)
				tr.SetEnabled(g.tracing)
				tr.SetProfiling(g.profiling)
				tr.Emit(0, Span{Trace: id, Kind: k})
				want := 0
				if job && g.tracing || profile && g.profiling {
					want = 1
				}
				if got := tr.SpanCount(); got != want {
					t.Errorf("%s span of trace %d, tracing=%v profiling=%v: recorded %d, want %d",
						k, id, g.tracing, g.profiling, got, want)
				}
			}
		}
	}
}

// TestSpanSize pins the span's footprint: every buffered span costs this
// much, so a field that breaks the packing shows up here.
func TestSpanSize(t *testing.T) {
	if got := unsafe.Sizeof(Span{}); got > 72 {
		t.Errorf("unsafe.Sizeof(Span{}) = %d, want at most 72", got)
	}
}

// TestReportStagesDoNotAlias: every job's Stages in a report are windows of
// one slab; appending to one must reallocate it, not write into the next
// job's.
func TestReportStagesDoNotAlias(t *testing.T) {
	tr := NewTracer(2, 0)
	tr.SetEnabled(true)
	for id := TraceID(1); id <= 4; id++ {
		for st := int32(0); st < 3; st++ {
			at := int64(id)*100 + int64(st)*10
			tr.Emit(int(st)%2, Span{Trace: id, Kind: SpanStage, Start: at, End: at + 10, Stage: st, Arg: 1})
		}
	}
	jobs := BuildReport(tr).Jobs
	if len(jobs) != 4 {
		t.Fatalf("%d jobs, want 4", len(jobs))
	}
	for i := range jobs {
		if len(jobs[i].Stages) != 3 || cap(jobs[i].Stages) != 3 {
			t.Fatalf("job %d: len/cap = %d/%d, want 3/3", jobs[i].Trace, len(jobs[i].Stages), cap(jobs[i].Stages))
		}
		jobs[i].Stages = append(jobs[i].Stages, StageBreakdown{Stage: 99})
	}
	for i := range jobs {
		for st, sb := range jobs[i].Stages[:3] {
			if sb.Stage != int32(st) || sb.Start != int64(jobs[i].Trace)*100+int64(st)*10 {
				t.Fatalf("job %d was overwritten by an append to its neighbour: %+v", jobs[i].Trace, sb)
			}
		}
	}
}

// TestBuildReportConcurrentEmitCompact: reports built while one writer per
// shard emits whole jobs across chunk boundaries and another goroutine
// releases and compacts must be race-free (the walk holds every shard
// lock), ordered slowest first with one entry per trace, and, once the
// writers are done, equal to the reference model's.
func TestBuildReportConcurrentEmitCompact(t *testing.T) {
	const writers, jobs = 4, 600
	tr := NewTracer(writers, 0)
	tr.SetEnabled(true)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < jobs; j++ {
				id, at := TraceID(1+w*jobs+j), int64(j)*100
				tr.Emit(w, Span{Trace: id, Kind: SpanAdmitQueue, Start: at, End: at + 5, Stage: -1})
				tr.Emit(w, Span{Trace: id, Kind: SpanTask, Start: at + 5, End: at + 50 + int64(j%7),
					Worker: int32(w), Arg: at + 9, Arg2: 3})
				tr.Emit(w, Span{Trace: id, Kind: SpanStage, Start: at + 5, End: at + 60, Arg: 1})
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	var compactor sync.WaitGroup
	compactor.Add(1)
	go func() {
		defer compactor.Done()
		for id := TraceID(1); ; id += 3 {
			select {
			case <-done:
				return
			default:
			}
			tr.Release(id % (writers * jobs))
			tr.Compact()
		}
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		rep := BuildReport(tr)
		seen := map[TraceID]bool{}
		for i, b := range rep.Jobs {
			if seen[b.Trace] {
				t.Fatalf("trace %d reported twice", b.Trace)
			}
			seen[b.Trace] = true
			if i > 0 && (b.Total > rep.Jobs[i-1].Total || b.Total == rep.Jobs[i-1].Total && b.Trace < rep.Jobs[i-1].Trace) {
				t.Fatalf("jobs %d and %d out of order: %+v after %+v", i-1, i, b, rep.Jobs[i-1])
			}
		}
	}
	compactor.Wait()
	if got, want := BuildReport(tr), refBuildReport(tr); !reflect.DeepEqual(got, want) {
		t.Errorf("after the writers: %d jobs, the reference %d", len(got.Jobs), len(want.Jobs))
	}
}

// TestTraceJSONCanonicalOrder: the exported document must not depend on
// which shard a span landed in — only on the span set itself.
func TestTraceJSONCanonicalOrder(t *testing.T) {
	spans := []Span{
		{Trace: 2, Kind: SpanStage, Start: 10, End: 30, Stage: 0, Arg: 4},
		{Trace: 1, Kind: SpanTask, Start: 10, End: 20, Worker: 3},
		{Trace: 1, Kind: SpanAdmitQueue, Start: 0, End: 10, Stage: -1},
		{Trace: 0, Kind: SpanBreaker, Start: 15, End: 15, Arg: 1},
	}
	var docs [2]bytes.Buffer
	for rev := 0; rev < 2; rev++ {
		tr := NewTracer(3, 0)
		tr.SetEnabled(true)
		for i, s := range spans {
			if rev == 1 {
				s = spans[len(spans)-1-i]
			}
			tr.Emit((i*7)%3, s) // scatter across shards differently per pass
		}
		if err := tr.WriteJSON(&docs[rev]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(docs[0].Bytes(), docs[1].Bytes()) {
		t.Errorf("trace JSON depends on emission order:\n%s\nvs\n%s",
			docs[0].String(), docs[1].String())
	}
	if !strings.Contains(docs[0].String(), `"admit-queue"`) {
		t.Errorf("span kinds not symbolic in JSON:\n%s", docs[0].String())
	}
}

// --- SLO burn-rate tracker ---

// TestSLOBurnRateWindows: the alert must fire only when both windows
// exceed their thresholds, and clear once the fast window recovers.
func TestSLOBurnRateWindows(t *testing.T) {
	tr := NewSLOTracker()
	tr.SetObjective(0, 0.99) // 1% budget: burn = badFraction * 100
	now := int64(0)
	// Ten outcomes per slot: the fast window holds the last ~200, the
	// slow window the last ~1200.
	record := func(n int, good bool) {
		for i := 0; i < n; i++ {
			now += sloSlotNS / 10
			tr.Record(0, good, now)
			tr.Evaluate(now)
		}
	}
	record(100, true) // healthy baseline: burn 0
	if alerts := tr.Alerts(); len(alerts) != 0 {
		t.Fatalf("alerts on healthy traffic: %+v", alerts)
	}
	record(60, false) // 100% bad = burn 100 in both windows
	alerts := tr.Alerts()
	if len(alerts) == 0 || !alerts[0].Firing {
		t.Fatalf("no alert after sustained bad traffic: %+v", alerts)
	}
	// Recovery: good traffic drains the fast window first; the alert must
	// clear even while the slow window still remembers the bad era.
	record(200, true)
	alerts = tr.Alerts()
	last := alerts[len(alerts)-1]
	if last.Firing {
		t.Fatalf("alert never cleared after recovery: %+v", alerts)
	}
	st := tr.Status(now)
	if len(st) != 1 || st[0].Firing {
		t.Errorf("status still firing after recovery: %+v", st)
	}
	if st[0].Good != 300 || st[0].Bad != 60 {
		t.Errorf("lifetime good/bad = %d/%d, want 300/60", st[0].Good, st[0].Bad)
	}
}

// TestSLOBurnUnreachableTarget: a class whose target leaves more budget
// than the thresholds can ever burn must never fire.
func TestSLOBurnUnreachableTarget(t *testing.T) {
	tr := NewSLOTracker()
	tr.SetObjective(1, 0.5) // burn caps at 1/(1-0.5) = 2 < both thresholds
	now := int64(0)
	for i := 0; i < 200; i++ {
		now += 10_000
		tr.Record(1, false, now)
		tr.Evaluate(now)
	}
	if alerts := tr.Alerts(); len(alerts) != 0 {
		t.Errorf("impossible alert fired: %+v", alerts)
	}
}

// --- Critical-path analyzer on hand-built traces ---

// TestAnalyzeSyntheticTrace checks the bucket math exactly: admit wait,
// dispatch wait, compute, and stall.
func TestAnalyzeSyntheticTrace(t *testing.T) {
	tr := Trace{ID: 5, Spans: []Span{
		{Trace: 5, Kind: SpanAdmitQueue, Start: 100, End: 150, Stage: -1, Arg: 2},
		// Stage 0: dispatch 150, barrier 450. Critical task started
		// executing at 250 (100 queue), ran 160 exec with 60 stall,
		// finishing at 410; 40 ns of barrier tail goes back to queue.
		{Trace: 5, Kind: SpanStage, Start: 150, End: 450, Stage: 0, Arg: 2},
		{Trace: 5, Kind: SpanTask, Start: 150, End: 410, Stage: 0, Arg: 250, Arg2: 60},
		{Trace: 5, Kind: SpanTask, Start: 150, End: 300, Stage: 0, Arg: 160, Arg2: 0},
	}}
	b, ok := Analyze(tr)
	if !ok {
		t.Fatal("Analyze returned ok=false for a dispatched trace")
	}
	if b.Priority != 2 || b.Arrival != 100 || b.Finish != 450 || b.Total != 350 {
		t.Fatalf("frame: %+v", b)
	}
	if b.AdmitQueue != 50 {
		t.Errorf("AdmitQueue = %d, want 50", b.AdmitQueue)
	}
	// queue = (250-150) + 40 tail = 140
	if b.DispatchQueue != 140 {
		t.Errorf("DispatchQueue = %d, want 140", b.DispatchQueue)
	}
	// compute = 410-250-60
	if b.Compute != 100 || b.Stall != 60 {
		t.Errorf("Compute/Stall = %d/%d, want 100/60", b.Compute, b.Stall)
	}
	if b.Unattributed != 0 || b.AttributedFraction() != 1 {
		t.Errorf("unattributed %d (%.2f attributed)", b.Unattributed, b.AttributedFraction())
	}
}

// TestAnalyzeShedTrace: a never-dispatched job is pure admit-queue time.
func TestAnalyzeShedTrace(t *testing.T) {
	tr := Trace{ID: 8, Spans: []Span{
		{Trace: 8, Kind: SpanShed, Start: 1000, End: 1600, Stage: -1, Arg: 1},
	}}
	b, ok := Analyze(tr)
	if ok {
		t.Fatal("ok=true for a shed trace with no stages")
	}
	if b.Total != 600 || b.AdmitQueue != 600 || b.Unattributed != 0 {
		t.Errorf("shed breakdown: %+v", b)
	}
	if b.Priority != 1 || b.Arrival != 1000 {
		t.Errorf("shed frame: priority %d arrival %d", b.Priority, b.Arrival)
	}
}
