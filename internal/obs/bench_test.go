package obs

import "testing"

// fillSvcTenants emits a buffer of the shape the svc-tenants benchmark
// workload leaves behind: 9 shards (8 workers + the service side), 42 000
// jobs of which two in five completed one 4-task stage (admit and stage
// span on the service shard, a task span on each of four worker shards) and
// the rest were shed at admission — 126 000 spans, 42 000 traces, a few
// hundred runtime-scope spans.
func fillSvcTenants(tr *Tracer) (completed []TraceID) {
	const jobs, svc = 42_000, 8
	for j := 1; j <= jobs; j++ {
		id, at := TraceID(j), int64(j)*7_000
		if j%5 >= 2 {
			tr.Emit(svc, Span{Trace: id, Kind: SpanShed, Start: at - 300, End: at, Stage: -1})
			continue
		}
		tr.Emit(svc, Span{Trace: id, Kind: SpanAdmitQueue, Start: at, End: at + 500, Stage: -1})
		for k := 0; k < 4; k++ {
			w := int32((j + k) % svc)
			tr.Emit(int(w), Span{Trace: id, Kind: SpanTask, Start: at + 500, End: at + 10_600 + int64(k),
				Worker: w, Chiplet: w / 2, Arg: at + 600, Arg2: 40})
		}
		tr.Emit(svc, Span{Trace: id, Kind: SpanStage, Start: at + 500, End: at + 10_700, Arg: 4})
		completed = append(completed, id)
		if j%100 == 0 {
			tr.Emit(svc, Span{Kind: SpanLease, Start: at, End: at, Chiplet: int32(j % 4), Stage: -1})
		}
	}
	return completed
}

// BenchmarkTracer measures the span pipeline stage by stage on that buffer;
// one op is one whole buffer: emit fills it (126 168 spans), compact
// releases the 16 800 completed jobs and reclaims their 100 800 spans,
// traces and report collect it.
func BenchmarkTracer(b *testing.B) {
	filled := func() (*Tracer, []TraceID) {
		tr := NewTracer(9, 0)
		tr.SetEnabled(true)
		return tr, fillSvcTenants(tr)
	}
	b.Run("emit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			filled()
		}
	})
	b.Run("compact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			tr, completed := filled()
			b.StartTimer()
			for _, id := range completed {
				tr.Release(id)
			}
			tr.Compact()
		}
	})
	tr, _ := filled()
	if tr.DroppedSpans() != 0 {
		b.Fatalf("the synthetic buffer overflowed a shard: %d spans dropped", tr.DroppedSpans())
	}
	b.Run("traces", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if len(tr.Traces()) != 42_001 {
				b.Fatal("trace count")
			}
		}
	})
	b.Run("report", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if len(BuildReport(tr).Jobs) != 42_000 {
				b.Fatal("job count")
			}
		}
	})
}
