package obs

import (
	"io"
	"strconv"
	"testing"
)

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

// fillSvcTenantsRegistry builds a registry of the shape the svc-tenants
// workload exports and samples its history: 159 series — 133 labelled
// counters, 6 histograms of 16 buckets (3 with exemplars) and 20 traced
// gauges (4 unlabelled, 12 labelled, 4 labelled funcs with fractional
// values) — and 616 history points of the traced ones.
func fillSvcTenantsRegistry() *Registry {
	r := NewRegistry(8)
	r.SetEnabled(true)
	for i := 0; i < 133; i++ {
		r.Counter("charm_bench_"+strconv.Itoa(i/8)+"_total", "Counter.",
			Labels{"chiplet": strconv.Itoa(i % 8), "kind": "compute"}).Add(i%8, int64(i)*1_000_003)
	}
	bounds := make([]int64, 16)
	for i := range bounds {
		bounds[i] = 1000 << i
	}
	for i := 0; i < 6; i++ {
		var opts []Option
		if i%2 == 0 {
			opts = append(opts, WithExemplars())
		}
		h := r.Histogram("charm_bench_lat_"+strconv.Itoa(i)+"_ns", "Latency.", nil, bounds, opts...)
		for v := int64(0); v < 2000; v++ {
			h.ObserveT(int(v%8), v*v*37, TraceID(v))
		}
	}
	var gauges []*Gauge
	for i := 0; i < 16; i++ {
		name, labels := "charm_bench_gauge_"+strconv.Itoa(i), Labels(nil)
		if i >= 4 {
			name, labels = "charm_bench_temp_millic", Labels{"chiplet": strconv.Itoa(i)}
		}
		gauges = append(gauges, r.Gauge(name, "Gauge.", labels, Traced()))
	}
	for i := 0; i < 4; i++ {
		r.Func("charm_bench_occupancy", "Occupancy.", KindGauge, Labels{"link": "ccd" + strconv.Itoa(i)},
			func(now int64) float64 { return float64(now%997) / 997 }, Traced())
	}
	r.EnableSampling(1000, 4096)
	for k := int64(1); k <= 616; k++ {
		for i, g := range gauges {
			g.Set(i%8, k*int64(i+1)%70_000)
		}
		r.MaybeSample(k * 1000)
	}
	return r
}

// BenchmarkTracer measures the span pipeline stage by stage on that buffer;
// one op is one whole buffer: emit fills it (126 168 spans), compact
// releases the 16 800 completed jobs and reclaims their 100 800 spans,
// walk groups it (Tracer.eachTrace) and report builds the critical-path
// report. metrics-json writes the metrics document of
// fillSvcTenantsRegistry, the other half of the workload's export.
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
	b.Run("walk", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n := 0
			tr.eachTrace(func(*[1 << 8]int) {}, func(Trace) { n++ })
			if n != 42_001 {
				b.Fatal("trace count")
			}
		}
	})
	b.Run("report", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if len(BuildReport(tr).Jobs) != 42_000 {
				b.Fatal("job count")
			}
		}
	})
	reg := fillSvcTenantsRegistry()
	snap, history := reg.Snapshot(616_000), reg.History()
	if len(snap.Samples) != 159 || len(history) != 616 {
		b.Fatalf("registry of %d series and %d points, want 159 and 616", len(snap.Samples), len(history))
	}
	b.Run("metrics-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := WriteJSON(io.Discard, snap, history); err != nil {
				b.Fatal(err)
			}
		}
	})
}
