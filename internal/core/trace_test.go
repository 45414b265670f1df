package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"charm/internal/fault"
	"charm/internal/obs"
	"charm/internal/topology"
)

// profiledTracer returns a tracer with the profile gate on and an emitter
// of one Alg. 1 sample or instant of kind on worker w at time t.
func profiledTracer(shards int) (*obs.Tracer, func(kind obs.SpanKind, w int32, t, v int64)) {
	tr := obs.NewTracer(shards, 0)
	tr.SetProfiling(true)
	return tr, func(kind obs.SpanKind, w int32, t, v int64) {
		tr.Emit(int(w), obs.Span{Kind: kind, Start: t, End: t, Worker: w, Arg: v})
	}
}

func TestWriteChromeTrace(t *testing.T) {
	tr, sample := profiledTracer(2)
	sample(obs.SpanSpread, 0, 1000, 2)
	sample(obs.SpanSpread, 1, 2000, 4)
	sample(obs.SpanFillRate, 0, 1500, 77)
	sample(obs.SpanMigration, 1, 2500, 9)
	var buf bytes.Buffer
	if err := writeChromeTrace(&buf, tr, nil, 0); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string           `json:"name"`
			Phase string           `json:"ph"`
			TS    float64          `json:"ts"`
			TID   int              `json:"tid"`
			Args  map[string]int64 `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	if len(doc.TraceEvents) != 4 {
		t.Fatalf("events = %d, want 4", len(doc.TraceEvents))
	}
	counters, instants := 0, 0
	for _, e := range doc.TraceEvents {
		switch e.Phase {
		case "C":
			counters++
		case "i":
			instants++
			if e.Args["core"] != 9 {
				t.Errorf("migration core = %d", e.Args["core"])
			}
		default:
			t.Errorf("unexpected phase %q", e.Phase)
		}
	}
	if counters != 3 || instants != 1 {
		t.Errorf("counters=%d instants=%d, want 3/1", counters, instants)
	}
	// Timestamps are microseconds.
	if doc.TraceEvents[0].TS != 1.0 {
		t.Errorf("first ts = %f, want 1.0 µs", doc.TraceEvents[0].TS)
	}
}

// chromeDoc mirrors the emitted trace document for round-trip decoding.
type chromeDoc struct {
	TraceEvents []struct {
		Name  string             `json:"name"`
		Phase string             `json:"ph"`
		TS    float64            `json:"ts"`
		PID   int                `json:"pid"`
		TID   int                `json:"tid"`
		Args  map[string]float64 `json:"args"`
	} `json:"traceEvents"`
	DisplayUnit string `json:"displayTimeUnit"`
}

func TestChromeTraceRoundTrip(t *testing.T) {
	tr, sample := profiledTracer(3)
	// Alg. 1 samples: 3 counter samples + 1 migration instant.
	sample(obs.SpanSpread, 0, 1000, 2)
	sample(obs.SpanSpread, 1, 2000, 4)
	sample(obs.SpanFillRate, 0, 1500, 77)
	sample(obs.SpanMigration, 1, 2500, 9)
	// Task spans (Start = enqueue, Arg = first execution): plain, stolen,
	// delegated, and zero-duration.
	for _, s := range []obs.Span{
		{Task: 1, Home: 0, Worker: 0, Start: 100, Arg: 200, End: 900},
		{Task: 2, Home: 0, Worker: 1, Start: 100, Arg: 300, End: 800, Steals: 1, Flags: obs.FlagRemoteSteal},
		{Task: 3, Home: 1, Worker: 1, Start: 500, Arg: 1200, End: 1400, Flags: obs.FlagDelegated, Hops: 2},
		{Task: 4, Home: 0, Worker: 2, Start: 50, Arg: 600, End: 600},
	} {
		s.Kind = obs.SpanTask
		tr.Emit(int(s.Worker), s)
	}
	// Registry history: one traced gauge sampled twice.
	reg := obs.NewRegistry(1)
	reg.SetEnabled(true)
	reg.EnableSampling(1000, 16)
	g := reg.Gauge("charm_test_util", "test", obs.Labels{"link": "ccd0"}, obs.Traced())
	g.Set(0, 3)
	if !reg.MaybeSample(1000) {
		t.Fatal("first MaybeSample must fire")
	}
	g.Set(0, 7)
	if !reg.MaybeSample(2500) {
		t.Fatal("second MaybeSample must fire")
	}

	var buf bytes.Buffer
	if err := writeChromeTrace(&buf, tr, reg, 0); err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}

	// 3 Alg. 1 counters + 1 instant + 4 B/E pairs + 2 history counters.
	if want := 3 + 1 + 8 + 2; len(doc.TraceEvents) != want {
		t.Fatalf("events = %d, want %d", len(doc.TraceEvents), want)
	}
	var b, e, c, inst int
	open := map[int]int{} // tid -> nesting depth
	lastTS := -1.0
	for _, ev := range doc.TraceEvents {
		if ev.TS < lastTS {
			t.Fatalf("events not sorted by ts: %v after %v", ev.TS, lastTS)
		}
		lastTS = ev.TS
		switch ev.Phase {
		case "B":
			b++
			open[ev.TID]++
		case "E":
			e++
			open[ev.TID]--
			if open[ev.TID] < 0 {
				t.Fatalf("E without matching B on tid %d at ts %v", ev.TID, ev.TS)
			}
		case "C":
			c++
			if _, ok := ev.Args["value"]; !ok {
				t.Errorf("counter %q lacks args.value", ev.Name)
			}
		case "i":
			inst++
		}
	}
	if b != 4 || e != 4 || c != 5 || inst != 1 {
		t.Fatalf("phase counts B=%d E=%d C=%d i=%d, want 4/4/5/1", b, e, c, inst)
	}
	for tid, d := range open {
		if d != 0 {
			t.Errorf("tid %d has %d unclosed spans", tid, d)
		}
	}

	// Span names and args reflect provenance.
	byID := map[float64]string{}
	for _, ev := range doc.TraceEvents {
		if ev.Phase == "B" {
			byID[ev.Args["id"]] = ev.Name
			switch ev.Args["id"] {
			case 2:
				if ev.Args["steals"] != 1 || ev.Args["remote_steal"] != 1 {
					t.Errorf("stolen span args = %v", ev.Args)
				}
			case 3:
				if ev.Args["hops"] != 2 {
					t.Errorf("delegated span args = %v", ev.Args)
				}
			}
		}
	}
	if byID[1] != "task" || byID[2] != "task-stolen" || byID[3] != "delegate" {
		t.Errorf("span names = %v", byID)
	}

	// The registry history shows up as pid-1 counter tracks with both
	// sampled values.
	var histVals []float64
	for _, ev := range doc.TraceEvents {
		if ev.Phase == "C" && ev.PID == 1 {
			if ev.Name != `charm_test_util{link=ccd0}` {
				t.Errorf("history track name = %q", ev.Name)
			}
			histVals = append(histVals, ev.Args["value"])
		}
	}
	if len(histVals) != 2 || histVals[0] != 3 || histVals[1] != 7 {
		t.Errorf("history values = %v, want [3 7]", histVals)
	}

	// The zero-duration span is padded: its E strictly follows its B.
	var zb, ze float64
	for _, ev := range doc.TraceEvents {
		if ev.Phase == "B" && ev.Args["id"] == 4 {
			zb = ev.TS
		}
		if ev.Phase == "E" && ev.TID == 2 {
			ze = ev.TS
		}
	}
	if ze <= zb {
		t.Errorf("zero-duration span not padded: B=%v E=%v", zb, ze)
	}
}

// TestRuntimeSpansAndMetrics drives a real workload and checks that the
// instrumentation layers light up end to end.
func TestRuntimeSpansAndMetrics(t *testing.T) {
	rt := newTestRT(t, 4)
	rt.EnableProfiler(true)
	rt.EnableMetrics(true)
	const spawned = 32
	rt.Run(func(ctx *Ctx) {
		for i := 0; i < spawned; i++ {
			ctx.Spawn(func(c *Ctx) {
				c.Compute(5_000)
				c.Yield()
			})
		}
	})
	rt.Stop()

	var spans []obs.Span
	for _, s := range rt.Tracer().Spans() {
		if s.Kind == obs.SpanTask {
			spans = append(spans, s)
		}
	}
	if len(spans) != spawned+1 {
		t.Fatalf("spans = %d, want %d", len(spans), spawned+1)
	}
	for _, s := range spans {
		// Start is the enqueue stamp, Arg the first execution.
		if s.End < s.Arg || s.Arg < s.Start {
			t.Fatalf("inconsistent span %+v", s)
		}
	}

	snap := rt.MetricsSnapshot()
	tasks := snap.Find("charm_tasks_total", nil)
	if tasks == nil || tasks.Value != spawned+1 {
		t.Fatalf("charm_tasks_total = %v, want %d", tasks, spawned+1)
	}
	lat := snap.Find("charm_task_latency_ns", nil)
	if lat == nil || lat.Hist == nil || lat.Hist.Count != spawned+1 {
		t.Fatalf("charm_task_latency_ns missing or short: %v", lat)
	}
	if sp := snap.Find("charm_task_spawns_total", nil); sp == nil || sp.Value != spawned {
		t.Fatalf("charm_task_spawns_total = %v, want %d", sp, spawned)
	}
	// The exec-time histogram must account at least the charged compute.
	exec := snap.Find("charm_task_exec_ns", nil)
	if exec == nil || exec.Hist == nil || exec.Hist.Sum < spawned*5_000 {
		t.Fatalf("charm_task_exec_ns too small: %v", exec)
	}
}

// TestProfilerDisabledRecordsNothing: the tracer's two gates split one
// record. With both off nothing is recorded; profiling alone records no job
// kinds (admission, stages, sheds, breakers, ...), and tracing alone no
// profile kinds (Alg. 1 samples, migrations, offlines, and tasks outside
// any job). The run parks the workers of an offlined chiplet and serves
// one job, so every gate has something to refuse.
func TestProfilerDisabledRecordsNothing(t *testing.T) {
	profileKind := func(s obs.Span) bool {
		return s.Kind >= obs.SpanSpread ||
			s.Kind == obs.SpanTask && s.Trace == 0
	}
	jobKind := func(s obs.Span) bool {
		switch s.Kind {
		case obs.SpanTask, obs.SpanRehome, obs.SpanPark:
			return false
		}
		return s.Kind < obs.SpanSpread
	}
	run := func(tracing, profiling bool) map[obs.SpanKind]int {
		topo := topology.Synthetic(4, 2)
		plan := compilePlan(t, fault.New("gates", 3).OfflineChiplet(1, 20_000, fault.Forever), topo)
		rt := jobRuntime(t, Options{SchedulerTimer: 10_000,
			Faults: plan})
		rt.EnableTracing(tracing)
		rt.EnableProfiler(profiling)
		rt.ParallelFor(0, 64, 1, func(ctx *Ctx, i0, i1 int) { ctx.Compute(5_000) })
		j, err := rt.SubmitJob(computeJob(4, 5_000, nil))
		if err != nil {
			t.Fatal(err)
		}
		<-j.Done()
		kinds := map[obs.SpanKind]int{}
		for _, s := range rt.Tracer().Spans() {
			kinds[s.Kind]++
			if !profiling && profileKind(s) {
				t.Errorf("tracing=%v profiling=%v recorded profile span %+v", tracing, profiling, s)
			}
			if !tracing && jobKind(s) {
				t.Errorf("tracing=%v profiling=%v recorded job span %+v", tracing, profiling, s)
			}
		}
		return kinds
	}
	if got := run(false, false); len(got) != 0 {
		t.Errorf("both gates off recorded %v", got)
	}
	prof := run(false, true)
	for _, k := range []obs.SpanKind{obs.SpanTask, obs.SpanSpread, obs.SpanFillRate,
		obs.SpanOffline, obs.SpanPark} {
		if prof[k] == 0 {
			t.Errorf("profiling recorded no %s span: %v", k, prof)
		}
	}
	traced := run(true, false)
	for _, k := range []obs.SpanKind{obs.SpanTask, obs.SpanAdmitQueue, obs.SpanStage, obs.SpanPark} {
		if traced[k] == 0 {
			t.Errorf("tracing recorded no %s span: %v", k, traced)
		}
	}
}

func TestStealOrderVariants(t *testing.T) {
	rt := newTestRT(t, 8)
	w := rt.Worker(0)

	// The steal-order cache is worker-private: compute all three orders
	// on worker 0's own goroutine, then assert on the host.
	var seq, node, ch []int
	rt.AllDo(func(ctx *Ctx) {
		if ctx.Worker() != 0 {
			return
		}
		seq = append([]int(nil), SequentialStealOrder(w)...)
		node = append([]int(nil), NodeFirstStealOrder(w)...)
		ch = append([]int(nil), w.chipletFirstOrder()...)
	})
	if len(seq) != 7 {
		t.Fatalf("sequential order has %d victims", len(seq))
	}
	for i, v := range seq {
		if v != (0+i+1)%8 {
			t.Errorf("sequential[%d] = %d", i, v)
		}
	}

	if len(node) != 7 {
		t.Fatalf("node-first order has %d victims", len(node))
	}
	topo := rt.M.Topo
	self := topo.NodeOfCore(w.Core())
	// All same-node victims must precede all remote-node victims.
	seenRemote := false
	for _, v := range node {
		remote := topo.NodeOfCore(rt.CoreOfWorker(v)) != self
		if seenRemote && !remote {
			t.Fatalf("node-first order interleaves nodes: %v", node)
		}
		seenRemote = seenRemote || remote
	}

	if len(ch) != 7 {
		t.Fatalf("chiplet-first order has %d victims", len(ch))
	}
	// Victims must be sorted by non-decreasing latency class.
	prev := topo.ClassOf(w.Core(), rt.CoreOfWorker(ch[0]))
	for _, v := range ch[1:] {
		c := topo.ClassOf(w.Core(), rt.CoreOfWorker(v))
		if c < prev {
			t.Fatalf("chiplet-first order not distance-sorted: %v", ch)
		}
		prev = c
	}
}
