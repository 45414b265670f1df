package core

import (
	"bytes"
	"strings"
	"testing"

	"charm/internal/admit"
	"charm/internal/fault"
	"charm/internal/obs"
	"charm/internal/sim"
	"charm/internal/topology"
)

// tracedOverloadRun drives the overload scenario (the PR 4 harness
// experiment: 400 one-stage Poisson jobs at 2x capacity under deadline-aware
// shedding) on a deterministic runtime with tracing, metrics, and
// per-priority SLOs enabled. thermal throttles chiplet 1 by 3x mid-run with
// the circuit breakers on. The service is installed under a pause and the
// fleet has settled when the run returns, so what a test reads next is part
// of the replay.
func tracedOverloadRun(t *testing.T, thermal bool) (*Runtime, *JobService) {
	t.Helper()
	topo := topology.Synthetic(4, 2)
	var plan *fault.Plan
	if thermal {
		var err error
		plan, err = fault.New("trace-thermal", 7).
			ThermalThrottle(1, 100_000, 1_500_000, 3.0).Compile(topo)
		if err != nil {
			t.Fatal(err)
		}
	}
	m := sim.New(sim.Config{Topo: topo})
	rt := NewRuntime(m, Options{Workers: 8, Deterministic: true, Faults: plan})
	rt.Start()
	t.Cleanup(rt.Stop)
	rt.EnableTracing(true)
	rt.EnableMetrics(true)
	svc := lsServe(t, rt, JobServiceOptions{
		Policy:        admit.Shed,
		QueueCapacity: 64,
		Breakers:      thermal,
		EvalInterval:  50_000,
		SLO:           map[int]float64{0: 0.95, 1: 0.99, 2: 0.999},
		Source: &SpecSource{
			// 2x capacity: one job is 4x10000 ns of compute over 8 workers,
			// so the capacity-matched gap is 5000 ns and 2500 doubles it.
			Arrivals: admit.NewPoisson(7, 2_500, 400),
			Gen: func(i int) JobSpec {
				s := computeJob(4, 10_000, nil)
				s.Priority = i % 3
				s.Deadline = 200_000
				s.Cost = 40_000
				return s
			},
		},
	})
	svc.Drain()
	lsSettle(rt)
	return rt, svc
}

// TestDeterministicTraceReplay: two runs of the same seeded, faulted,
// overloaded workload in Deterministic mode must produce byte-identical
// trace documents — span-for-span, including the flight recorder's
// retained set and the drop counter.
func TestDeterministicTraceReplay(t *testing.T) {
	var docs [2]bytes.Buffer
	for i := range docs {
		rt, _ := tracedOverloadRun(t, true)
		if err := rt.Tracer().WriteJSON(&docs[i]); err != nil {
			t.Fatal(err)
		}
		rt.Stop()
	}
	if docs[0].Len() == 0 {
		t.Fatal("empty trace document")
	}
	if !bytes.Equal(docs[0].Bytes(), docs[1].Bytes()) {
		t.Errorf("trace documents differ across identical seeded runs (%d vs %d bytes)",
			docs[0].Len(), docs[1].Len())
	}
}

// TestCritpathAttribution: on the overload scenario every completed job's
// breakdown must explain >=90% of its end-to-end latency — in particular
// the shed-era p99 job — with no bucket sum exceeding the total.
func TestCritpathAttribution(t *testing.T) {
	rt, svc := tracedOverloadRun(t, false)
	if svc.Stats().Shed == 0 {
		t.Fatal("scenario did not shed: not an overload run")
	}
	var lats []int64
	byLat := map[int64]*Job{}
	for _, j := range svc.Jobs() {
		if j.State() == JobCompleted {
			lats = append(lats, j.Latency())
			byLat[j.Latency()] = j
		}
	}
	if len(lats) == 0 {
		t.Fatal("no completed jobs")
	}
	rep := obs.BuildReport(rt.Tracer())
	for _, b := range rep.Jobs {
		if len(b.Stages) == 0 {
			continue // never dispatched: pure admit-queue wait by definition
		}
		if f := b.AttributedFraction(); f < 0.90 {
			t.Errorf("trace %d: attributed %.1f%% of %d ns (unattributed %d)",
				b.Trace, 100*f, b.Total, b.Unattributed)
		}
		sum := b.AdmitQueue + b.DispatchQueue + b.Compute + b.Stall + b.Unattributed
		if sum != b.Total {
			t.Errorf("trace %d: buckets sum to %d, total %d", b.Trace, sum, b.Total)
		}
	}
	// The p99 completed job specifically must be fully explained.
	sortInt64s(lats)
	p99 := byLat[lats[(99*len(lats)+99)/100-1]]
	b, ok := obs.Analyze(rt.Tracer().TraceOf(obs.TraceID(p99.ID())))
	if !ok {
		t.Fatalf("p99 job %d has no stage spans", p99.ID())
	}
	if f := b.AttributedFraction(); f < 0.90 {
		t.Errorf("p99 job %d: attributed %.1f%%, want >=90%%", p99.ID(), 100*f)
	}
	if b.Total != p99.Latency() {
		t.Errorf("p99 job %d: trace total %d != measured latency %d",
			p99.ID(), b.Total, p99.Latency())
	}
	if len(rep.Jobs) == 0 || rep.TotalNS <= 0 {
		t.Fatalf("empty report: %d jobs, %d ns", len(rep.Jobs), rep.TotalNS)
	}
	if rep.UnattribNS*10 > rep.TotalNS {
		t.Errorf("aggregate unattributed %d ns exceeds 10%% of %d ns",
			rep.UnattribNS, rep.TotalNS)
	}
}

func sortInt64s(s []int64) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// TestAdmitQueueWaitHistogram: every dispatched job must observe its
// enqueue->dispatch wait into charm_admit_queue_wait_ns under its priority
// class label, and the per-class counts must sum to the dispatched total.
func TestAdmitQueueWaitHistogram(t *testing.T) {
	rt, svc := tracedOverloadRun(t, false)
	// Expired jobs are caught at the dispatch-time budget check before they
	// start, so only completed jobs are guaranteed a wait observation.
	dispatched := svc.Stats().Completed
	var seen int64
	classes := map[string]bool{}
	for _, s := range rt.MetricsSnapshot().Samples {
		if s.Name != "charm_admit_queue_wait_ns" || s.Hist == nil {
			continue
		}
		seen += s.Hist.Count
		classes[s.Labels["priority"]] = true
		if s.Hist.Sum < 0 {
			t.Errorf("negative wait sum for priority %q", s.Labels["priority"])
		}
	}
	if seen == 0 {
		t.Fatal("charm_admit_queue_wait_ns not recorded")
	}
	if seen < dispatched {
		t.Errorf("histogram count %d < %d dispatched jobs", seen, dispatched)
	}
	for _, c := range []string{"0", "1", "2"} {
		if !classes[c] {
			t.Errorf("no admit-queue-wait samples for priority class %s", c)
		}
	}
}

// TestBreakerTransitionSpans: the thermal scenario must record breaker
// state transitions as runtime-scoped spans with valid states, and the
// Chrome trace must carry them as instant events.
func TestBreakerTransitionSpans(t *testing.T) {
	rt, _ := tracedOverloadRun(t, true)
	var transitions int
	for _, s := range rt.Tracer().TraceOf(0).Spans {
		if s.Kind != obs.SpanBreaker {
			continue
		}
		transitions++
		if s.Arg == s.Arg2 {
			t.Errorf("breaker span with from == to == %d", s.Arg)
		}
		for _, st := range []int64{s.Arg, s.Arg2} {
			if st < 0 || st > 2 {
				t.Errorf("breaker span with invalid state %d", st)
			}
		}
		if s.Chiplet < 0 || s.Chiplet > 3 {
			t.Errorf("breaker span on invalid chiplet %d", s.Chiplet)
		}
	}
	if transitions == 0 {
		t.Fatal("no breaker transition spans under a thermal fault with breakers on")
	}
	var chrome bytes.Buffer
	if err := rt.WriteChromeTrace(&chrome); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(chrome.String(), `"breaker-open"`) {
		t.Error("Chrome trace has no breaker-open instant event")
	}
}

// TestSLOBurnAlerts: under 2x overload the lower classes must burn their
// error budgets and fire burn-rate alerts, visible through the service
// status, the alert log, the alert counter metric, and alert spans.
func TestSLOBurnAlerts(t *testing.T) {
	rt, svc := tracedOverloadRun(t, false)
	alerts := svc.SLOAlerts()
	fired := 0
	for _, a := range alerts {
		if a.Firing {
			fired++
			if a.FastBurn < 14 || a.SlowBurn < 6 {
				t.Errorf("alert fired below thresholds: fast %.2f slow %.2f",
					a.FastBurn, a.SlowBurn)
			}
		}
	}
	if fired == 0 {
		t.Fatal("no SLO alerts fired under 2x overload")
	}
	st := svc.SLOStatus(rt.MaxWorkerClock())
	if len(st) != 3 {
		t.Fatalf("SLOStatus classes = %d, want 3", len(st))
	}
	var counted float64
	for _, s := range rt.MetricsSnapshot().Samples {
		if s.Name == "charm_slo_alerts_total" {
			counted += s.Value
		}
	}
	if int(counted) != fired {
		t.Errorf("charm_slo_alerts_total = %.0f, want %d", counted, fired)
	}
	var spans int
	for _, s := range rt.Tracer().TraceOf(0).Spans {
		if s.Kind == obs.SpanSLOAlert {
			spans++
		}
	}
	if spans != len(alerts) {
		t.Errorf("SLO alert spans = %d, want %d edges", spans, len(alerts))
	}
}

// TestFlightRecorderRetention: the recorder must retain SLO-violating
// jobs' traces (bounded by the cap) and none of the deadline-meeting ones.
func TestFlightRecorderRetention(t *testing.T) {
	rt, svc := tracedOverloadRun(t, false)
	tr := rt.Tracer()
	ids := tr.RetainedIDs()
	if len(ids) == 0 {
		t.Fatal("nothing retained under overload")
	}
	if len(ids) > obs.DefaultFlightRecorderCap {
		t.Fatalf("retained %d traces, cap %d", len(ids), obs.DefaultFlightRecorderCap)
	}
	retained := map[obs.TraceID]bool{}
	for _, id := range ids {
		retained[id] = true
	}
	for _, j := range svc.Jobs() {
		if j.State() == JobCompleted && j.MetDeadline() && retained[obs.TraceID(j.ID())] {
			t.Errorf("deadline-meeting job %d retained by the flight recorder", j.ID())
		}
	}
	for _, id := range ids {
		if len(tr.TraceOf(id).Spans) == 0 {
			t.Errorf("retained trace %d has no spans", id)
		}
	}
}

// TestTracingDisabledZeroCost: with both gates off, Emit must be two
// atomic loads — no allocation, no span recorded.
func TestTracingDisabledZeroCost(t *testing.T) {
	tr := obs.NewTracer(2, 0)
	span := obs.Span{Trace: 1, Kind: obs.SpanTask, Start: 1, End: 2}
	if n := testing.AllocsPerRun(100, func() { tr.Emit(0, span) }); n != 0 {
		t.Errorf("disabled Emit allocates %.1f times per call", n)
	}
	if got := tr.SpanCount(); got != 0 {
		t.Errorf("disabled Emit recorded %d spans", got)
	}
	tr.SetEnabled(true)
	tr.Emit(0, span)
	if got := tr.SpanCount(); got != 1 {
		t.Errorf("enabled Emit recorded %d spans, want 1", got)
	}
}
