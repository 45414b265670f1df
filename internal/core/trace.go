package core

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"

	"charm/internal/obs"
)

// EnableProfiler turns the profile — the performance profiler, component ①
// of the CHARM architecture — on or off: every task's lifecycle, the Alg. 1
// samples, and the migration and fault instants, recorded into the tracer
// beside the job kinds that EnableTracing gates.
func (rt *Runtime) EnableProfiler(on bool) { rt.tracer.SetProfiling(on) }

// traceEvent is one Chrome trace-event JSON object. Args values are
// float64 so counter tracks can carry utilization ratios; integral values
// round-trip exactly (they stay far below 2^53).
type traceEvent struct {
	Name  string             `json:"name"`
	Phase string             `json:"ph"`
	TS    float64            `json:"ts"`
	PID   int                `json:"pid"`
	TID   int                `json:"tid"`
	Args  map[string]float64 `json:"args,omitempty"`
	Scope string             `json:"s,omitempty"`
}

// phaseRank orders phases at identical (ts, tid): the Chrome trace format
// requires an E to precede the next span's B at the same timestamp so
// back-to-back tasks nest properly. Span emission guarantees E > B within
// one span (see minSpanUS), so E-first never unbalances a span.
func phaseRank(ph string) int {
	switch ph {
	case "E":
		return 0
	case "B":
		return 2
	default:
		return 1
	}
}

// minSpanUS pads zero-duration spans to one virtual nanosecond so their
// B/E pair stays balanced under E-first ordering.
const minSpanUS = 0.001

// faultInstants names the fault-handling instants of the Chrome trace and
// the code each carries in its args, in the order a worker files them at
// one clock (offline, then re-home or park).
var faultInstants = map[obs.SpanKind]struct {
	name string
	code int64
}{
	obs.SpanOffline: {"fault-offline", 0},
	obs.SpanRehome:  {"fault-rehome", 1},
	obs.SpanPark:    {"fault-park", 2},
	obs.SpanResume:  {"fault-resume", 3},
}

// faultSpans returns the fault-handling instants among spans, ordered by
// (time, worker, code).
func faultSpans(spans []obs.Span) []obs.Span {
	var out []obs.Span
	for _, s := range spans {
		if _, ok := faultInstants[s.Kind]; ok {
			out = append(out, s)
		}
	}
	slices.SortStableFunc(out, func(a, b obs.Span) int {
		return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(a.Worker, b.Worker),
			cmp.Compare(faultInstants[a.Kind].code, faultInstants[b.Kind].code))
	})
	return out
}

// LiveTaskSamples is the Fig. 12 thread-concurrency trace derived from the
// SpanTask spans among spans: at every multiple of tick from the first task
// execution to the last completion, the count of tasks started and not yet
// finished. Sample i is at first + i*tick. Spans replay exactly under
// Deterministic execution, so the samples do too, however many idle turns
// the host ran between two submissions. Empty without task spans or
// without a positive tick.
func LiveTaskSamples(spans []obs.Span, tick int64) (first int64, live []int64) {
	var tasks []obs.Span
	for _, s := range spans {
		if s.Kind == obs.SpanTask {
			tasks = append(tasks, s)
		}
	}
	if len(tasks) == 0 || tick <= 0 {
		return 0, nil
	}
	lo, hi := tasks[0].Arg, tasks[0].End
	for _, s := range tasks {
		lo, hi = min(lo, s.Arg), max(hi, s.End)
	}
	first = lo + tick - lo%tick
	for t := first; t < hi; t += tick {
		var n int64
		for _, s := range tasks {
			if s.Arg <= t && t < s.End {
				n++
			}
		}
		live = append(live, n)
	}
	return first, live
}

// WriteChromeTrace exports the runtime's record as a Chrome trace-event
// JSON document (load it at chrome://tracing or in Perfetto); see
// writeChromeTrace.
func (rt *Runtime) WriteChromeTrace(w io.Writer) error {
	return writeChromeTrace(w, rt.tracer, rt.met.reg, rt.opts.SchedulerTimer)
}

// writeChromeTrace renders the tracer's record and the registry's sampled
// history as a Chrome trace-event document:
//
//   - per-worker counter tracks for spread_rate and the Alg. 1 fill rate;
//   - a live_tasks counter track, the live-task count at every multiple of
//     tick over the recorded task spans (LiveTaskSamples);
//   - instant events for migrations and fault-handling actions;
//   - B/E duration events for every recorded task span (name encodes the
//     provenance: task, task-stolen, delegate), tid = completing worker;
//   - instant events for breaker transitions and SLO alert edges;
//   - counter tracks for every traced registry metric sampled over the
//     run (fabric link occupancy, memory channel utilization, ...).
//
// Timestamps are virtual microseconds. Events are sorted by (ts, tid,
// phase), so output is deterministic and diffable across runs with
// identical seeds.
func writeChromeTrace(w io.Writer, tr *obs.Tracer, reg *obs.Registry, tick int64) error {
	spans := tr.Spans()
	us := func(t int64) float64 { return float64(t) / 1000.0 }
	var events []traceEvent
	var tasks []obs.Span
	for _, s := range spans {
		switch s.Kind {
		case obs.SpanSpread, obs.SpanFillRate:
			name := "spread_rate"
			if s.Kind == obs.SpanFillRate {
				name = "fill_rate"
			}
			events = append(events, traceEvent{Name: fmt.Sprintf("%s.w%02d", name, s.Worker),
				Phase: "C", TS: us(s.Start), TID: int(s.Worker),
				Args: map[string]float64{"value": float64(s.Arg)}})
		case obs.SpanMigration:
			events = append(events, traceEvent{Name: "migration", Phase: "i", Scope: "t",
				TS: us(s.Start), TID: int(s.Worker),
				Args: map[string]float64{"core": float64(s.Arg)}})
		case obs.SpanTask:
			tasks = append(tasks, s)
		}
	}
	first, live := LiveTaskSamples(tasks, tick)
	for i, n := range live {
		events = append(events, traceEvent{Name: "live_tasks", Phase: "C",
			TS: us(first + int64(i)*tick), Args: map[string]float64{"value": float64(n)}})
	}

	// Fault-handling actions: one instant event per recorded action, so
	// offline/re-home/park/resume show up as distinct markers
	// on the worker's track.
	for _, s := range faultSpans(spans) {
		f := faultInstants[s.Kind]
		events = append(events, traceEvent{
			Name: f.name, Phase: "i", Scope: "t", TS: us(s.Start), TID: int(s.Worker),
			Args: map[string]float64{"code": float64(f.code)},
		})
	}

	// Task lifecycle spans: one B/E pair per completed task on the
	// completing worker's track, by first execution then task id.
	slices.SortFunc(tasks, func(a, b obs.Span) int {
		return cmp.Or(cmp.Compare(a.Arg, b.Arg), cmp.Compare(a.Task, b.Task))
	})
	for _, s := range tasks {
		delegated := s.Flags&obs.FlagDelegated != 0
		name := "task"
		switch {
		case delegated:
			name = "delegate"
		case s.Steals > 0:
			name = "task-stolen"
		}
		args := map[string]float64{
			"id":         float64(s.Task),
			"home":       float64(s.Home),
			"enqueue_us": us(s.Start),
		}
		if s.Steals > 0 {
			args["steals"] = float64(s.Steals)
			if s.Flags&obs.FlagRemoteSteal != 0 {
				args["remote_steal"] = 1
			}
		}
		if delegated {
			args["hops"] = float64(s.Hops)
		}
		start, end := us(s.Arg), us(s.End)
		if end <= start {
			end = start + minSpanUS
		}
		events = append(events,
			traceEvent{Name: name, Phase: "B", TS: start, TID: int(s.Worker), Args: args},
			traceEvent{Name: name, Phase: "E", TS: end, TID: int(s.Worker)})
	}

	// Breaker transitions and SLO alert edges: one instant event per edge on
	// the machine-level pid, tid = chiplet (for breakers) or priority class
	// (for alerts), so overload runs show breaker flaps and budget burns on
	// the timeline.
	brkNames := map[int64]string{
		0: "breaker-closed", 1: "breaker-open", 2: "breaker-half-open",
	}
	for _, s := range spans {
		switch s.Kind {
		case obs.SpanBreaker:
			name := brkNames[s.Arg]
			if name == "" {
				name = "breaker"
			}
			events = append(events, traceEvent{
				Name: name, Phase: "i", Scope: "t",
				TS: us(s.Start), PID: 1, TID: int(s.Chiplet),
				Args: map[string]float64{"from": float64(s.Arg2), "to": float64(s.Arg)},
			})
		case obs.SpanSLOAlert:
			name := "slo-alert-cleared"
			if s.Arg2 == 1 {
				name = "slo-alert-fired"
			}
			events = append(events, traceEvent{
				Name: name, Phase: "i", Scope: "t",
				TS: us(s.Start), PID: 1, TID: int(s.Arg),
				Args: map[string]float64{"class": float64(s.Arg)},
			})
		}
	}

	// Registry history: one counter track per traced metric (fabric link
	// occupancy, memory channel utilization, live tasks, ...). pid 1
	// groups the machine-level tracks away from the worker tracks.
	if reg != nil {
		for _, snap := range reg.History() {
			for i := range snap.Samples {
				s := &snap.Samples[i]
				events = append(events, traceEvent{
					Name:  s.Key(),
					Phase: "C",
					TS:    us(snap.T),
					PID:   1,
					Args:  map[string]float64{"value": s.Value},
				})
			}
		}
	}

	sort.SliceStable(events, func(i, j int) bool {
		if events[i].TS != events[j].TS {
			return events[i].TS < events[j].TS
		}
		if events[i].TID != events[j].TID {
			return events[i].TID < events[j].TID
		}
		return phaseRank(events[i].Phase) < phaseRank(events[j].Phase)
	})

	doc := struct {
		TraceEvents []traceEvent `json:"traceEvents"`
		DisplayUnit string       `json:"displayTimeUnit"`
	}{TraceEvents: events, DisplayUnit: "ns"}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}
