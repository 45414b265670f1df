package core

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"charm/internal/obs"
)

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

// WriteChromeTrace exports the recorded observability data as a Chrome
// trace-event JSON document (load it at chrome://tracing or in Perfetto):
//
//   - per-worker counter tracks for spread_rate and the Alg. 1 fill rate;
//   - a live_tasks counter track, the live-task count at every scheduler
//     tick of the recorded task spans (LiveTaskSamples);
//   - instant events for migrations;
//   - B/E duration events for every recorded task span (name encodes the
//     provenance: task, task-stolen, delegate), tid = completing worker;
//   - counter tracks for every traced registry metric sampled over the
//     run (fabric link occupancy, memory channel utilization, ...) when a
//     registry is attached.
//
// Timestamps are virtual microseconds. Events are sorted by (ts, tid,
// phase), so output is deterministic and diffable across runs with
// identical seeds.
func (p *Profiler) WriteChromeTrace(w io.Writer) error {
	var events []traceEvent
	add := func(series ProfSeries, name string, counter bool) {
		for _, s := range p.Samples(series) {
			e := traceEvent{
				Name: name,
				TS:   float64(s.T) / 1000.0,
				PID:  0,
				TID:  s.Worker,
			}
			if counter {
				e.Phase = "C"
				e.Name = fmt.Sprintf("%s.w%02d", name, s.Worker)
				e.Args = map[string]float64{"value": float64(s.V)}
			} else {
				e.Phase = "i"
				e.Scope = "t"
				e.Args = map[string]float64{"core": float64(s.V)}
			}
			events = append(events, e)
		}
	}
	add(ProfSpread, "spread_rate", true)
	add(ProfFillRate, "fill_rate", true)
	add(ProfMigration, "migration", false)
	spans := p.Spans()
	for _, s := range LiveTaskSamples(spans, p.tick) {
		events = append(events, traceEvent{Name: "live_tasks", Phase: "C",
			TS: float64(s.T) / 1000.0, Args: map[string]float64{"value": float64(s.V)}})
	}

	// Fault-handling actions: one instant event per recorded action, named
	// by the fc* code so offline/re-home/park/resume/retry/watchdog show up
	// as distinct markers on the worker's track.
	fcNames := map[int64]string{
		fcOffline: "fault-offline", fcRehome: "fault-rehome",
		fcPark: "fault-park", fcResume: "fault-resume",
		fcRetry: "task-retry", fcWatchdog: "watchdog-trip",
	}
	for _, s := range p.Samples(ProfFault) {
		name := fcNames[s.V]
		if name == "" {
			name = "fault"
		}
		events = append(events, traceEvent{
			Name: name, Phase: "i", Scope: "t",
			TS: float64(s.T) / 1000.0, PID: 0, TID: s.Worker,
			Args: map[string]float64{"code": float64(s.V)},
		})
	}

	// Task lifecycle spans: one B/E pair per completed task on the
	// completing worker's track.
	for _, s := range spans {
		name := "task"
		switch {
		case s.Delegated:
			name = "delegate"
		case s.Steals > 0:
			name = "task-stolen"
		}
		args := map[string]float64{
			"id":         float64(s.ID),
			"home":       float64(s.Home),
			"enqueue_us": float64(s.Enqueue) / 1000.0,
		}
		if s.Steals > 0 {
			args["steals"] = float64(s.Steals)
			if s.Remote {
				args["remote_steal"] = 1
			}
		}
		if s.Delegated {
			args["hops"] = float64(s.Hops)
		}
		start := float64(s.Start) / 1000.0
		end := float64(s.End) / 1000.0
		if end <= start {
			end = start + minSpanUS
		}
		events = append(events,
			traceEvent{Name: name, Phase: "B", TS: start,
				PID: 0, TID: s.Worker, Args: args},
			traceEvent{Name: name, Phase: "E", TS: end,
				PID: 0, TID: s.Worker})
	}

	// Breaker transitions and SLO alert edges from the span tracer: one
	// instant event per edge on the machine-level pid, tid = chiplet (for
	// breakers) or priority class (for alerts), so overload runs show
	// breaker flaps and budget burns on the timeline.
	if p.tracer != nil {
		brkNames := map[int64]string{
			0: "breaker-closed", 1: "breaker-open", 2: "breaker-half-open",
		}
		// Both kinds are runtime-scope spans (trace 0).
		for _, s := range p.tracer.TraceOf(0).Spans {
			switch s.Kind {
			case obs.SpanBreaker:
				name := brkNames[s.Arg]
				if name == "" {
					name = "breaker"
				}
				events = append(events, traceEvent{
					Name: name, Phase: "i", Scope: "t",
					TS: float64(s.Start) / 1000.0, PID: 1, TID: int(s.Chiplet),
					Args: map[string]float64{"from": float64(s.Arg2), "to": float64(s.Arg)},
				})
			case obs.SpanSLOAlert:
				name := "slo-alert-cleared"
				if s.Arg2 == 1 {
					name = "slo-alert-fired"
				}
				events = append(events, traceEvent{
					Name: name, Phase: "i", Scope: "t",
					TS: float64(s.Start) / 1000.0, PID: 1, TID: int(s.Arg),
					Args: map[string]float64{"class": float64(s.Arg)},
				})
			}
		}
	}

	// Registry history: one counter track per traced metric (fabric link
	// occupancy, memory channel utilization, live tasks, ...). pid 1
	// groups the machine-level tracks away from the worker tracks.
	if p.reg != nil {
		for _, snap := range p.reg.History() {
			for i := range snap.Samples {
				s := &snap.Samples[i]
				events = append(events, traceEvent{
					Name:  s.Key(),
					Phase: "C",
					TS:    float64(snap.T) / 1000.0,
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
