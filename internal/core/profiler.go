package core

import (
	"sort"
	"sync"
	"sync/atomic"

	"charm/internal/obs"
)

// ProfSeries identifies a profiler time series.
type ProfSeries uint8

const (
	// ProfSpread records a worker's spread_rate after each decision.
	ProfSpread ProfSeries = iota
	// ProfFillRate records the Alg. 1 normalized fill rate per decision.
	ProfFillRate
	// ProfMigration records core re-assignments (value = new core).
	ProfMigration
	// ProfFault records fault-handling actions (value = one of the fc*
	// codes in fault.go): offlining, drains, re-homes, parks, retries,
	// watchdog trips. Rendered as instant events in the Chrome trace.
	ProfFault

	numProfSeries
)

// ProfSample is one (virtual time, value) observation of a worker.
type ProfSample struct {
	Worker int
	T      int64
	V      int64
}

// TaskSpan is the lifecycle record of one finished task: enqueue → first
// execution → completion, with its steal and delegation provenance.
type TaskSpan struct {
	// ID is the runtime-wide task sequence number.
	ID uint64
	// Home is the worker the task was submitted to; Worker is the one
	// that completed it (they differ after a steal).
	Home, Worker int
	// Enqueue, Start, End are virtual times: submission stamp, first
	// execution, completion.
	Enqueue, Start, End int64
	// Steals counts how many times the task changed workers via
	// stealing (a coroutine can migrate more than once).
	Steals int
	// Remote marks a steal that crossed a chiplet boundary.
	Remote bool
	// Delegated marks tasks shipped by Call/CallAsync/Delegate; Hops is
	// the delegation depth (1 for a direct delegation).
	Delegated bool
	Hops      int
}

// Profiler records low-overhead time series and task-lifecycle spans for
// post-run analysis — the performance profiler component ① of the CHARM
// architecture. Disabled by default; when disabled, Record and RecordSpan
// cost one atomic load and take no lock.
type Profiler struct {
	enabled atomic.Bool
	mu      sync.Mutex
	series  [numProfSeries][]ProfSample
	spans   []TaskSpan
	// reg, when attached, contributes its sampled history to the Chrome
	// trace as counter tracks (fabric links, memory channels).
	reg *obs.Registry
	// tracer, when attached, contributes breaker transitions and SLO
	// alert edges to the Chrome trace as instant events.
	tracer *obs.Tracer
	// tick spaces the Chrome trace's live-task samples (the runtime's
	// scheduler timer; 0 = no live-task track).
	tick int64
}

// NewProfiler returns a disabled profiler.
func NewProfiler() *Profiler { return &Profiler{} }

// AttachRegistry links a metrics registry whose periodic samples become
// counter tracks in WriteChromeTrace.
func (p *Profiler) AttachRegistry(r *obs.Registry) { p.reg = r }

// AttachTracer links a span tracer whose breaker transitions and SLO
// alert edges become instant events in WriteChromeTrace.
func (p *Profiler) AttachTracer(t *obs.Tracer) { p.tracer = t }

// Enable turns recording on or off and clears recorded data when enabling.
func (p *Profiler) Enable(on bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if on {
		for i := range p.series {
			p.series[i] = nil
		}
		p.spans = nil
	}
	p.enabled.Store(on)
}

// Enabled reports whether the profiler is recording.
func (p *Profiler) Enabled() bool { return p.enabled.Load() }

// Record appends one observation if the profiler is enabled. The disabled
// path is a single atomic load — cheap enough for every decision interval.
func (p *Profiler) Record(s ProfSeries, worker int, t, v int64) {
	if !p.enabled.Load() {
		return
	}
	p.mu.Lock()
	p.series[s] = append(p.series[s], ProfSample{Worker: worker, T: t, V: v})
	p.mu.Unlock()
}

// RecordSpan appends one task-lifecycle span if the profiler is enabled.
func (p *Profiler) RecordSpan(s TaskSpan) {
	if !p.enabled.Load() {
		return
	}
	p.mu.Lock()
	p.spans = append(p.spans, s)
	p.mu.Unlock()
}

// Samples returns a copy of the recorded series sorted by time.
func (p *Profiler) Samples(s ProfSeries) []ProfSample {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]ProfSample, len(p.series[s]))
	copy(out, p.series[s])
	sort.Slice(out, func(i, j int) bool { return out[i].T < out[j].T })
	return out
}

// Spans returns a copy of the recorded task spans sorted by start time
// (ties broken by ID so the order is deterministic).
func (p *Profiler) Spans() []TaskSpan {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]TaskSpan, len(p.spans))
	copy(out, p.spans)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// LiveTaskSamples is the Fig. 12 thread-concurrency trace derived from task
// spans: at every multiple of tick from the first task start to the last
// task end, the count of tasks started and not yet finished. Spans replay
// exactly under Deterministic execution, so the samples do too, however
// many idle turns the host ran between two submissions. Nil without spans
// or without a positive tick.
func LiveTaskSamples(spans []TaskSpan, tick int64) []ProfSample {
	if len(spans) == 0 || tick <= 0 {
		return nil
	}
	lo, hi := spans[0].Start, spans[0].End
	for _, s := range spans {
		lo, hi = min(lo, s.Start), max(hi, s.End)
	}
	var out []ProfSample
	for t := lo + tick - lo%tick; t < hi; t += tick {
		var n int64
		for _, s := range spans {
			if s.Start <= t && t < s.End {
				n++
			}
		}
		out = append(out, ProfSample{T: t, V: n})
	}
	return out
}

// MeanValue returns the mean of a series' values, or 0 when empty.
func (p *Profiler) MeanValue(s ProfSeries) float64 {
	samples := p.Samples(s)
	if len(samples) == 0 {
		return 0
	}
	var sum int64
	for _, x := range samples {
		sum += x.V
	}
	return float64(sum) / float64(len(samples))
}
