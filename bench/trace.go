package main

import "time"

// span is one timed interval of the benchmark's own code around a facade
// call. Spans live in memory until the run ends.
type span struct {
	id, parent int // parent is -1 for a root
	name       string
	start, end time.Duration // since the tracer's epoch
}

// tracer records phase spans for the traced pass. A nil tracer records
// nothing, so the timed passes run the same code without the bookkeeping.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int // stack of open span ids
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under the innermost open span and returns its id.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{id: id, parent: parent, name: name, start: time.Since(t.epoch)})
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic("bench: spans must close innermost first")
	}
	t.open = t.open[:len(t.open)-1]
	t.spans[id].end = time.Since(t.epoch)
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part its direct children cover.
func selfTimes(spans []span) map[string]time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start
	}
	for _, s := range spans {
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	out := map[string]time.Duration{}
	for i, s := range spans {
		out[s.name] += self[i]
	}
	return out
}
