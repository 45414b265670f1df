package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"

	"charm"
	"charm/internal/obs"
)

// ObsSink collects end-of-run metrics snapshots from every runtime the
// harness builds. Attach one via Options.Obs; every Finalize captures a
// full metrics document (snapshot + traced-metric history) into the sink,
// stamped with the id of the experiment (Options.Run) that built the
// runtime.
type ObsSink struct {
	mu      sync.Mutex
	entries []ObsEntry
	err     error // the first capture obs.WriteJSON refused
}

// ObsEntry is one runtime's end-of-run metrics capture.
type ObsEntry struct {
	// Experiment is the id of the experiment that built the runtime.
	Experiment string `json:"experiment"`
	// Workers is the runtime's worker count.
	Workers int `json:"workers"`
	// Metrics is the full metrics document at Finalize time, as
	// obs.WriteJSON wrote it.
	Metrics json.RawMessage `json:"metrics"`

	snap obs.Snapshot // the snapshot the document was written from
}

// captureAs records one runtime's metrics under the given experiment id;
// installed (with the id bound) as a Finalize hook. Safe for concurrent
// experiments.
func (s *ObsSink) captureAs(exp string, r *charm.Runtime) {
	snap := r.MetricsSnapshot()
	var doc bytes.Buffer
	err := obs.WriteJSON(&doc, snap, r.MetricsRegistry().History())
	s.mu.Lock()
	if err != nil && s.err == nil {
		s.err = fmt.Errorf("metrics capture of %s: %w", exp, err)
	}
	s.entries = append(s.entries, ObsEntry{
		Experiment: exp,
		Workers:    r.Workers(),
		Metrics:    doc.Bytes(),
		snap:       snap,
	})
	s.mu.Unlock()
}

// Entries returns a copy of the captures so far, stably ordered by
// experiment id: concurrent experiments append interleaved, but within
// one experiment the runtimes finalize in program order, which the stable
// sort preserves.
func (s *ObsSink) Entries() []ObsEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]ObsEntry, len(s.entries))
	copy(out, s.entries)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Experiment < out[j].Experiment })
	return out
}

// Len reports the number of captures.
func (s *ObsSink) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// WriteJSON dumps every capture as one indented JSON document. It fails,
// writing nothing, when a capture could not be written (a NaN or infinite
// metric value).
func (s *ObsSink) WriteJSON(w io.Writer) error {
	s.mu.Lock()
	err := s.err
	s.mu.Unlock()
	if err != nil {
		return err
	}
	doc := struct {
		Entries []ObsEntry `json:"entries"`
	}{Entries: s.Entries()}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// Summary condenses the captures into one row per runtime: the headline
// counters an experiment's metrics dump leads with.
func (s *ObsSink) Summary() *Table {
	t := &Table{
		ID:     "obs",
		Title:  "Per-runtime metrics captures",
		Header: []string{"experiment", "workers", "vtime_ms", "tasks", "steals", "migrations", "fabric_MB", "dram_MB"},
	}
	find := func(d *obs.Snapshot, name string) float64 {
		var sum float64
		for i := range d.Samples {
			if d.Samples[i].Name == name && d.Samples[i].Hist == nil {
				sum += d.Samples[i].Value
			}
		}
		return sum
	}
	for _, e := range s.Entries() {
		d := &e.snap
		t.Rows = append(t.Rows, []string{
			e.Experiment,
			fmt.Sprintf("%d", e.Workers),
			f3(float64(d.T) / 1e6),
			fmt.Sprintf("%.0f", find(d, "charm_tasks_total")),
			fmt.Sprintf("%.0f", find(d, "charm_steals_total")),
			fmt.Sprintf("%.0f", find(d, "charm_migrations_total")),
			f2(find(d, "charm_fabric_bytes_total") / (1 << 20)),
			f2(find(d, "charm_mem_bytes_total") / (1 << 20)),
		})
	}
	return t
}
