// Package harness regenerates every table and figure of the paper's
// evaluation (§5) on the simulated machines. Each experiment returns a
// Table whose rows correspond to the published plot's series; the
// cmd/charm-bench binary prints them, the test suite asserts their shapes
// (who wins, by roughly what factor, where crossovers fall), and
// EXPERIMENTS.md records paper-vs-measured values.
package harness

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"

	"charm"
	"charm/internal/core"
	"charm/internal/scenario"
	"charm/internal/topology"
)

// Options scale the experiments. The defaults run every experiment in
// seconds on a laptop; Full selects paper-sized inputs (minutes to hours).
type Options struct {
	// CacheScale divides machine cache sizes; workloads shrink by the
	// same factor so crossovers land in the same relative place.
	CacheScale int64
	// SampleShift samples cache lines (DESIGN.md §4.1).
	SampleShift uint
	// SchedulerTimer is the Alg. 1 interval in virtual ns.
	SchedulerTimer int64
	// GraphScale is log2 of the graph vertex count.
	GraphScale int
	// Full selects paper-sized inputs.
	Full bool
	// Faults, when non-empty, is a fault-scenario spec (internal/fault
	// grammar, e.g. "chiplet-flap:seed=7" or "chaos") injected into every
	// runtime the harness builds — run any experiment on a degrading
	// machine. The chaos experiment builds its own schedules and ignores
	// this knob.
	Faults string
	// ArrivalLoad, when positive, pins the overload experiment's arrival
	// rate to this multiple of machine capacity instead of sweeping
	// 0.5x/1x/2x (charm-bench -arrivals).
	ArrivalLoad float64
	// Obs, when non-nil, enables the metrics registry on every runtime
	// the harness builds and captures a metrics document into the sink at
	// each Finalize (the per-experiment metrics dump).
	Obs *ObsSink

	// obsExp is the experiment id stamped onto metrics captures. Run sets
	// it on its by-value receiver before building the experiment closures,
	// so concurrently running experiments attribute their captures
	// correctly without sharing mutable sink state.
	obsExp string
}

// Defaults returns the scaled configuration used by tests and benches.
func Defaults() Options {
	return Options{
		CacheScale:     256,
		SampleShift:    2,
		SchedulerTimer: 25_000,
		GraphScale:     13,
	}
}

// FullScale returns the paper-sized configuration.
func FullScale() Options {
	return Options{
		CacheScale:     1,
		SampleShift:    6,
		SchedulerTimer: 500_000_000,
		GraphScale:     24,
		Full:           true,
	}
}

// amd and intel build the testbed topologies under the option scaling.
func (o Options) amd() *charm.Topology { return charm.AMDMilan() }

func (o Options) intel() *charm.Topology { return charm.IntelSPR() }

// topology4 returns the Milan machine in NPS4 mode (ablation target).
func topology4() *charm.Topology { return topology.AMDMilanNPS4() }

// config is the charm.Config of a system on the selected machine under
// the option scaling.
func (o Options) config(topo *charm.Topology, sys charm.System, workers int) charm.Config {
	return charm.Config{
		Topology:       topo,
		CacheScale:     o.CacheScale,
		Workers:        workers,
		System:         sys,
		SampleShift:    o.SampleShift,
		SchedulerTimer: o.SchedulerTimer,
		FaultSpec:      o.Faults,
	}
}

// runtime builds a runtime for a system on the selected machine.
func (o Options) runtime(topo *charm.Topology, sys charm.System, workers int) *charm.Runtime {
	return o.start(o.config(topo, sys, workers))
}

// start builds and observes a runtime from an explicit configuration. It
// is the one place the harness builds a runtime, and every runtime runs in
// virtual-clock lockstep: each cell is a pure function of its inputs, so
// one run is the result, and concurrently running experiments cannot
// change each other's tables.
func (o Options) start(cfg charm.Config) *charm.Runtime {
	cfg.Deterministic = true
	rt, err := charm.Init(cfg)
	if err != nil {
		panic(fmt.Sprintf("harness: %v", err))
	}
	return o.observe(rt)
}

// onEachWorker runs f once on every worker, inside that worker's own turn,
// so a static placement lands at a fixed point of the replay instead of
// racing the idle fleet's turns.
func onEachWorker(rt *charm.Runtime, f func(w *core.Worker)) {
	rt.AllDo(func(ctx *charm.Ctx) { f(rt.Engine().Worker(ctx.Worker())) })
}

// observe attaches the metrics sink (when configured) to a runtime,
// including the service scenarios' own. The capture hook carries the
// experiment id by value, so runtimes built by concurrently running
// experiments stamp their own id.
func (o Options) observe(rt *charm.Runtime) *charm.Runtime {
	if o.Obs != nil {
		rt.EnableMetrics(true)
		exp := o.obsExp
		rt.SetFinalizeHook(func(r *charm.Runtime) { o.Obs.captureAs(exp, r) })
	}
	return rt
}

// serve runs one service scenario with the metrics sink attached and
// returns what it measured. turns, when non-nil, accumulates the run's
// lockstep grant counts.
func (o Options) serve(s scenario.Scenario, turns *charm.TurnStats) scenario.Result {
	run, err := s.Run(func(rt *charm.Runtime) { o.observe(rt) })
	if err != nil {
		panic(fmt.Sprintf("harness: %v", err))
	}
	if turns != nil {
		ts := run.RT.TurnStats()
		turns.Handoff += ts.Handoff
		turns.Inline += ts.Inline
		turns.Self += ts.Self
	}
	run.RT.Finalize()
	return run.Result
}

// Table is one experiment's output.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	// Notes records the paper's expected shape for EXPERIMENTS.md.
	Notes string
	// Footer is a host-side remark printed under the rows (not in the CSV):
	// it may differ between two runs of the same experiment.
	Footer string
}

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "## %s — %s\n", t.ID, t.Title)
	if t.Notes != "" {
		fmt.Fprintf(w, "# expected shape: %s\n", t.Notes)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	if t.Footer != "" {
		fmt.Fprintf(w, "# %s\n", t.Footer)
	}
	fmt.Fprintln(w)
}

// WriteCSV renders the table as RFC-4180 CSV (header row first) for
// plotting pipelines.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	for _, r := range t.Rows {
		if err := cw.Write(r); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Cell lookup helpers used by tests.

// Col returns the index of a header column, or -1.
func (t *Table) Col(name string) int {
	for i, h := range t.Header {
		if h == name {
			return i
		}
	}
	return -1
}

// Find returns the first row whose first column equals key, or nil.
func (t *Table) Find(key string) []string {
	for _, r := range t.Rows {
		if len(r) > 0 && r[0] == key {
			return r
		}
	}
	return nil
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func i64(v int64) string  { return fmt.Sprintf("%d", v) }
