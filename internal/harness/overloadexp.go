package harness

import (
	"fmt"

	"charm"
	"charm/internal/scenario"
)

// The overload experiment drives the open-loop job service at arrival rates
// from 0.5x to 2x of machine capacity and compares the admission policies:
// a no-admission baseline (an effectively unbounded Block queue), bounded
// Block, typed Reject, and deadline-aware Shed. Goodput is the fraction of
// machine capacity spent on jobs that met their deadline; at 2x the shed
// policy must keep goodput high while the no-admission baseline's queue —
// and therefore its p99 latency — diverges. A second scenario thermally
// throttles one chiplet and shows the per-chiplet circuit breaker capping
// the browned-out chiplet's queue depth relative to a breaker-off run.

// Overload regenerates the admission/overload experiment: policies
// none (unbounded Block), block, reject, and shed at 0.5x, 1x, and 2x of
// capacity, plus a breaker-off/on pair under a thermal fault at 2x. The
// repro column re-runs shed-2x and compares the full ledger byte for byte.
func (o Options) Overload() *Table {
	tab := &Table{
		ID:    "overload",
		Title: "Open-loop admission: goodput and p99 under 0.5x-2x arrival rates",
		Header: []string{"run", "offered", "completed", "met", "shed", "rejected",
			"expired", "goodput_pct", "p99_us", "maxq_ch1", "repro"},
		Notes: "at 2x capacity deadline-aware shedding sustains >=90% goodput " +
			"while the no-admission baseline's p99 diverges; under a thermal " +
			"fault the chiplet-1 breaker caps its queue depth vs breaker-off",
	}
	loads := []float64{0.5, 1, 2}
	if o.ArrivalLoad > 0 {
		loads = []float64{o.ArrivalLoad}
	}
	policies := []struct {
		name     string
		policy   charm.AdmitPolicy
		queueCap int
	}{
		{"none", charm.AdmitBlock, scenario.OverloadBigQueue},
		{"block", charm.AdmitBlock, scenario.OverloadQueueCap},
		{"reject", charm.AdmitReject, scenario.OverloadQueueCap},
		{"shed", charm.AdmitShed, scenario.OverloadQueueCap},
	}
	run := func(p scenario.OverloadParams) scenario.Result {
		return o.serve(scenario.Overload(p), nil)
	}
	row := func(name string, r scenario.Result, repro string) []string {
		return []string{
			name, i64(r.Stats.Submitted), i64(r.Stats.Completed), i64(r.Stats.Met),
			i64(r.Stats.Shed), i64(r.Stats.Rejected), i64(r.Stats.Expired),
			f1(r.GoodputPct()), f1(r.P99us()), i64(r.MaxDepth[1]), repro,
		}
	}
	for _, p := range policies {
		for _, load := range loads {
			cell := scenario.OverloadParams{Policy: p.policy, QueueCap: p.queueCap, Load: load}
			r := run(cell)
			repro := "-"
			if p.name == "shed" && load == 2 {
				repro = "no"
				if scenario.Same(r, run(cell)) {
					repro = "yes"
				}
			}
			tab.Rows = append(tab.Rows, row(fmt.Sprintf("%s-%gx", p.name, load), r, repro))
		}
	}
	// Placement ablation: shed admission with the legacy round-robin
	// dispatch, the comparison the load-aware decision plane must meet or
	// beat on goodput and p99 at matched load.
	for _, load := range []float64{1, 2} {
		r := run(scenario.OverloadParams{Policy: charm.AdmitShed, QueueCap: scenario.OverloadQueueCap,
			Load: load, Placement: charm.PlaceRoundRobin})
		tab.Rows = append(tab.Rows, row(fmt.Sprintf("rr-%gx", load), r, "-"))
	}
	// Breaker scenario: chiplet 1 runs 3x slow; with breakers on, its
	// admission refusals cap the browned-out chiplet's queue depth. The
	// pair runs under round-robin placement: load-aware dispatch already
	// routes around the browned-out chiplet via the view's fused health,
	// so the blind baseline is what isolates the breaker's own effect.
	brownout := scenario.OverloadParams{Policy: charm.AdmitShed, QueueCap: scenario.OverloadQueueCap,
		Load: 2, Thermal: true, Placement: charm.PlaceRoundRobin}
	tab.Rows = append(tab.Rows, row("breaker-off-2x", run(brownout), "-"))
	brownout.Breakers = true
	tab.Rows = append(tab.Rows, row("breaker-on-2x", run(brownout), "-"))
	return tab
}
