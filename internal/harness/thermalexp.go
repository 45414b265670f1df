package harness

import (
	"charm"
	"charm/internal/scenario"
)

// The thermal-cliff experiment serves one job stream over a package with a
// single hot chiplet (a high-leakage compute die next to three efficient
// ones) under four configurations. At 70% load: the plane disabled (no
// thermal model at all — the baseline ledger), the closed-loop governor
// with load-aware dispatch (the governor's temperatures and throttle
// factors feed the placement view, so dispatch steers work off the hot die
// before it crosses a setpoint), and the governor with blind round-robin
// dispatch (the stream keeps feeding the hot die, which the governor must
// then rescue with hard throttles and emergency parks — the cliff the
// closed loop exists to catch). The shape: thermal-aware dispatch keeps
// the hot die below the park setpoint with zero parks and spends
// measurably less energy, while blind dispatch rides the governor through
// every tier and pays parks. The final overdrive row runs blind dispatch
// at 130% load: no placement slack, the governor's emergency tiers are
// the only defense, and graceful degradation means every job is still
// accounted for (completed, shed, or expired) instead of the service
// collapsing.

// sumI64 totals one per-chiplet counter slice.
func sumI64(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}

// Thermal regenerates the thermal-cliff experiment. The repro column
// re-runs the closed-loop configuration and compares the job ledger and
// the plane's final snapshot byte for byte.
func (o Options) Thermal() *Table {
	tab := &Table{
		ID:    "thermal",
		Title: "Thermal cliff: closed-loop governor with thermal-aware vs blind dispatch",
		Header: []string{"run", "completed", "met", "shed", "expired",
			"goodput_pct", "p99_us", "soft", "hard", "parks", "maxT_C",
			"energy_mJ", "repro"},
		Notes: "one hot chiplet among three efficient ones: at 70% load " +
			"thermal-aware dispatch keeps the hot die out of the emergency tier " +
			"(zero parks, peak below the park setpoint) and burns less energy " +
			"than blind round-robin, which rides the governor over the cliff " +
			"(emergency parks, peak at the park setpoint); at 130% overdrive the " +
			"governor parks under blind dispatch and the service degrades " +
			"gracefully (every job completed, shed, or expired) instead of " +
			"collapsing",
	}
	run := func(placement charm.JobPlacement, power bool, load float64) scenario.Result {
		return o.serve(scenario.Thermal(placement, power, load), nil)
	}
	row := func(name string, r scenario.Result, repro string) []string {
		soft, hard, parks, maxT, energy := "-", "-", "-", "-", "-"
		if p := r.Power; p != nil {
			soft, hard, parks = i64(sumI64(p.SoftEvents)), i64(sumI64(p.HardEvents)), i64(sumI64(p.ParkEvents))
			maxT = f1(float64(p.MaxTempMilliC) / 1000)
			energy = f1(float64(sumI64(p.EnergyPJ)) / 1e9)
		}
		return []string{
			name, i64(r.Stats.Completed), i64(r.Stats.Met), i64(r.Stats.Shed),
			i64(r.Stats.Expired), f1(r.GoodputPct()), f1(r.P99us()),
			soft, hard, parks, maxT, energy, repro,
		}
	}
	tab.Rows = append(tab.Rows, row("plane-off", run(charm.PlaceLoadAware, false, 0.7), "-"))
	closed := run(charm.PlaceLoadAware, true, 0.7)
	repro := "no"
	if scenario.Same(closed, run(charm.PlaceLoadAware, true, 0.7)) {
		repro = "yes"
	}
	tab.Rows = append(tab.Rows, row("closed-loop", closed, repro))
	tab.Rows = append(tab.Rows, row("static-rr", run(charm.PlaceRoundRobin, true, 0.7), "-"))
	tab.Rows = append(tab.Rows, row("overdrive-1.3x", run(charm.PlaceRoundRobin, true, 1.3), "-"))
	return tab
}
