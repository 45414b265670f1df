package harness

import (
	"charm"
	"charm/internal/scenario"
)

// The topology-sensitivity experiment serves one mixed job stream over
// every interconnect fabric the topo-spec grammar knows, on a homogeneous
// and on a heterogeneous chiplet mix, comparing CHARM's placement
// (load-aware dispatch with congestion demotion and capability-preferred
// kinds) against the static round-robin baseline. The stream is built to
// expose fabric structure: memory-heavy jobs stream a shared array that
// lives spread across the package's L3s, so nearly every access is a
// cross-chiplet transfer and the per-link queueing of the interconnect —
// not the DRAM ceiling — is the bottleneck (a ring's few shared links
// saturate while a crossbar's private links never queue), and
// compute-heavy jobs prefer accelerator dies (which only the
// capability-aware dispatcher can honor). The repro column re-runs the
// CHARM cell and compares the job ledger and every per-job latency byte
// for byte.

// tpSpec renders the spec string for one fabric and chiplet mix.
func tpSpec(fab string, het bool) string {
	if het {
		return fab + ":4x2,fast=2,eff=4,accel=2"
	}
	return fab + ":4x2"
}

// Topo regenerates the topology-sensitivity experiment: every fabric ×
// homogeneous/heterogeneous mix, CHARM placement vs static round-robin.
func (o Options) Topo() *Table {
	tab := &Table{
		ID:    "topo",
		Title: "Topology sensitivity: fabrics x chiplet mixes, CHARM vs static placement",
		Header: []string{"spec", "charm_p99_us", "charm_goodput", "static_p99_us",
			"static_goodput", "repro"},
		Notes: "memory-heavy jobs stream a package-resident shared array, so " +
			"cross-chiplet transfers make per-link fabric queueing the bottleneck " +
			"(a ring's few shared links saturate, a crossbar's private links never " +
			"queue) and compute jobs prefer accelerator dies; CHARM = load-aware " +
			"dispatch with congestion demotion plus capability preference, static " +
			"= blind round-robin; the p99 spread across fabrics shows the " +
			"interconnect is a first-order term, and CHARM beats static's p99 on " +
			"every heterogeneous mix and on the homogeneous mesh, crossbar and " +
			"flattened butterfly; on the homogeneous star and ring the two jobs " +
			"that decide a 200-job p99 do not separate the policies",
	}
	for _, het := range []bool{false, true} {
		for _, fab := range charm.SpecFabrics() {
			spec := tpSpec(fab, het)
			cr := o.serve(scenario.Topo(spec, charm.PlaceLoadAware), nil)
			repro := "no"
			if scenario.Same(cr, o.serve(scenario.Topo(spec, charm.PlaceLoadAware), nil)) {
				repro = "yes"
			}
			sr := o.serve(scenario.Topo(spec, charm.PlaceRoundRobin), nil)
			tab.Rows = append(tab.Rows, []string{
				spec, f1(cr.P99us()), f1(cr.GoodputPct()),
				f1(sr.P99us()), f1(sr.GoodputPct()), repro,
			})
		}
	}
	return tab
}
