package harness

import (
	"fmt"

	"charm"
	"charm/internal/scenario"
)

// The tenant-isolation experiment is the noisy-neighbor containment gate.
// Two tenants share one machine: tenant A runs a diurnal latency-sensitive
// stream well inside its guaranteed share, tenant B flash-crowds to 10x its
// quota. Under the shared-heap baseline (one Block queue, no tenancy) B's
// flood queues ahead of A and A's p99 diverges; under the isolation plane
// (per-tenant queues, token buckets, DRR dispatch, chiplet leases) A's p99
// must stay within 2x of its solo run while the baseline exceeds 10x. A
// fault row offlines one of A's leased chiplets mid-run to show lease
// rebalance instead of starvation, and the repro row replays the isolated
// run and compares the full per-tenant ledger byte for byte.

// Tenants regenerates the multi-tenant isolation experiment.
func (o Options) Tenants() *Table {
	tab := &Table{
		ID:    "tenants",
		Title: "Multi-tenant isolation: noisy-neighbor containment under a 10x flash crowd",
		Header: []string{"run", "tenant", "completed", "met", "shed", "rejected",
			"rate_limited", "p99_us", "containment_x", "leases", "lease_ev", "repro"},
		Notes: "tenant B flash-crowds to 10x its quota; with per-tenant queues, " +
			"token buckets, DRR dispatch, and chiplet leases, tenant A's p99 stays " +
			"within 2x of its solo run while the shared-heap baseline exceeds 10x; " +
			"the fault row offlines one of A's leased chiplets mid-run (lease " +
			"rebalance, not starvation); repro compares a full replay byte for byte",
	}
	var turns charm.TurnStats
	run := func(mode scenario.TenantMode, fault bool) scenario.Result {
		return o.serve(scenario.Tenants(mode, fault, scenario.TenantBFactor), &turns)
	}
	solo := run(scenario.SoloA, false).Tenants
	base := run(scenario.SharedHeap, false)
	iso := run(scenario.Isolated, false)
	isoAgain := run(scenario.Isolated, false)
	flt := run(scenario.Isolated, true).Tenants
	if n := turns.Handoff + turns.Inline + turns.Self; n > 0 {
		tab.Footer = fmt.Sprintf("lockstep turns over the five runs (host-paced): %d, %.1f%% idle turns "+
			"played inline, %.1f%% goroutine handoffs, %.1f%% straight back", n,
			100*float64(turns.Inline)/float64(n), 100*float64(turns.Handoff)/float64(n),
			100*float64(turns.Self)/float64(n))
	}

	soloP99 := solo["A"].P99us()
	repro := "no"
	if scenario.Same(iso, isoAgain) {
		repro = "yes"
	}
	row := func(run, tenant string, r scenario.TenantResult, rep string) []string {
		cont := "-"
		if tenant == "A" && soloP99 > 0 && run != "solo" {
			cont = f1(r.P99us() / soloP99)
		}
		return []string{
			run, tenant, i64(r.Completed), i64(r.Met), i64(r.Shed), i64(r.Rejected),
			i64(r.RateLimited), f1(r.P99us()), cont, i64(int64(r.Leases)),
			i64(r.LeaseGrants + r.LeaseReclaims), rep,
		}
	}
	// The baseline has no per-tenant ledger; park its totals on B.
	baseB := base.Tenants["B"]
	baseB.Shed, baseB.Rejected = base.Stats.Shed, base.Stats.Rejected
	tab.Rows = append(tab.Rows,
		row("solo", "A", solo["A"], "-"),
		row("shared-heap", "A", base.Tenants["A"], "-"),
		row("shared-heap", "B", baseB, "-"),
		row("isolated", "A", iso.Tenants["A"], repro),
		row("isolated", "B", iso.Tenants["B"], repro),
		row("isolated-fault", "A", flt["A"], "-"),
		row("isolated-fault", "B", flt["B"], "-"),
	)
	return tab
}
