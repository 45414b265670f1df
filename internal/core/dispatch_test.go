package core

import (
	"testing"

	"charm/internal/admit"
	"charm/internal/fault"
	"charm/internal/sim"
	"charm/internal/tenant"
	"charm/internal/topology"
)

// TestDispatchAllocs pins allocation-free stage dispatch: once a service
// has placed a stage, placing the next one — rebuilding the dispatch view,
// ordering chiplets, walking leases and breakers, choosing targets —
// allocates nothing. The runtimes are never started, so no worker
// allocates underneath the count.
func TestDispatchAllocs(t *testing.T) {
	synth := topology.Synthetic(4, 2)
	sp, err := topology.ParseTopoSpec("mesh:4x2,fast=2,eff=4,accel=2")
	if err != nil {
		t.Fatal(err)
	}
	het, err := sp.Build()
	if err != nil {
		t.Fatal(err)
	}
	plan := compilePlan(t, fault.New("dispatch-allocs", 5).
		LinkBrownout(1, 0, fault.Forever, 3.0).
		OfflineChiplet(2, 0, fault.Forever), synth)
	cases := []struct {
		name string
		topo *topology.Topology
		opts Options
		svc  JobServiceOptions
		kind topology.ChipletKind
		// leased grants tenant 0 its lease before dispatching.
		leased bool
	}{
		{name: "load-aware", topo: synth},
		{name: "prefer-kind", topo: het, kind: topology.KindAccel},
		{name: "leased-tenant", topo: synth, leased: true, svc: JobServiceOptions{
			Tenants: []TenantConfig{
				{Spec: tenant.Spec{Name: "A", Weight: 1, Quota: 2}},
				{Spec: tenant.Spec{Name: "B", Weight: 1, Quota: 1}},
			},
		}},
		{name: "faults-breakers", topo: synth,
			opts: Options{Faults: plan, Power: hotPowerConfig()},
			svc:  JobServiceOptions{Breakers: true, Policy: admit.Shed}},
		{name: "round-robin", topo: synth,
			svc: JobServiceOptions{Placement: PlaceRoundRobin}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.opts.Workers = tc.topo.NumCores()
			rt := NewRuntime(sim.New(sim.Config{Topo: tc.topo}), tc.opts)
			defer rt.Stop()
			s, err := rt.ServeJobs(tc.svc)
			if err != nil {
				t.Fatal(err)
			}
			s.mu.Lock()
			defer s.mu.Unlock()
			const now = 1_000_000
			s.evalLocked(now) // breakers and observed slowdown, leases
			if tc.leased {
				s.tens[0].inflight = 1 // demand, so arbitration grants a lease
				s.evalLeasesLocked(now)
				s.tens[0].inflight = 0
				if s.leases.Held(0) == 0 {
					t.Fatal("tenant 0 holds no lease")
				}
			}
			// Warm the scratch to the largest stage, then alternate a
			// co-located stage with one that spills over several chiplets.
			s.placeStageLocked(now, 2*len(rt.workers), 0, tc.kind)
			n := 0
			allocs := testing.AllocsPerRun(50, func() {
				n = 1 + (n+3)%len(rt.workers)
				if got := s.placeStageLocked(now, n, 0, tc.kind); len(got) != n {
					t.Fatalf("placed %d tasks, want %d", len(got), n)
				}
			})
			if allocs != 0 {
				t.Errorf("placeStageLocked allocates %.1f objects per stage, want 0", allocs)
			}
		})
	}
}
