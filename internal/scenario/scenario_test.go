package scenario

import (
	"testing"

	"charm"
)

func TestP99NearestRank(t *testing.T) {
	if got := p99us(nil); got != 0 {
		t.Errorf("empty: got %v, want 0", got)
	}
	if got := p99us([]int64{7000}); got != 7 {
		t.Errorf("one sample: got %v, want 7", got)
	}
	// 200 samples 1000..200000 in reverse: rank ceil(0.99*200) = 198.
	lats := make([]int64, 200)
	for i := range lats {
		lats[i] = int64(200-i) * 1000
	}
	if got := p99us(lats); got != 198 {
		t.Errorf("200 samples: got %v, want 198", got)
	}
	if lats[0] != 200_000 {
		t.Error("p99us sorted its argument in place")
	}
}

// TestRunReplays runs one Scenario value twice: the value holds no run
// state, the hook sees the started runtime, and the Results are Same.
func TestRunReplays(t *testing.T) {
	s := Tenants(Isolated, true, TenantBFactor)
	var results []Result
	for i := 0; i < 2; i++ {
		hooked := false
		run, err := s.Run(func(rt *charm.Runtime) { hooked = rt.Workers() == svcWorkers })
		if err != nil {
			t.Fatal(err)
		}
		if !hooked {
			t.Error("hook did not see the started runtime")
		}
		if run.Svc != run.RT.JobServer() {
			t.Error("Run.Svc is not the runtime's installed service")
		}
		run.RT.Finalize()
		results = append(results, run.Result)
	}
	if !Same(results[0], results[1]) {
		t.Errorf("replay differs:\n%+v\n%+v", results[0], results[1])
	}
	a := results[0].Tenants["A"]
	if a.Completed == 0 || int64(len(a.Lats)) != a.Completed || a.Quota != 2 {
		t.Errorf("tenant A split: completed %d, %d latencies, quota %d", a.Completed, len(a.Lats), a.Quota)
	}
	changed := results[1]
	changed.MaxDepth = append([]int64(nil), changed.MaxDepth...)
	changed.MaxDepth[0]++
	if Same(results[0], changed) {
		t.Error("Same ignores the queue high-water marks")
	}
}

func TestRunReportsInitErrors(t *testing.T) {
	if _, err := Topo("no-such-fabric:4x2", charm.PlaceLoadAware).Run(nil); err == nil {
		t.Error("a bad topo spec must fail Run, not panic")
	}
}

// TestTopoChargesCoalesce reads the simulator's own account of the topo
// scenario's traffic: its 32 KiB reads are one run of cross-chiplet fills
// after another, so the streamed access loop must make far fewer bandwidth
// charges than it fills lines, and every remote-L3 or DRAM fill (all of the
// scenario's accesses span many lines) must be in a run or charged singly.
func TestTopoChargesCoalesce(t *testing.T) {
	run, err := Topo("mesh:4x2,fast=2,eff=4,accel=2", charm.PlaceLoadAware).
		Run(func(rt *charm.Runtime) { rt.EnableMetrics(true) })
	if err != nil {
		t.Fatal(err)
	}
	defer run.RT.Finalize()
	snap := run.RT.MetricsSnapshot()
	sum := func(name string) (v int64) {
		for i := range snap.Samples {
			if snap.Samples[i].Name == name {
				v += int64(snap.Samples[i].Value)
			}
		}
		return v
	}
	runs, lines := sum("charm_host_charge_runs_total"), sum("charm_host_charge_lines_total")
	fallback := sum("charm_host_charge_fallback_lines_total")
	if runs == 0 || lines <= 100*runs {
		t.Errorf("%d lines in %d coalesced charges: want more than 100 lines a charge", lines, runs)
	}
	var fills int64
	for _, src := range []string{"l3_remote_near", "l3_remote_far", "l3_remote_socket", "dram_local", "dram_remote"} {
		fills += sum("charm_pmu_fill_" + src + "_total")
	}
	if lines+fallback != fills || fallback == 0 {
		t.Errorf("%d coalesced + %d singly charged lines, PMU counts %d remote-L3 and DRAM fills (and a congested route must refuse some runs)",
			lines, fallback, fills)
	}
}
