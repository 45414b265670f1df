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
