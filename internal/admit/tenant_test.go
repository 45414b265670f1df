package admit

import (
	"sync"
	"testing"

	"charm/internal/fault"
	"charm/internal/topology"
)

// emptyPlan compiles a healthy (event-free) fault plan for breaker tests.
func emptyPlan(t *testing.T) *fault.Plan {
	t.Helper()
	plan, err := fault.New("healthy", 1).Compile(topology.Synthetic(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestArrivalShapes sanity-checks the tenant arrival processes: monotone
// non-decreasing times, deterministic replay from the same seed, and the
// shape property each models (diurnal wave, burst-window clumping).
func TestArrivalShapes(t *testing.T) {
	collect := func(p ArrivalProcess) []int64 {
		var at []int64
		for {
			v, ok := p.Next()
			if !ok {
				break
			}
			at = append(at, v)
		}
		return at
	}
	check := func(name string, a, b []int64, n int) {
		t.Helper()
		if len(a) != n {
			t.Fatalf("%s yielded %d arrivals, want %d", name, len(a), n)
		}
		for i := 1; i < len(a); i++ {
			if a[i] < a[i-1] {
				t.Fatalf("%s: arrival %d (%d) before %d", name, i, a[i], a[i-1])
			}
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: replay diverges at %d: %d vs %d", name, i, a[i], b[i])
			}
		}
	}
	const n = 2000
	check("diurnal",
		collect(NewDiurnal(9, 1000, 500_000, 0.8, n)),
		collect(NewDiurnal(9, 1000, 500_000, 0.8, n)), n)
	check("flash",
		collect(NewFlashCrowd(9, 1000, 400_000, 100_000, 8, n)),
		collect(NewFlashCrowd(9, 1000, 400_000, 100_000, 8, n)), n)

	// Flash crowd: gaps inside burst windows are much shorter on average.
	fc := collect(NewFlashCrowd(9, 1000, 400_000, 100_000, 8, n))
	var inSum, inN, outSum, outN int64
	for i := 1; i < len(fc); i++ {
		gap := fc[i] - fc[i-1]
		phase := fc[i-1] % 400_000
		if phase >= 200_000 && phase < 300_000 {
			inSum, inN = inSum+gap, inN+1
		} else {
			outSum, outN = outSum+gap, outN+1
		}
	}
	if inN == 0 || outN == 0 || inSum/inN >= outSum/outN/2 {
		t.Fatalf("flash crowd burst gaps (%d/%d) not clearly shorter than base (%d/%d)",
			inSum, inN, outSum, outN)
	}
}

// TestBreakerHalfOpenProbeRace hammers a half-open breaker's Allow from
// many goroutines under the owner-lock discipline the job service uses,
// checking the probe budget is spent exactly once per unit: precisely
// probeBudget placements may pass per probe round no matter how the
// concurrent callers interleave, and an ambiguous Eval refills the budget
// without leaking extra grants.
func TestBreakerHalfOpenProbeRace(t *testing.T) {
	set := NewSet(1)
	var mu sync.Mutex

	trip := func(now int64) {
		mu.Lock()
		set.EvalPlan(now, emptyPlan(t), func(int) int64 { return tripMilli })
		mu.Unlock()
	}
	halfOpen := func(now int64) {
		mu.Lock()
		set.EvalPlan(now, emptyPlan(t), nil) // plan healthy → Open heals to HalfOpen
		mu.Unlock()
	}

	trip(1)
	if got := set.State(0); got != BreakerOpen {
		t.Fatalf("state after trip = %v, want open", got)
	}
	halfOpen(2)
	if got := set.State(0); got != BreakerHalfOpen {
		t.Fatalf("state after heal signal = %v, want half-open", got)
	}

	const rounds = 8
	const callers = 16
	for r := 0; r < rounds; r++ {
		var granted int64
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; k < 8; k++ {
					mu.Lock()
					if set.Allow(0) {
						granted++
					}
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		if granted != probeBudget {
			t.Fatalf("round %d: %d probe grants, want exactly %d", r, granted, probeBudget)
		}
		// Ambiguous health (between heal and trip): the breaker stays
		// half-open and re-arms exactly one fresh probe budget.
		mu.Lock()
		set.EvalPlan(int64(10+r), emptyPlan(t), func(int) int64 { return (healMilli + tripMilli) / 2 })
		st := set.State(0)
		mu.Unlock()
		if st != BreakerHalfOpen {
			t.Fatalf("round %d: state %v, want half-open", r, st)
		}
	}
}
