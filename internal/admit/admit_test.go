package admit

import (
	"errors"
	"testing"

	"charm/internal/fault"
	"charm/internal/topology"
)

func TestPolicyParseRoundTrip(t *testing.T) {
	for _, p := range []Policy{Block, Reject, Shed} {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("ParsePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Fatal("ParsePolicy accepted bogus policy")
	}
}

func TestQueueOrdering(t *testing.T) {
	q := NewQueue(8, Reject)
	// Insert out of order; expect priority-desc, deadline-asc, seq-asc.
	offer := func(seq uint64, prio int, dl int64) {
		t.Helper()
		if _, err := q.Offer(0, Entry{Seq: seq, Priority: prio, Deadline: dl}); err != nil {
			t.Fatalf("Offer(seq=%d): %v", seq, err)
		}
	}
	offer(1, 0, 500)
	offer(2, 1, 900)
	offer(3, 1, 200)
	offer(4, 0, 0) // no deadline sorts after any deadline at equal priority
	offer(5, 0, 500)
	want := []uint64{3, 2, 1, 5, 4}
	for _, w := range want {
		e, ok := q.Pop()
		if !ok || e.Seq != w {
			t.Fatalf("Pop = seq %d ok=%v, want %d", e.Seq, ok, w)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop from empty queue succeeded")
	}
}

func TestQueueFullPolicies(t *testing.T) {
	for _, tc := range []struct {
		policy Policy
		err    error
	}{{Block, ErrWouldBlock}, {Reject, ErrQueueFull}} {
		q := NewQueue(2, tc.policy)
		q.Offer(0, Entry{Seq: 1})
		q.Offer(0, Entry{Seq: 2})
		if _, err := q.Offer(0, Entry{Seq: 3}); !errors.Is(err, tc.err) {
			t.Fatalf("%v full queue: err = %v, want %v", tc.policy, err, tc.err)
		}
		if q.Len() != 2 {
			t.Fatalf("%v: Len = %d after refused offer", tc.policy, q.Len())
		}
	}
}

func TestShedHopelessArrival(t *testing.T) {
	q := NewQueue(4, Shed)
	// Remaining budget (100) below estimate (200): dropped on arrival.
	if _, err := q.Offer(1000, Entry{Seq: 1, Deadline: 1100, Est: 200}); !errors.Is(err, ErrHopeless) {
		t.Fatalf("hopeless arrival: err = %v, want ErrHopeless", err)
	}
	// Same deadline, feasible estimate: admitted.
	if _, err := q.Offer(1000, Entry{Seq: 2, Deadline: 1100, Est: 50}); err != nil {
		t.Fatalf("feasible arrival refused: %v", err)
	}
}

func TestShedEvictsWorstSlack(t *testing.T) {
	q := NewQueue(2, Shed)
	q.Offer(0, Entry{Seq: 1, Deadline: 300, Est: 100}) // slack 200
	q.Offer(0, Entry{Seq: 2, Deadline: 900, Est: 100}) // slack 800
	// New arrival with slack 500 should evict seq 1 (slack 200).
	ev, err := q.Offer(0, Entry{Seq: 3, Deadline: 600, Est: 100})
	if err != nil {
		t.Fatalf("shed offer refused: %v", err)
	}
	if ev == nil || ev.Seq != 1 {
		t.Fatalf("evicted = %+v, want seq 1", ev)
	}
	// An arrival with the worst slack of all is refused, not admitted.
	ev, err = q.Offer(0, Entry{Seq: 4, Deadline: 250, Est: 100})
	if !errors.Is(err, ErrQueueFull) || ev != nil {
		t.Fatalf("worst-slack arrival: ev=%v err=%v, want nil/ErrQueueFull", ev, err)
	}
	if q.Len() != 2 {
		t.Fatalf("Len = %d, want 2", q.Len())
	}
}

func TestBreakerStateMachine(t *testing.T) {
	var b Breaker
	if !b.Allow() {
		t.Fatal("closed breaker refused")
	}
	b.Eval(0, 1000, 0)
	if b.state != BreakerClosed {
		t.Fatalf("healthy eval: state %v", b.state)
	}
	b.Eval(10, 3000, 0) // plan brownout: trip
	if b.state != BreakerOpen || b.Allow() {
		t.Fatalf("tripped: state %v allow %v", b.state, b.Allow())
	}
	b.Eval(20, 3000, 0) // still browned out, not yet retry timeout
	if b.state != BreakerOpen {
		t.Fatalf("open held: state %v", b.state)
	}
	b.Eval(30, 1000, 0) // plan heals: half-open with probe budget
	if b.state != BreakerHalfOpen {
		t.Fatalf("healed: state %v", b.state)
	}
	for i := 0; i < probeBudget; i++ {
		if !b.Allow() {
			t.Fatalf("half-open probe %d refused", i)
		}
	}
	if b.Allow() {
		t.Fatal("half-open probe budget not enforced")
	}
	b.Eval(40, 1000, 3000) // observed slowdown during probes: re-open
	if b.state != BreakerOpen {
		t.Fatalf("probe failure: state %v", b.state)
	}
	b.Eval(40+retryAfter-1, 3000, 0) // browned out, retry timeout not yet up
	if b.state != BreakerOpen {
		t.Fatalf("before retry timeout: state %v", b.state)
	}
	b.Eval(40+retryAfter, 3000, 0) // retry timeout elapsed, plan still bad
	if b.state != BreakerHalfOpen {
		t.Fatalf("retry timeout: state %v", b.state)
	}
	b.Eval(50+retryAfter, 1000, 1000) // healthy probes: close
	if b.state != BreakerClosed || b.trips != 2 {
		t.Fatalf("close: state %v trips %d", b.state, b.trips)
	}
}

func TestBreakerSetEvalPlan(t *testing.T) {
	topo := topology.Synthetic(2, 2)
	plan, err := fault.New("t", 1).ThermalThrottle(1, 100, 10_000, 3.0).Compile(topo)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSet(topo.NumChiplets())
	s.EvalPlan(50, plan, nil)
	if s.Open() != 0 {
		t.Fatalf("pre-fault open count = %d", s.Open())
	}
	s.EvalPlan(500, plan, nil)
	if s.State(1) != BreakerOpen || s.State(0) != BreakerClosed {
		t.Fatalf("during throttle: ch1=%v ch0=%v", s.State(1), s.State(0))
	}
	if s.Allow(1) {
		t.Fatal("open breaker allowed placement")
	}
	if !s.Allow(0) {
		t.Fatal("healthy chiplet refused placement")
	}
	s.EvalPlan(20_000, plan, nil) // plan healed
	if s.State(1) != BreakerHalfOpen {
		t.Fatalf("post-heal: ch1=%v", s.State(1))
	}
	s.EvalPlan(20_100, plan, nil)
	if s.State(1) != BreakerClosed || s.Trips() != 1 {
		t.Fatalf("close: ch1=%v trips=%d", s.State(1), s.Trips())
	}
}

func TestEstimatorFallbackAndQuantile(t *testing.T) {
	e := NewEstimator()
	for i := 0; i < estMinSamples-1; i++ {
		e.Observe(100_000)
	}
	if got := e.Estimate(7777); got != 7777 {
		t.Fatalf("cold estimate = %d, want hint", got)
	}
	for i := estMinSamples - 1; i < 100; i++ {
		e.Observe(100_000) // all in the (65536,131072] bucket
	}
	got := e.Estimate(7777)
	if got <= 65_536 || got > 131_072 {
		t.Fatalf("warm estimate = %d, want within observed bucket", got)
	}
	if e.Count() != 100 {
		t.Fatalf("Count = %d", e.Count())
	}
}

func TestPoissonDeterministicAndMonotonic(t *testing.T) {
	a := NewPoisson(42, 1000, 200)
	b := NewPoisson(42, 1000, 200)
	var last int64
	var sum int64
	n := 0
	for {
		av, aok := a.Next()
		bv, bok := b.Next()
		if aok != bok || av != bv {
			t.Fatalf("streams diverge at n=%d: %d/%v vs %d/%v", n, av, aok, bv, bok)
		}
		if !aok {
			break
		}
		if av < last {
			t.Fatalf("non-monotonic arrival %d after %d", av, last)
		}
		sum += av - last
		last = av
		n++
	}
	if n != 200 {
		t.Fatalf("arrivals = %d, want 200", n)
	}
	mean := float64(sum) / float64(n)
	if mean < 500 || mean > 2000 {
		t.Fatalf("mean gap %.0f wildly off 1000", mean)
	}
}

func TestTrace(t *testing.T) {
	tr := NewTrace([]int64{10, 20, 30})
	for _, w := range []int64{10, 20, 30} {
		v, ok := tr.Next()
		if !ok || v != w {
			t.Fatalf("Next = %d/%v, want %d", v, ok, w)
		}
	}
	if _, ok := tr.Next(); ok {
		t.Fatal("exhausted trace yielded")
	}
}
