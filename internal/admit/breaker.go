package admit

import (
	"charm/internal/fault"
	"charm/internal/topology"
)

// BreakerState is the classic three-state circuit-breaker machine, driven
// here by virtual time and per-chiplet health signals rather than RPC
// failures.
type BreakerState uint8

const (
	// BreakerClosed admits work normally.
	BreakerClosed BreakerState = iota
	// BreakerOpen refuses all placements on the chiplet.
	BreakerOpen
	// BreakerHalfOpen admits a bounded number of probe placements; the
	// next evaluation decides between closing and re-opening.
	BreakerHalfOpen
)

// String names the state for reports.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "?"
}

// The breaker tuning. Slowdowns are in milli-units like the fault plans:
// 1000 = nominal speed, 2000 = 2× slower.
const (
	// tripMilli opens the breaker when the chiplet's worst health signal
	// (plan-declared or observed) reaches it.
	tripMilli = 2500
	// healMilli transitions Open→HalfOpen once the fault plan's declared
	// slowdown drops back to it or below ("the plan heals").
	healMilli = 1400
	// retryAfter transitions Open→HalfOpen after this much virtual time
	// even without plan healing, so purely observation-tripped breakers
	// can probe their way back.
	retryAfter = 2_000_000
	// probeBudget is the half-open placement budget per probe round.
	probeBudget = 4
	// MinSamples is how many execution observations a chiplet needs in an
	// evaluation window before its observed slowdown is trusted.
	MinSamples = 8
)

// Breaker is one chiplet's circuit breaker. Not goroutine-safe; the job
// service drives it under its own lock.
type Breaker struct {
	state    BreakerState
	openedAt int64
	probes   int
	trips    int64
}

// Allow reports whether one placement may target the chiplet now. In
// HalfOpen it spends one unit of the probe budget per call.
func (b *Breaker) Allow() bool {
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerHalfOpen:
		if b.probes > 0 {
			b.probes--
			return true
		}
	}
	return false
}

// Eval advances the state machine at virtual time now. planMilli is the
// fault plan's declared slowdown for the chiplet; obsMilli is the
// PMU-observed slowdown (0 when the evaluation window had too few
// samples). The effective health signal is the worst of the two.
func (b *Breaker) Eval(now, planMilli, obsMilli int64) {
	milli := planMilli
	if obsMilli > milli {
		milli = obsMilli
	}
	switch b.state {
	case BreakerClosed:
		if milli >= tripMilli {
			b.state = BreakerOpen
			b.openedAt = now
			b.trips++
		}
	case BreakerOpen:
		// Half-open when the plan declares the chiplet healed, or after
		// the virtual retry timeout (observation-only trips have no plan
		// signal to wait for).
		if planMilli <= healMilli || now-b.openedAt >= retryAfter {
			b.state = BreakerHalfOpen
			b.probes = probeBudget
		}
	case BreakerHalfOpen:
		if milli >= tripMilli {
			b.state = BreakerOpen
			b.openedAt = now
			b.trips++
		} else if milli <= healMilli {
			b.state = BreakerClosed
		} else {
			// Ambiguous: keep probing with a fresh budget.
			b.probes = probeBudget
		}
	}
}

// Set is the per-chiplet breaker bank.
type Set struct {
	bs []Breaker

	// OnTransition, when set, is invoked from EvalPlan for every breaker
	// state change (chiplet, virtual time, old and new state) — the hook
	// the observability plane uses to put breaker flaps on the trace
	// timeline. Called under the owner's lock, in virtual-time order.
	OnTransition func(ch int, now int64, from, to BreakerState)
}

// NewSet builds a bank of n breakers (one per chiplet).
func NewSet(n int) *Set { return &Set{bs: make([]Breaker, n)} }

// Len returns the number of breakers.
func (s *Set) Len() int { return len(s.bs) }

// Allow reports whether chiplet ch may receive one placement now.
func (s *Set) Allow(ch int) bool {
	if ch < 0 || ch >= len(s.bs) {
		return true
	}
	return s.bs[ch].Allow()
}

// State returns chiplet ch's breaker state.
func (s *Set) State(ch int) BreakerState {
	if ch < 0 || ch >= len(s.bs) {
		return BreakerClosed
	}
	return s.bs[ch].state
}

// Trips sums trip counts over all breakers.
func (s *Set) Trips() int64 {
	var n int64
	for i := range s.bs {
		n += s.bs[i].trips
	}
	return n
}

// Open counts breakers currently not Closed.
func (s *Set) Open() int {
	n := 0
	for i := range s.bs {
		if s.bs[i].state != BreakerClosed {
			n++
		}
	}
	return n
}

// EvalPlan advances every breaker at virtual time now. The plan-declared
// slowdown per chiplet is the worst of its thermal throttle and its
// fabric-link brownout factors; obsMilli (may be nil) supplies the
// PMU-observed slowdown per chiplet, 0 meaning "no signal this window".
func (s *Set) EvalPlan(now int64, plan *fault.Plan, obsMilli func(ch int) int64) {
	for i := range s.bs {
		ch := topology.ChipletID(i)
		pm := plan.ThermalMilli(ch, now)
		if lm := plan.ChipletLinkMilli(ch, now); lm > pm {
			pm = lm
		}
		var om int64
		if obsMilli != nil {
			om = obsMilli(i)
		}
		before := s.bs[i].state
		s.bs[i].Eval(now, pm, om)
		if after := s.bs[i].state; after != before && s.OnTransition != nil {
			s.OnTransition(i, now, before, after)
		}
	}
}
