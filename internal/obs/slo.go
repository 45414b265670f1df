package obs

import "sort"

// Multi-window SLO burn-rate tracking over virtual time. Each priority
// class carries an availability objective ("this fraction of jobs meets
// its deadline"); completions stream in as good/bad events bucketed into
// fixed virtual-time slots, and evaluation compares the burn rate — bad
// fraction divided by the error budget (1 − target) — over a fast and a
// slow window. An alert fires only when BOTH windows exceed their
// thresholds (the fast window gives low detection latency, the slow one
// filters blips), the standard multi-window multi-burn-rate construction
// from SRE practice. Everything is keyed to virtual timestamps, so
// deterministic replays produce identical alert sequences.

// The evaluation windows, scaled for simulated runs (milliseconds of
// virtual time rather than the hours a production system would use).
const (
	sloSlotNS     = 50_000          // bucketing granularity: 50µs virtual
	sloFastWindow = 20 * sloSlotNS  // fast window span
	sloSlowWindow = 120 * sloSlotNS // slow window span
	sloFastBurn   = 14              // fast-window burn threshold
	sloSlowBurn   = 6               // slow-window burn threshold
)

// sloSlot is one virtual-time bucket of outcomes.
type sloSlot struct {
	slot int64 // slot index (virtual time / sloSlotNS)
	good int64
	bad  int64
}

// sloClass tracks one priority class's budget.
type sloClass struct {
	class  int
	target float64
	slots  []sloSlot // ascending by slot; pruned past the slow window
	firing bool
	good   int64 // lifetime totals
	bad    int64
}

// SLOAlert is one burn-rate alert edge.
type SLOAlert struct {
	Class    int
	T        int64 // virtual time of the evaluation that flipped it
	Firing   bool  // true = fired, false = cleared
	FastBurn float64
	SlowBurn float64
}

// SLOTracker holds per-class error budgets. It is not internally
// synchronized: the job service drives it under its own lock, in
// virtual-time order, which is what keeps replays byte-identical.
type SLOTracker struct {
	classes map[int]*sloClass
	alerts  []SLOAlert
}

// NewSLOTracker builds a tracker with no objectives.
func NewSLOTracker() *SLOTracker {
	return &SLOTracker{classes: map[int]*sloClass{}}
}

// SetObjective declares a class's availability target, e.g. 0.95 means
// "95% of this class's jobs meet their deadline". The target must lie
// strictly inside (0, 1); the job service checks that before calling.
func (t *SLOTracker) SetObjective(class int, target float64) {
	c := t.classes[class]
	if c == nil {
		c = &sloClass{class: class}
		t.classes[class] = c
	}
	c.target = target
}

// Record streams one job outcome for a class at virtual time now.
// Classes without a declared objective are ignored.
func (t *SLOTracker) Record(class int, good bool, now int64) {
	c := t.classes[class]
	if c == nil {
		return
	}
	slot := now / sloSlotNS
	n := len(c.slots)
	if n == 0 || c.slots[n-1].slot != slot {
		c.slots = append(c.slots, sloSlot{slot: slot})
		n++
		// Prune slots older than the slow window.
		min := slot - sloSlowWindow/sloSlotNS - 1
		cut := 0
		for cut < n && c.slots[cut].slot < min {
			cut++
		}
		if cut > 0 {
			c.slots = append(c.slots[:0], c.slots[cut:]...)
			n = len(c.slots)
		}
	}
	if good {
		c.slots[n-1].good++
		c.good++
	} else {
		c.slots[n-1].bad++
		c.bad++
	}
}

// burn computes the burn rate over [now-window, now] for one class.
func (t *SLOTracker) burn(c *sloClass, now, window int64) float64 {
	minSlot := (now - window) / sloSlotNS
	var good, bad int64
	for i := len(c.slots) - 1; i >= 0; i-- {
		if c.slots[i].slot < minSlot {
			break
		}
		good += c.slots[i].good
		bad += c.slots[i].bad
	}
	total := good + bad
	if total == 0 {
		return 0
	}
	budget := 1 - c.target
	return (float64(bad) / float64(total)) / budget
}

// Evaluate recomputes every class's windows at virtual time now and
// returns the alert edges (fired or cleared) this evaluation produced.
// Edges are also appended to the tracker's alert log.
func (t *SLOTracker) Evaluate(now int64) []SLOAlert {
	classes := make([]int, 0, len(t.classes))
	for k := range t.classes {
		classes = append(classes, k)
	}
	sort.Ints(classes)
	var edges []SLOAlert
	for _, k := range classes {
		c := t.classes[k]
		fast := t.burn(c, now, sloFastWindow)
		slow := t.burn(c, now, sloSlowWindow)
		firing := fast >= sloFastBurn && slow >= sloSlowBurn
		if firing != c.firing {
			c.firing = firing
			e := SLOAlert{Class: k, T: now, Firing: firing, FastBurn: fast, SlowBurn: slow}
			edges = append(edges, e)
			t.alerts = append(t.alerts, e)
		}
	}
	return edges
}

// Alerts returns the full alert-edge log in virtual-time order.
func (t *SLOTracker) Alerts() []SLOAlert { return t.alerts }

// SLOStatus is one class's summary for reports.
type SLOStatus struct {
	Class    int
	Target   float64
	Good     int64
	Bad      int64
	Achieved float64 // lifetime good fraction
	FastBurn float64
	SlowBurn float64
	Firing   bool
	Alerts   int // fired edges over the run
}

// Status summarizes every class at virtual time now.
func (t *SLOTracker) Status(now int64) []SLOStatus {
	classes := make([]int, 0, len(t.classes))
	for k := range t.classes {
		classes = append(classes, k)
	}
	sort.Ints(classes)
	out := make([]SLOStatus, 0, len(classes))
	for _, k := range classes {
		c := t.classes[k]
		st := SLOStatus{Class: k, Target: c.target, Good: c.good, Bad: c.bad,
			FastBurn: t.burn(c, now, sloFastWindow),
			SlowBurn: t.burn(c, now, sloSlowWindow), Firing: c.firing}
		if tot := c.good + c.bad; tot > 0 {
			st.Achieved = float64(c.good) / float64(tot)
		}
		for _, a := range t.alerts {
			if a.Class == k && a.Firing {
				st.Alerts++
			}
		}
		out = append(out, st)
	}
	return out
}
