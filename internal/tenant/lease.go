package tenant

// LeaseTable tracks which tenant holds each chiplet group. Leases are
// elastic: a demanding tenant is first topped up to its quota (the
// guaranteed share), then all demanding tenants grow weight-proportionally
// into whatever live chiplets remain free. Reclamation is lease-by-lease
// and never kills work: Rebalance only flips ownership — in-flight tasks
// on a reclaimed chiplet drain through the normal execution and re-home
// machinery, new placements simply stop targeting it.
//
// The lease lifecycle per chiplet is Free → Granted → Draining → Free:
// "Draining" is the window after a Rebalance transfers or releases a lease
// while tasks dispatched under the old owner still sit in the chiplet's
// worker queues. The table does not model that window explicitly — it is
// an emergent property of never cancelling on reclaim.
//
// All decisions are deterministic functions of the inputs: chiplets are
// scanned in ascending ID order, tenants in ascending index order, and
// every tie-break is total. Not goroutine-safe; the job service drives it
// under its own lock.
type LeaseTable struct {
	owner  []int // chiplet -> tenant index, -1 = free
	held   []int // tenant -> chiplets currently leased
	quota  []int
	weight []int64

	grants, reclaims []int64 // per-tenant lifetime counters
	faultFrees       int64   // leases released because the chiplet died
}

// LeaseEvent is one ownership change from a Rebalance, in decision order.
type LeaseEvent struct {
	// Chiplet is the chiplet whose lease changed.
	Chiplet int
	// From and To are tenant indices; -1 means free. A fault release has
	// To == -1; a reclamation transfer has both >= 0.
	From, To int
}

// NewLeaseTable builds a table over nch chiplets for len(quota) tenants.
// weight drives the elastic-growth share; quota the guaranteed floor.
func NewLeaseTable(nch int, quota []int, weight []int64) *LeaseTable {
	t := &LeaseTable{
		owner:    make([]int, nch),
		held:     make([]int, len(quota)),
		quota:    append([]int(nil), quota...),
		weight:   append([]int64(nil), weight...),
		grants:   make([]int64, len(quota)),
		reclaims: make([]int64, len(quota)),
	}
	for ch := range t.owner {
		t.owner[ch] = -1
	}
	return t
}

// Owner returns the tenant index leasing chiplet ch, or -1.
func (t *LeaseTable) Owner(ch int) int { return t.owner[ch] }

// Owners returns a copy of the chiplet→tenant ownership map.
func (t *LeaseTable) Owners() []int { return append([]int(nil), t.owner...) }

// Held returns how many chiplets tenant ten currently leases.
func (t *LeaseTable) Held(ten int) int { return t.held[ten] }

// Grants and Reclaims return tenant ten's lifetime lease-acquisition and
// lease-loss counts.
func (t *LeaseTable) Grants(ten int) int64   { return t.grants[ten] }
func (t *LeaseTable) Reclaims(ten int) int64 { return t.reclaims[ten] }

// Rebalance recomputes the lease assignment at one arbitration point.
// live[ch] reports whether chiplet ch still hosts at least one live worker
// (a park or offline clears it — the fault/power interplay that must
// trigger rebalance, not starvation); demand[i] reports whether tenant i
// has queued or pending work. It returns the ownership changes in the
// order they were decided.
func (t *LeaseTable) Rebalance(live []bool, demand []bool) []LeaseEvent {
	var evs []LeaseEvent
	release := func(ch, to int) {
		from := t.owner[ch]
		if from >= 0 {
			t.held[from]--
			t.reclaims[from]++
		}
		t.owner[ch] = to
		if to >= 0 {
			t.held[to]++
			t.grants[to]++
		}
		evs = append(evs, LeaseEvent{Chiplet: ch, From: from, To: to})
	}

	// 1. Leases on dead chiplets are void: the group lost its workers to a
	// park or offline, so holding the lease would starve the tenant.
	for ch := range t.owner {
		if t.owner[ch] >= 0 && !live[ch] {
			t.faultFrees++
			release(ch, -1)
		}
	}

	// 2. Idle tenants shed elastic surplus (anything past quota) so the
	// capacity returns to the free pool; their guaranteed share stays
	// warm for when demand returns.
	for i := range t.held {
		for j := len(t.owner) - 1; j >= 0 && !demand[i] && t.held[i] > t.quota[i]; j-- {
			if t.owner[j] == i {
				release(j, -1)
			}
		}
	}

	// 3. Guaranteed share: top every demanding tenant up to its quota,
	// first from free live chiplets, then by reclaiming lease-by-lease
	// from the tenant with the most elastic surplus (ties: more held,
	// then higher index), then from idle tenants still holding leases.
	for i := range t.held {
		if !demand[i] {
			continue
		}
		for t.held[i] < t.quota[i] {
			if ch := t.freeLive(live); ch >= 0 {
				release(ch, i)
				continue
			}
			v := t.victim(i, demand)
			if v < 0 {
				break // nothing reclaimable: quotas oversubscribe live capacity
			}
			if ch := t.lastLeased(v, live); ch >= 0 {
				release(ch, i)
				continue
			}
			break
		}
	}

	// 4. Elastic growth: remaining free live chiplets go to demanding
	// tenants one at a time, lowest held-per-weight first, so growth is
	// weight-proportional and deterministic.
	for {
		ch := t.freeLive(live)
		if ch < 0 {
			break
		}
		best := -1
		for i := range t.held {
			if !demand[i] {
				continue
			}
			if best < 0 || int64(t.held[i])*t.weight[best] < int64(t.held[best])*t.weight[i] {
				best = i
			}
		}
		if best < 0 {
			break
		}
		release(ch, best)
	}
	return evs
}

// freeLive returns the lowest-ID free live chiplet, or -1.
func (t *LeaseTable) freeLive(live []bool) int {
	for ch := range t.owner {
		if t.owner[ch] < 0 && live[ch] {
			return ch
		}
	}
	return -1
}

// victim picks the tenant to reclaim one lease from, for the benefit of
// tenant want: most elastic surplus first, then — when no one holds more
// than their quota — an idle tenant still holding leases.
func (t *LeaseTable) victim(want int, demand []bool) int {
	best, bestSurplus := -1, int64(0)
	for i := range t.held {
		if i == want {
			continue
		}
		s := int64(t.held[i] - t.quota[i])
		if s > 0 && (best < 0 || s > bestSurplus ||
			(s == bestSurplus && t.held[i] > t.held[best])) {
			best, bestSurplus = i, s
		}
	}
	if best >= 0 {
		return best
	}
	for i := range t.held {
		if i == want || demand[i] || t.held[i] == 0 {
			continue
		}
		if best < 0 || t.held[i] > t.held[best] {
			best = i
		}
	}
	return best
}

// lastLeased returns tenant ten's highest-ID leased live chiplet, or -1.
func (t *LeaseTable) lastLeased(ten int, live []bool) int {
	for ch := len(t.owner) - 1; ch >= 0; ch-- {
		if t.owner[ch] == ten && live[ch] {
			return ch
		}
	}
	return -1
}
