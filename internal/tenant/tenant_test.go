package tenant

import (
	"reflect"
	"testing"

	"charm/internal/admit"
	"charm/internal/rng"
)

func TestParseSpec(t *testing.T) {
	cases := []struct {
		in   string
		want Spec
	}{
		{"a", Spec{Name: "a", Weight: 1, Policy: admit.Shed}},
		{"tenant:a,weight=3,quota=2", Spec{Name: "a", Weight: 3, Quota: 2, Policy: admit.Shed}},
		{"a,3,2", Spec{Name: "a", Weight: 3, Quota: 2, Policy: admit.Shed}},
		{"a,3,2,gap=50us,burst=8,policy=reject,queue=16",
			Spec{Name: "a", Weight: 3, Quota: 2, GapNS: 50_000, Burst: 8,
				Policy: admit.Reject, QueueCap: 16}},
		{"b,gap=2ms", Spec{Name: "b", Weight: 1, GapNS: 2_000_000, Burst: 1, Policy: admit.Shed}},
		{"b,gap=1000", Spec{Name: "b", Weight: 1, GapNS: 1000, Burst: 1, Policy: admit.Shed}},
	}
	for _, c := range cases {
		got, err := ParseSpec(c.in)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Errorf("ParseSpec(%q) = %+v, want %+v", c.in, got, c.want)
		}
		// Canonical round trip.
		rt, err := ParseSpec(got.String())
		if err != nil || rt != got {
			t.Errorf("round trip of %q via %q: got %+v, err %v", c.in, got.String(), rt, err)
		}
	}
	bad := []string{
		"", ",weight=1", "a b", "a,weight=0", "a,weight=x", "a,quota=-1",
		"a,1,2,3", "a,frob=1", "a,policy=drop", "a,gap=1.5ms", "a,class=1",
		"a,burst=4", "a,gap=-5", "a,gap=99999999999s",
	}
	for _, in := range bad {
		if got, err := ParseSpec(in); err == nil {
			t.Errorf("ParseSpec(%q) = %+v, want error", in, got)
		}
	}
}

func TestBucketRefill(t *testing.T) {
	b := NewBucket(100, 2)
	if !b.Take(0) || !b.Take(0) {
		t.Fatal("bucket should start full")
	}
	if b.Take(50) {
		t.Fatal("half a gap must not mint a token")
	}
	if got := b.NextAt(50); got != 100 {
		t.Fatalf("NextAt(50) = %d, want 100", got)
	}
	if !b.Take(100) {
		t.Fatal("one gap elapsed: token due")
	}
	// Sub-gap credit must carry exactly: 100..149 minted one token and 49
	// ns of credit, so the next token lands at 200, not 249.
	if b.Take(149) {
		t.Fatal("credit must not round up to a token")
	}
	if got := b.NextAt(149); got != 200 {
		t.Fatalf("NextAt(149) = %d, want 200 (credit carries)", got)
	}
	// Cap: a long idle period refills to burst, never past it.
	if b.refill(10_000); b.tokens != 2 {
		t.Fatalf("tokens after idle = %d, want burst 2", b.tokens)
	}
	u := NewBucket(0, 1)
	for i := int64(0); i < 100; i++ {
		if !u.Take(i) {
			t.Fatal("unlimited bucket refused")
		}
	}
}

// drain runs n grants against the mux, recording the grant sequence.
func drain(d *DRR, n int, backlog func(i int) bool) []int {
	seq := make([]int, 0, n)
	for k := 0; k < n; k++ {
		i := d.Next(backlog)
		if i < 0 {
			break
		}
		seq = append(seq, i)
	}
	return seq
}

// TestDRRFairnessInvariant is the property test of the drain's fairness
// guarantee: over any window of the grant sequence in which every tenant
// stays backlogged, each tenant's granted slots deviate from its weighted
// share of the window by at most one quantum on each cut boundary (2·w_i
// in total), and round-aligned windows are exact.
func TestDRRFairnessInvariant(t *testing.T) {
	weights := []int64{1, 2, 5}
	var total int64
	for _, w := range weights {
		total += w
	}
	d := NewDRR(weights)
	all := func(int) bool { return true }
	const rounds = 50
	seq := drain(d, rounds*int(total), all)
	if len(seq) != rounds*int(total) {
		t.Fatalf("granted %d slots, want %d", len(seq), rounds*int(total))
	}
	// Round-aligned exactness: each full round grants exactly w_i per tenant.
	for r := 0; r < rounds; r++ {
		cnt := make([]int64, len(weights))
		for _, i := range seq[r*int(total) : (r+1)*int(total)] {
			cnt[i]++
		}
		for i, w := range weights {
			if cnt[i] != w {
				t.Fatalf("round %d: tenant %d got %d slots, want exactly %d", r, i, cnt[i], w)
			}
		}
	}
	// Arbitrary windows: every [a, b) window's per-tenant count stays
	// within one quantum of the weighted share at each cut (<= 2*w_i).
	for a := 0; a < len(seq); a += 7 {
		cnt := make([]int64, len(weights))
		for b := a; b < len(seq); b++ {
			cnt[seq[b]]++
			win := int64(b - a + 1)
			for i, w := range weights {
				share := float64(win) * float64(w) / float64(total)
				dev := float64(cnt[i]) - share
				if dev > 2*float64(w) || dev < -2*float64(w) {
					t.Fatalf("window [%d,%d]: tenant %d got %d slots, share %.1f (dev %.1f > quantum bound %d)",
						a, b, i, cnt[i], share, dev, 2*w)
				}
			}
		}
	}
}

// TestDRRNoBankedBurst pins the deficit cap: a tenant that goes idle
// forfeits its unused deficit, so on return it cannot claim more than one
// quantum before the other tenants are served again.
func TestDRRNoBankedBurst(t *testing.T) {
	d := NewDRR([]int64{2, 2})
	idle0 := false
	backlog := func(i int) bool { return i != 0 || !idle0 }
	// Tenant 0 idles for many rounds while tenant 1 drains alone.
	idle0 = true
	if seq := drain(d, 20, backlog); len(seq) != 20 {
		t.Fatal("tenant 1 should drain alone")
	}
	// Tenant 0 returns: over the next full round (4 slots) it gets exactly
	// its quantum (2), not a banked burst.
	idle0 = false
	cnt := [2]int{}
	for _, i := range drain(d, 4, backlog) {
		cnt[i]++
	}
	if cnt[0] != 2 || cnt[1] != 2 {
		t.Fatalf("post-idle round = %v, want [2 2] (no banked deficit)", cnt)
	}
}

// TestDRRRandomizedBacklog drives the mux with a seeded random backlog
// pattern and checks the structural invariants: only backlogged tenants
// are ever granted, and -1 only when nobody is backlogged.
func TestDRRRandomizedBacklog(t *testing.T) {
	state := rng.Seed(42, 0x7e57)
	weights := []int64{1, 3, 2, 1}
	d := NewDRR(weights)
	back := make([]bool, len(weights))
	for step := 0; step < 5000; step++ {
		for i := range back {
			back[i] = rng.SplitMix64(&state)%4 != 0
		}
		got := d.Next(func(i int) bool { return back[i] })
		any := false
		for _, b := range back {
			any = any || b
		}
		switch {
		case got < 0 && any:
			t.Fatalf("step %d: Next=-1 with backlog %v", step, back)
		case got >= 0 && !back[got]:
			t.Fatalf("step %d: granted idle tenant %d (backlog %v)", step, got, back)
		}
	}
}

func TestLeaseTableQuotaAndGrowth(t *testing.T) {
	live := []bool{true, true, true, true}
	lt := NewLeaseTable(4, []int{1, 1}, []int64{1, 1})

	// Only tenant 0 demands: quota first, then elastic growth into the rest.
	lt.Rebalance(live, []bool{true, false})
	if got := lt.Owners(); !reflect.DeepEqual(got, []int{0, 0, 0, 0}) {
		t.Fatalf("solo growth owners = %v", got)
	}
	// Tenant 1 arrives: its quota is carved back out of 0's surplus,
	// lease by lease, and growth rebalances the remainder.
	evs := lt.Rebalance(live, []bool{true, true})
	if lt.Held(1) < 1 {
		t.Fatalf("tenant 1 quota not honored: owners %v", lt.Owners())
	}
	if lt.Held(0)+lt.Held(1) != 4 {
		t.Fatalf("live chiplets must stay leased under demand: owners %v", lt.Owners())
	}
	reclaimed := false
	for _, e := range evs {
		if e.From == 0 && e.To == 1 {
			reclaimed = true
		}
	}
	if !reclaimed {
		t.Fatalf("expected a 0→1 reclamation transfer, events %v", evs)
	}
	// Steady state: rebalancing again with unchanged inputs is a no-op.
	if evs := lt.Rebalance(live, []bool{true, true}); len(evs) != 0 {
		t.Fatalf("steady-state rebalance produced events %v", evs)
	}
}

func TestLeaseTableFaultRebalance(t *testing.T) {
	lt := NewLeaseTable(4, []int{2, 2}, []int64{1, 1})
	live := []bool{true, true, true, true}
	lt.Rebalance(live, []bool{true, true})
	if lt.Held(0) != 2 || lt.Held(1) != 2 {
		t.Fatalf("setup owners = %v", lt.Owners())
	}
	victim := -1
	for ch, own := range lt.Owners() {
		if own == 0 {
			victim = ch
			break
		}
	}
	// The chiplet dies (parked/offlined): the lease is voided, and with no
	// free live chiplet the quota reclaims one from the other tenant —
	// rebalance, not starvation.
	live[victim] = false
	evs := lt.Rebalance(live, []bool{true, true})
	if lt.faultFrees != 1 {
		t.Fatalf("fault frees = %d, want 1 (events %v)", lt.faultFrees, evs)
	}
	if lt.Owner(victim) != -1 {
		t.Fatalf("dead chiplet still leased: owners %v", lt.Owners())
	}
	if lt.Held(0) == 0 {
		t.Fatalf("tenant 0 starved after fault: owners %v", lt.Owners())
	}
	if lt.Held(0)+lt.Held(1) != 3 {
		t.Fatalf("3 live chiplets should stay leased, owners %v", lt.Owners())
	}
}

func TestLeaseTableIdleRelease(t *testing.T) {
	live := []bool{true, true, true, true}
	lt := NewLeaseTable(4, []int{1, 1}, []int64{1, 1})
	lt.Rebalance(live, []bool{true, false}) // tenant 0 grows to 4
	lt.Rebalance(live, []bool{false, false})
	if lt.Held(0) != 1 {
		t.Fatalf("idle tenant should shed surplus to quota, held=%d owners=%v",
			lt.Held(0), lt.Owners())
	}
}
