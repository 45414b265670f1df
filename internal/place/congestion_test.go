package place

import (
	"testing"

	"charm/internal/topology"
)

// TestCongestionAwareReducesToNearest: without a congestion or thermal
// signal the scorer must pick exactly what Nearest picks, for every
// origin core — the no-signal identity the engine's replay tests rely on.
func TestCongestionAwareReducesToNearest(t *testing.T) {
	topo := topology.Synthetic(4, 2)
	r := NewRanks(topo)
	v := NewView(r, 0, Snapshot{})
	for c := 0; c < topo.NumCores(); c++ {
		from := topology.CoreID(c)
		a, okA := v.Select(Nearest(from), Live)
		b, okB := v.Select(CongestionAware(from), Live)
		if okA != okB || a != b {
			t.Fatalf("from core %d: Nearest → %v,%v; CongestionAware → %v,%v", c, a, okA, b, okB)
		}
	}
}

// TestCongestionAwareAvoidsHotLink: a chiplet whose incident link sits
// past the congestion guard must lose to a farther, calm chiplet.
func TestCongestionAwareAvoidsHotLink(t *testing.T) {
	topo := topology.Synthetic(4, 2)
	r := NewRanks(topo)
	util := make([]int64, topo.NumChiplets())
	util[0] = 1000 // chiplet 0's link saturated
	v := NewView(r, 0, Snapshot{LinkUtilMilli: util})
	c, ok := v.Select(CongestionAware(0), Live)
	if !ok {
		t.Fatal("no core selected")
	}
	if topo.ChipletOf(c) == 0 {
		t.Fatalf("selected core %d on the congested chiplet", c)
	}
	// Below the guard the signal is ignored: distance wins again.
	util2 := make([]int64, topo.NumChiplets())
	util2[0] = congestionGuardMilli
	v2 := NewView(r, 0, Snapshot{LinkUtilMilli: util2})
	c2, _ := v2.Select(CongestionAware(0), Live)
	if topo.ChipletOf(c2) != 0 {
		t.Fatalf("guard-level occupancy must not repel: selected chiplet %d", topo.ChipletOf(c2))
	}
}

// hetView builds a view over the reference heterogeneous machine
// (mesh:4x2 with 2 fast, 4 efficient, 2 accelerator chiplets).
func hetView(t *testing.T) (*topology.Topology, *View) {
	t.Helper()
	sp, err := topology.ParseTopoSpec("het-mesh")
	if err != nil {
		t.Fatal(err)
	}
	topo, err := sp.Build()
	if err != nil {
		t.Fatal(err)
	}
	return topo, NewView(NewRanks(topo), 0, Snapshot{})
}

// TestCapabilityMatchConstraint: the constraint admits exactly the cores
// of matching-kind chiplets, and KindAny admits everything.
func TestCapabilityMatchConstraint(t *testing.T) {
	topo, v := hetView(t)
	counts := map[topology.ChipletKind]int{}
	for c := 0; c < topo.NumCores(); c++ {
		id := topology.CoreID(c)
		for _, k := range []topology.ChipletKind{topology.KindFast, topology.KindEfficient, topology.KindAccel} {
			if CapabilityMatch(k)(v, id) {
				if got := topo.KindOf(topo.ChipletOf(id)); got != k {
					t.Fatalf("core %d admitted by %v but lives on a %v chiplet", c, k, got)
				}
				counts[k]++
			}
		}
		if !CapabilityMatch(topology.KindAny)(v, id) {
			t.Fatalf("KindAny refused core %d", c)
		}
	}
	cpc := topo.CoresPerChiplet
	if counts[topology.KindFast] != 2*cpc || counts[topology.KindEfficient] != 4*cpc || counts[topology.KindAccel] != 2*cpc {
		t.Fatalf("admitted cores per kind = %v, want 2/4/2 chiplets × %d cores", counts, cpc)
	}
	// Selecting under the constraint lands on the nearest matching chiplet.
	c, ok := v.Select(Nearest(0), Live, CapabilityMatch(topology.KindAccel))
	if !ok || topo.KindOf(topo.ChipletOf(c)) != topology.KindAccel {
		t.Fatalf("Select with accel constraint → core %v (ok=%v)", c, ok)
	}
}

// TestChipletsByPreferenceCongestionBand: with one worker per chiplet and
// equal everything else, a chiplet deep in the congestion band must sort
// behind every calm chiplet — but still appear (congestion demotes, never
// excludes).
func TestChipletsByPreferenceCongestionBand(t *testing.T) {
	topo := topology.Synthetic(4, 2)
	r := NewRanks(topo)
	workerCore := make([]topology.CoreID, topo.NumChiplets())
	for ch := range workerCore {
		workerCore[ch] = topology.CoreID(ch * topo.CoresPerChiplet)
	}
	util := make([]int64, topo.NumChiplets())
	util[1] = 950
	v := NewView(r, 0, Snapshot{WorkerCore: workerCore, LinkUtilMilli: util})
	order := v.ChipletsByPreference(nil, 0)
	if len(order) != topo.NumChiplets() {
		t.Fatalf("order %v must list every chiplet", order)
	}
	if order[len(order)-1] != 1 {
		t.Fatalf("congested chiplet 1 must sort last: %v", order)
	}
}
