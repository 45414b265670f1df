package place

import (
	"slices"
	"testing"

	"charm/internal/topology"
)

// nearest is the plain distance scorer CongestionAware must reduce to
// without signals: from itself first, then the Ranks order.
func nearest(from topology.CoreID) Scorer {
	return func(v *View, c topology.CoreID) int64 {
		return int64(v.ranks.pos[from][c])
	}
}

// TestCongestionAwareReducesToNearest: without a congestion or thermal
// signal the scorer must pick exactly what nearest picks, for every
// origin core — the no-signal identity the engine's replay tests rely on.
func TestCongestionAwareReducesToNearest(t *testing.T) {
	topo := topology.Synthetic(4, 2)
	r := NewRanks(topo)
	v := NewView(r, 0, Snapshot{})
	for c := 0; c < topo.NumCores(); c++ {
		from := topology.CoreID(c)
		a, okA := v.Select(nearest(from), Live)
		b, okB := v.Select(CongestionAware(from), Live)
		if okA != okB || a != b {
			t.Fatalf("from core %d: nearest → %v,%v; CongestionAware → %v,%v", c, a, okA, b, okB)
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

// hetMesh builds the reference heterogeneous machine (mesh:4x2 with 2
// fast, 4 efficient, 2 accelerator chiplets).
func hetMesh() (*topology.Topology, error) {
	sp, err := topology.ParseTopoSpec("het-mesh")
	if err != nil {
		return nil, err
	}
	return sp.Build()
}

// TestChipletsByPreferenceKindKey: a kind preference lists exactly the
// chiplets of that kind first, in the order KindAny gives them, then the
// rest in that same order — matching first, never excluding — and a
// preference every chiplet shares leaves the order alone.
func TestChipletsByPreferenceKindKey(t *testing.T) {
	topo, err := hetMesh()
	if err != nil {
		t.Fatal(err)
	}
	workerCore := make([]topology.CoreID, topo.NumCores())
	depth := make([]int64, topo.NumCores())
	for c := range workerCore {
		workerCore[c] = topology.CoreID(c)
		depth[c] = int64(c * 7 % 5)
	}
	v := NewView(NewRanks(topo), 0, Snapshot{WorkerCore: workerCore, QueueDepth: depth})
	for cursor := 0; cursor < topo.NumChiplets(); cursor++ {
		base := v.ChipletsByPreference(nil, cursor, topology.KindAny)
		if len(base) != topo.NumChiplets() {
			t.Fatalf("KindAny order %v must list every chiplet", base)
		}
		for _, k := range []topology.ChipletKind{topology.KindFast, topology.KindEfficient, topology.KindAccel} {
			var want []topology.ChipletID
			for _, match := range []bool{true, false} {
				for _, ch := range base {
					if (topo.KindOf(ch) == k) == match {
						want = append(want, ch)
					}
				}
			}
			if got := v.ChipletsByPreference(nil, cursor, k); !slices.Equal(got, want) {
				t.Errorf("cursor %d, prefer %v: order %v, want %v", cursor, k, got, want)
			}
		}
	}
	synth := topology.Synthetic(4, 2)
	homo := NewView(NewRanks(synth), 0, synthSnapshot(synth))
	a := homo.ChipletsByPreference(nil, 1, topology.KindAny)
	if f := homo.ChipletsByPreference(nil, 1, topology.KindFast); !slices.Equal(a, f) {
		t.Errorf("all-fast machine: prefer fast orders %v, KindAny %v", f, a)
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
	order := v.ChipletsByPreference(nil, 0, topology.KindAny)
	if len(order) != topo.NumChiplets() {
		t.Fatalf("order %v must list every chiplet", order)
	}
	if order[len(order)-1] != 1 {
		t.Fatalf("congested chiplet 1 must sort last: %v", order)
	}
}
