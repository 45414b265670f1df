package place

import (
	"reflect"
	"testing"

	"charm/internal/topology"
)

// TestAlg2CoreBijectionPerSocket exhaustively checks Algorithm 2's
// collision-freedom on both machine presets: for every (workers, spread)
// combination the bounds check accepts, the workers of each socket map to
// distinct cores inside that socket — the property the paper's published
// wrap-around term violates and our lap-corrected term restores.
func TestAlg2CoreBijectionPerSocket(t *testing.T) {
	presets := map[string]*topology.Topology{
		"amd-milan":  topology.AMDMilan7713x2(),
		"intel-spr":  topology.IntelSPR8488Cx2(),
		"synthetic4": topology.Synthetic(4, 2),
	}
	for name, topo := range presets {
		t.Run(name, func(t *testing.T) {
			cps := topo.CoresPerSocket()
			chiplets := topo.ChipletsPerNode * topo.NodesPerSocket
			for workers := 1; workers <= topo.NumCores(); workers++ {
				for spread := 1; spread <= chiplets; spread++ {
					seen := map[topology.CoreID]int{}
					for w := 0; w < workers; w++ {
						c, ok := Alg2Core(w, workers, spread, topo)

						// The bounds check must match Alg. 2 line 2
						// exactly: spread addresses physical chiplets and
						// leaves a dedicated core per worker in the socket.
						socket := w / cps
						if socket >= topo.Sockets {
							socket = topo.Sockets - 1
						}
						inSocket := workers - socket*cps
						if inSocket > cps {
							inSocket = cps
						}
						wantOK := spread*topo.CoresPerChiplet >= inSocket
						if ok != wantOK {
							t.Fatalf("workers=%d spread=%d worker=%d: ok=%v, want %v",
								workers, spread, w, ok, wantOK)
						}
						if !ok {
							continue
						}
						if got := int(c) / cps; got != socket {
							t.Fatalf("workers=%d spread=%d worker=%d: core %d in socket %d, want %d",
								workers, spread, w, c, got, socket)
						}
						if prev, dup := seen[c]; dup {
							t.Fatalf("workers=%d spread=%d: workers %d and %d collide on core %d",
								workers, spread, prev, w, c)
						}
						seen[c] = w
					}
				}
			}
		})
	}
}

// TestRanksOrder checks the distance ranking: a core is nearest to itself
// (rank -1), and the closest other cores share its chiplet.
func TestRanksOrder(t *testing.T) {
	topo := topology.AMDMilan7713x2()
	r := NewRanks(topo)
	if d := r.pos[0][0]; d != -1 {
		t.Errorf("pos[0][0] = %d, want -1", d)
	}
	from := r.from[0]
	if len(from) != topo.NumCores()-1 {
		t.Fatalf("from[0] has %d cores, want %d", len(from), topo.NumCores()-1)
	}
	for i := 0; i < topo.CoresPerChiplet-1; i++ {
		if topo.ChipletOf(from[i]) != topo.ChipletOf(0) {
			t.Errorf("rank %d core %d not on core 0's chiplet", i, from[i])
		}
	}
	// The order and the position table agree.
	for i, c := range from {
		if r.pos[0][c] != int32(i) {
			t.Errorf("pos[0][%d] = %d, want %d", c, r.pos[0][c], i)
		}
	}
}

// synthSnapshot builds an 8-worker snapshot on Synthetic(4,2): worker i
// on core i, all cores occupied.
func synthSnapshot(topo *topology.Topology) Snapshot {
	n := topo.NumCores()
	s := Snapshot{
		Occ:        make([]int32, n),
		WorkerOn:   make([]int32, n),
		WorkerCore: make([]topology.CoreID, n),
		QueueDepth: make([]int64, n),
	}
	for i := 0; i < n; i++ {
		s.Occ[i] = 1
		s.WorkerOn[i] = int32(i)
		s.WorkerCore[i] = topology.CoreID(i)
	}
	return s
}

// TestViewHealthFusion checks the per-chiplet health model: a fault-plan
// brownout, a PMU-observed slowdown, and an open breaker are three
// distinct signals — the milli factors fuse by worst-wins, breaker
// refusal is a separate hard flag, and dispatch preference orders
// healthy < slowed < refused.
func TestViewHealthFusion(t *testing.T) {
	topo := topology.Synthetic(4, 2)
	r := NewRanks(topo)
	s := synthSnapshot(topo)
	s.PlanMilli = []int64{0, 3000, 0, 0}              // chiplet 1: declared brownout
	s.ObsMilli = []int64{0, 0, 2600, 0}               // chiplet 2: observed slowdown
	s.BreakerOpen = []bool{false, false, false, true} // chiplet 3: refused
	v := NewView(r, 42, s)

	if v.Now() != 42 {
		t.Errorf("Now = %d, want 42", v.Now())
	}
	if want := []int64{1000, 3000, 2600, 1000}; !reflect.DeepEqual(v.health, want) {
		t.Errorf("health = %v, want %v", v.health, want)
	}
	if want := []bool{false, false, false, true}; !reflect.DeepEqual(v.refused, want) {
		t.Errorf("refused = %v, want %v", v.refused, want)
	}
	// Preference: healthy chiplet 0 first, then observed-slow 2, then
	// browned-out 1; the refused chiplet orders last but is never dropped
	// (half-open probes must still reach it).
	want := []topology.ChipletID{0, 2, 1, 3}
	for cursor := 0; cursor < 4; cursor++ {
		if got := v.ChipletsByPreference(nil, cursor, topology.KindAny); !reflect.DeepEqual(got, want) {
			t.Errorf("ChipletsByPreference(%d) = %v, want %v", cursor, got, want)
		}
	}
}

// TestFuseHealth pins the fusion rule: worst signal wins, floored at the
// nominal 1000, absent (zero) signals read as healthy.
func TestFuseHealth(t *testing.T) {
	cases := []struct{ plan, obs, want int64 }{
		{0, 0, 1000},
		{1000, 0, 1000},
		{3000, 0, 3000},
		{0, 2600, 2600},
		{3000, 2600, 3000},
		{1400, 2600, 2600},
		{500, 0, 1000}, // sub-nominal readings clamp up
	}
	for _, c := range cases {
		if got := fuseHealth(c.plan, c.obs); got != c.want {
			t.Errorf("fuseHealth(%d, %d) = %d, want %d", c.plan, c.obs, got, c.want)
		}
	}
}

// TestLeastLoadedPrefersIdleThenShallow checks the scorer's lexicographic
// order: occupancy dominates queue depth.
func TestLeastLoadedPrefersIdleThenShallow(t *testing.T) {
	topo := topology.Synthetic(4, 2)
	r := NewRanks(topo)
	s := synthSnapshot(topo)
	s.Occ[3] = 0 // core 3 idle
	s.WorkerOn[3] = -1
	for i := range s.QueueDepth {
		s.QueueDepth[i] = int64(8 - i) // deepest at worker 0
	}
	v := NewView(r, 0, s)
	if c, ok := v.Select(LeastLoaded()); !ok || c != 3 {
		t.Errorf("Select(LeastLoaded) = %d, %v, want idle core 3", c, ok)
	}
	s2 := synthSnapshot(topo)
	for i := range s2.QueueDepth {
		s2.QueueDepth[i] = int64(8 - i)
	}
	v2 := NewView(r, 0, s2)
	if c, ok := v2.Select(LeastLoaded()); !ok || c != 7 {
		t.Errorf("Select(LeastLoaded) all-occupied = %d, %v, want shallowest core 7", c, ok)
	}
}

// TestSelectDeterminism is the replayability regression: two views built
// from identical snapshots at the same virtual time must answer every
// query identically — placement decisions are pure functions of
// (time, snapshot).
func TestSelectDeterminism(t *testing.T) {
	topo := topology.AMDMilan7713x2()
	r := NewRanks(topo)
	build := func() *View {
		n := topo.NumCores()
		s := Snapshot{
			Live:       make([]bool, n),
			Occ:        make([]int32, n),
			WorkerOn:   make([]int32, n),
			WorkerCore: make([]topology.CoreID, 64),
			QueueDepth: make([]int64, 64),
			PlanMilli:  make([]int64, topo.NumChiplets()),
			ObsMilli:   make([]int64, topo.NumChiplets()),
		}
		for c := 0; c < n; c++ {
			s.Live[c] = c%7 != 0 // deterministic liveness pattern
			s.WorkerOn[c] = -1
		}
		for w := 0; w < 64; w++ {
			c := topology.CoreID((w * 5) % n)
			s.WorkerCore[w] = c
			s.Occ[c]++
			s.WorkerOn[c] = int32(w)
			s.QueueDepth[w] = int64((w * 13) % 17)
		}
		for ch := 0; ch < topo.NumChiplets(); ch++ {
			s.PlanMilli[ch] = int64(1000 + (ch%3)*700)
			s.ObsMilli[ch] = int64((ch % 5) * 400)
		}
		return NewView(r, 99, s)
	}
	a, b := build(), build()

	for _, from := range []topology.CoreID{0, 17, 63, 127} {
		ca, oka := a.Select(CongestionAware(from), Live, Idle)
		cb, okb := b.Select(CongestionAware(from), Live, Idle)
		if ca != cb || oka != okb {
			t.Errorf("Select(CongestionAware(%d)) differs: (%d,%v) vs (%d,%v)", from, ca, oka, cb, okb)
		}
		if !reflect.DeepEqual(a.VictimsByDistance(from, 0), b.VictimsByDistance(from, 0)) {
			t.Errorf("VictimsByDistance(%d) differs across identical views", from)
		}
		if !reflect.DeepEqual(a.VictimsNodeFirst(from, 0), b.VictimsNodeFirst(from, 0)) {
			t.Errorf("VictimsNodeFirst(%d) differs across identical views", from)
		}
	}
	ca, oka := a.Select(LeastLoaded(), Live)
	cb, okb := b.Select(LeastLoaded(), Live)
	if ca != cb || oka != okb {
		t.Errorf("Select(LeastLoaded) differs: (%d,%v) vs (%d,%v)", ca, oka, cb, okb)
	}
	for cursor := 0; cursor < 4; cursor++ {
		for _, k := range []topology.ChipletKind{topology.KindAny, topology.KindFast} {
			if !reflect.DeepEqual(a.ChipletsByPreference(nil, cursor, k), b.ChipletsByPreference(nil, cursor, k)) {
				t.Errorf("ChipletsByPreference(%d, %v) differs across identical views", cursor, k)
			}
		}
	}
}

// TestNilSnapshotDefaults checks that an all-nil snapshot reads as a
// healthy idle machine.
func TestNilSnapshotDefaults(t *testing.T) {
	topo := topology.Synthetic(4, 2)
	v := NewView(NewRanks(topo), 0, Snapshot{})
	for c := 0; c < topo.NumCores(); c++ {
		if !v.live[c] || v.occ[c] != 0 || v.workerOn[c] != -1 {
			t.Errorf("core %d: live=%v occ=%d worker=%d, want live idle unowned",
				c, v.live[c], v.occ[c], v.workerOn[c])
		}
	}
	for ch := 0; ch < topo.NumChiplets(); ch++ {
		if v.health[ch] != 1000 || v.refused[ch] {
			t.Errorf("chiplet %d: health=%d refused=%v, want nominal admitting",
				ch, v.health[ch], v.refused[ch])
		}
	}
	if got := v.ChipletsByPreference(nil, 0, topology.KindAny); len(got) != 0 {
		t.Errorf("ChipletsByPreference with no workers = %v, want empty", got)
	}
}

// TestStaticLayoutsInBounds sweeps the pure layout helpers over both
// presets: every returned core must exist.
func TestStaticLayoutsInBounds(t *testing.T) {
	for _, topo := range []*topology.Topology{
		topology.AMDMilan7713x2(), topology.IntelSPR8488Cx2(),
	} {
		n := topo.NumCores()
		for w := 0; w < 2*n; w++ {
			for _, c := range []topology.CoreID{
				CompactCore(w, topo),
				SpreadChipletsCore(w, topo),
				SpreadNodesCore(w, topo),
				NodeBalancedCore(w, topo),
				OversubscribedCore(w, 2*n, 4, topo),
			} {
				if int(c) < 0 || int(c) >= n {
					t.Fatalf("worker %d: core %d out of range [0,%d)", w, c, n)
				}
			}
		}
	}
}
