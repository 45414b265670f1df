package fault

import (
	"strings"
	"testing"

	"charm/internal/topology"
)

// TestThermalSegmentBoundaries: the fastpath placement cache trusts a
// cached factor until exactly the reported boundary, so the segment edges
// must be exact — a step taking effect at t must be visible at t, not
// t+1.
func TestThermalSegmentBoundaries(t *testing.T) {
	topo := topology.Synthetic(4, 2)
	p, err := New("t", 1).ThermalThrottle(1, 100, 200, 2.0).Compile(topo)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		at           int64
		milli, until int64
	}{
		{0, 1000, 100},
		{99, 1000, 100},
		{100, 2000, 200}, // step edge exactly at query time
		{199, 2000, 200},
		{200, 1000, Forever}, // factor expires exactly at its window end
		{1 << 40, 1000, Forever},
	}
	for _, tc := range cases {
		if m, u := p.ThermalSegment(1, tc.at); m != tc.milli || u != tc.until {
			t.Errorf("ThermalSegment(1, %d) = (%d, %d), want (%d, %d)", tc.at, m, u, tc.milli, tc.until)
		}
	}
	// Untouched chiplet and empty/nil plans report the permanent healthy
	// segment.
	if m, u := p.ThermalSegment(0, 150); m != 1000 || u != Forever {
		t.Errorf("healthy chiplet segment = (%d, %d), want (1000, Forever)", m, u)
	}
	empty, err := New("e", 1).Compile(topo)
	if err != nil {
		t.Fatal(err)
	}
	if m, u := empty.ThermalSegment(2, 0); m != 1000 || u != Forever {
		t.Errorf("empty plan segment = (%d, %d), want (1000, Forever)", m, u)
	}
	var nilPlan *Plan
	if m, u := nilPlan.ThermalSegment(0, 0); m != 1000 || u != Forever {
		t.Errorf("nil plan segment = (%d, %d), want (1000, Forever)", m, u)
	}
}

// TestOverlayOverStaticPrecedence: once an overlay step is in effect it
// replaces the static timeline entirely, and every reported segment is
// capped at the next governor grid boundary so cached answers cannot
// outlive a future append.
func TestOverlayOverStaticPrecedence(t *testing.T) {
	topo := topology.Synthetic(4, 2)
	p, err := New("t", 1).ThermalThrottle(1, 100, 200, 2.0).Compile(topo)
	if err != nil {
		t.Fatal(err)
	}
	ov, err := NewOverlay(topo, 1000)
	if err != nil {
		t.Fatal(err)
	}
	p.AttachOverlay(ov)

	// Before any append the static answer holds, but the boundary cap
	// applies: the governor may append at the next grid line.
	if m, u := p.ThermalSegment(1, 150); m != 2000 || u != 200 {
		t.Fatalf("pre-append ThermalSegment = (%d, %d), want (2000, 200)", m, u)
	}
	if m, u := p.ThermalSegment(1, 50); m != 1000 || u != 100 {
		t.Fatalf("pre-append healthy segment = (%d, %d), want (1000, 100)", m, u)
	}
	if m, u := p.ThermalSegment(1, 300); m != 1000 || u != 1000 {
		t.Fatalf("post-window segment = (%d, %d), want cap at grid boundary 1000, got until=%d", m, u, u)
	}

	// An overlay step not yet in effect bounds the static answer instead
	// of replacing it.
	ov.AppendThermal(1, 3000, 4000)
	if m, u := p.ThermalSegment(1, 150); m != 2000 || u != 200 {
		t.Fatalf("future overlay step changed the active segment: (%d, %d)", m, u)
	}
	if m := p.ThermalMilli(1, 2500); m != 1000 {
		t.Fatalf("ThermalMilli before overlay start = %d, want 1000", m)
	}

	// Once in effect, the overlay wins over the static timeline — even
	// where the static plan declared a different factor.
	if m := p.ThermalMilli(1, 3000); m != 4000 {
		t.Fatalf("ThermalMilli at overlay start = %d, want 4000", m)
	}
	if m, u := p.ThermalSegment(1, 3100); m != 4000 || u != 4000 {
		t.Fatalf("overlay segment = (%d, %d), want (4000, 4000) [grid cap]", m, u)
	}
	// A later recovery step returns the chiplet to nominal; the overlay
	// stays authoritative.
	ov.AppendThermal(1, 5000, 1000)
	if m := p.ThermalMilli(1, 5000); m != 1000 {
		t.Fatalf("ThermalMilli after recovery = %d, want 1000", m)
	}
	// Other chiplets never see the overlay state.
	if m := p.ThermalMilli(0, 3500); m != 1000 {
		t.Fatalf("untouched chiplet ThermalMilli = %d, want 1000", m)
	}
}

// TestOverlayParkQueries: park spans feed the same CoreDown / CoreUpAt /
// CoresDown queries the runtime's park protocol uses for static offline
// windows, and abutting static+overlay windows chain in CoreUpAt.
func TestOverlayParkQueries(t *testing.T) {
	topo := topology.Synthetic(4, 2) // 4 chiplets x 2 cores
	p, err := New("t", 1).OfflineCore(2, 100, 500).Compile(topo)
	if err != nil {
		t.Fatal(err)
	}
	ov, err := NewOverlay(topo, 100)
	if err != nil {
		t.Fatal(err)
	}
	p.AttachOverlay(ov)
	if p.Empty() {
		t.Fatal("plan hosting an overlay reports Empty")
	}

	ov.AppendPark(1, 400, 900) // cores 2 and 3; overlaps core 2's static window
	if !p.CoreDown(2, 450) || !p.CoreDown(3, 450) {
		t.Fatal("parked chiplet's cores not down")
	}
	if p.CoreDown(4, 450) {
		t.Fatal("unparked chiplet's core down")
	}
	// Static window [100,500) chains into the park [400,900): the core is
	// continuously down until 900.
	if got := p.CoreUpAt(2, 150); got != 900 {
		t.Fatalf("CoreUpAt(2, 150) = %d, want 900 (static chains into park)", got)
	}
	if got := p.CoreUpAt(3, 400); got != 900 {
		t.Fatalf("CoreUpAt(3, 400) = %d, want 900", got)
	}
	if got := p.CoresDown(450); got != 2 {
		t.Fatalf("CoresDown(450) = %d, want 2 (core 2 counted once despite static+park overlap)", got)
	}
	if got := p.CoresDown(950); got != 0 {
		t.Fatalf("CoresDown(950) = %d, want 0", got)
	}
	if _, down := ov.parked(1, 400); !down {
		t.Fatal("parked edges wrong (want [400,900))")
	}
	if _, down := ov.parked(1, 900); down {
		t.Fatal("parked edges wrong (want [400,900))")
	}
}

// TestOverlayAppendRules: monotone append enforcement, same-time
// replacement, and redundant-step elision.
func TestOverlayAppendRules(t *testing.T) {
	topo := topology.Synthetic(2, 2)
	ov, err := NewOverlay(topo, 50)
	if err != nil {
		t.Fatal(err)
	}
	ov.AppendThermal(0, 100, 1500)
	ov.AppendThermal(0, 100, 3000) // same t: supersedes
	if m, _, active := ov.thermalSegment(0, 100); !active || m != 3000 {
		t.Fatalf("same-t replace: got (%d, %v), want (3000, true)", m, active)
	}
	n := len(ov.therm[0].load())
	ov.AppendThermal(0, 150, 3000) // same milli: elided
	if got := len(ov.therm[0].load()); got != n {
		t.Fatalf("redundant step not elided: %d steps, want %d", got, n)
	}
	ov.AppendThermal(0, 200, 500) // floors at 1000
	if m, _, active := ov.thermalSegment(0, 250); !active || m != 1000 {
		t.Fatalf("floor: got (%d, %v), want (1000, true)", m, active)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("out-of-order thermal append did not panic")
			}
		}()
		ov.AppendThermal(0, 150, 2000)
	}()

	ov.AppendPark(1, 100, 200)
	ov.AppendPark(1, 200, 200) // to <= from: no-op
	if got := len(ov.park[1].load()); got != 1 {
		t.Fatalf("empty park span appended: %d spans", got)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("overlapping park append did not panic")
			}
		}()
		ov.AppendPark(1, 150, 300)
	}()

	if _, err := NewOverlay(nil, 50); err == nil {
		t.Error("NewOverlay accepted a nil topology")
	}
	if _, err := NewOverlay(topo, 0); err == nil {
		t.Error("NewOverlay accepted a non-positive tick")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("second AttachOverlay did not panic")
			}
		}()
		p, _ := New("t", 1).Compile(topo)
		p.AttachOverlay(ov)
		p.AttachOverlay(ov)
	}()
}

// TestParseSpecPower: the closed-loop plane is configured by the
// runtime's Power config alone, so a "power" spec is an unknown schedule
// whatever its keys, and the power keys mean nothing to the fault names.
func TestParseSpecPower(t *testing.T) {
	topo := topology.Synthetic(4, 2)
	for _, tc := range []struct {
		spec    string
		wantSub string
	}{
		{"power", "unknown schedule"},
		{"power:tdp=12.5,rc=2000000,setpoint=70", "unknown schedule"},
		{"power:tdp=0", "unknown schedule"},
		{"power:tdp=-3", "unknown schedule"},
		{"power:tdp=NaN", "unknown schedule"},
		{"power:rc=0", "unknown schedule"},
		{"power:rc=oops", "unknown schedule"},
		{"power:setpoint=-10", "unknown schedule"},
		{"power:tdp=5,tdp=6", "unknown schedule"},
		{"power:period=100", "unknown schedule"},
		{"power:tdp", "unknown schedule"},
		{"thermal:tdp=5", "unknown option"},
	} {
		t.Run(tc.spec, func(t *testing.T) {
			_, err := ParseSpec(tc.spec, topo)
			if err == nil {
				t.Fatalf("ParseSpec(%q) accepted a bad spec", tc.spec)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("ParseSpec(%q) error %q does not mention %q", tc.spec, err, tc.wantSub)
			}
		})
	}
}

// TestCompileThermalConflict: Compile leaves the static-thermal-vs-plane
// rule to the plane's consumers, which read it off Plan.Events: a plan
// with thermal-throttle events compiles and lists them, a plan without
// lists none.
func TestCompileThermalConflict(t *testing.T) {
	topo := topology.Synthetic(4, 2)
	hasThermal := func(s *Schedule) bool {
		p, err := s.Compile(topo)
		if err != nil {
			t.Fatalf("Compile(%s) = %v", s.Name, err)
		}
		for _, e := range p.Events() {
			if e.Kind == ThermalThrottle {
				return true
			}
		}
		return false
	}
	if !hasThermal(New("clash", 1).ThermalThrottle(0, 100, 200, 2.0).LinkBrownout(1, 100, 200, 4.0)) {
		t.Fatal("compiled plan hides its thermal-throttle event")
	}
	if hasThermal(New("ok", 1).LinkBrownout(1, 100, 200, 4.0)) {
		t.Fatal("link-brownout plan reports a thermal-throttle event")
	}
}

// FuzzCoreUpUntil: over random static core/chiplet down-windows and overlay
// park spans, a (true, until) answer is a promise the lockstep engine's idle
// runs cache — CoreDown(c, x) must be false at every x in [t, until) — and
// until must be the first down instant, so CoreDown(c, until) holds unless
// until is Forever. A (false, _) answer must agree with CoreDown(c, t).
func FuzzCoreUpUntil(f *testing.F) {
	f.Add(uint64(1), int64(150))
	f.Add(uint64(0xbeef), int64(0))
	f.Add(uint64(42), int64(899))
	f.Fuzz(func(t *testing.T, seed uint64, at int64) {
		const horizon = 2_000
		topo := topology.Synthetic(4, 2) // 4 chiplets x 2 cores
		at = (at%horizon + horizon) % horizon
		r := seed | 1
		next := func(n int64) int64 { // xorshift64: inputs decide everything
			r ^= r << 13
			r ^= r >> 7
			r ^= r << 17
			return int64(r % uint64(n))
		}
		s := New("fuzz", seed)
		for k := next(5); k > 0; k-- {
			from := next(horizon)
			to := from + 1 + next(400)
			if next(4) == 0 {
				to = 0 // open-ended: down Forever
			}
			if next(2) == 0 {
				s.OfflineCore(topology.CoreID(next(int64(topo.NumCores()))), from, to)
			} else {
				s.OfflineChiplet(topology.ChipletID(next(int64(topo.NumChiplets()))), from, to)
			}
		}
		p, err := s.Compile(topo)
		if err != nil {
			t.Fatal(err)
		}
		if next(4) != 0 {
			ov, err := NewOverlay(topo, 100)
			if err != nil {
				t.Fatal(err)
			}
			p.AttachOverlay(ov)
			for ch := 0; ch < topo.NumChiplets(); ch++ {
				for from := next(horizon / 4); from < horizon; from += 1 + next(horizon/4) {
					to := from + 1 + next(300)
					ov.AppendPark(topology.ChipletID(ch), from, to)
					from = to
				}
			}
		}
		for c := 0; c < topo.NumCores(); c++ {
			id := topology.CoreID(c)
			up, until := p.CoreUpUntil(id, at)
			if !up {
				if !p.CoreDown(id, at) || until != at {
					t.Fatalf("core %d at %d: CoreUpUntil = (false, %d), CoreDown = %v", c, at, until, p.CoreDown(id, at))
				}
				continue
			}
			if until <= at {
				t.Fatalf("core %d at %d: up until %d, not after the query", c, at, until)
			}
			for x := at; x < until && x < 2*horizon; x++ {
				if p.CoreDown(id, x) {
					t.Fatalf("core %d: CoreUpUntil(%d) = (true, %d), but CoreDown at %d", c, at, until, x)
				}
			}
			if until != Forever && !p.CoreDown(id, until) {
				t.Fatalf("core %d: CoreUpUntil(%d) = (true, %d), but the core is up at %d", c, at, until, until)
			}
		}
	})
}
