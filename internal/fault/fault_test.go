package fault

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"charm/internal/topology"
)

func TestNilPlanIsHealthy(t *testing.T) {
	var p *Plan
	if p.CoreDown(0, 100) {
		t.Error("nil plan reports a core down")
	}
	if got := p.CoreUpAt(3, 42); got != 42 {
		t.Errorf("CoreUpAt on nil plan = %d, want 42", got)
	}
	if p.ChipletLinkMilli(0, 0) != 1000 || p.MemMilli(0, 0) != 1000 || p.ThermalMilli(0, 0) != 1000 {
		t.Error("nil plan reports degradation")
	}
	if p.CoresDown(0) != 0 || !p.Empty() || p.Events() != nil {
		t.Error("nil plan is not empty")
	}
}

func TestCoreOfflineWindows(t *testing.T) {
	topo := topology.Synthetic(4, 2)
	p, err := New("t", 1).
		OfflineCore(3, 100, 200).
		OfflineCore(3, 150, 300). // overlaps: merges to [100, 300)
		OfflineCore(5, 500, 0).   // To=0 means forever
		Compile(topo)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		core topology.CoreID
		t    int64
		down bool
	}{
		{3, 99, false}, {3, 100, true}, {3, 299, true}, {3, 300, false},
		{5, 499, false}, {5, 500, true}, {5, math.MaxInt64 - 1, true},
		{0, 150, false},
	} {
		if got := p.CoreDown(tc.core, tc.t); got != tc.down {
			t.Errorf("CoreDown(%d, %d) = %v, want %v", tc.core, tc.t, got, tc.down)
		}
	}
	if got := p.CoreUpAt(3, 150); got != 300 {
		t.Errorf("CoreUpAt(3, 150) = %d, want 300", got)
	}
	if got := p.CoreUpAt(5, 600); got != Forever {
		t.Errorf("CoreUpAt(5, 600) = %d, want Forever", got)
	}
	if got := p.CoresDown(160); got != 1 {
		t.Errorf("CoresDown(160) = %d, want 1", got)
	}
	if got := p.CoresDown(600); got != 1 {
		t.Errorf("CoresDown(600) = %d, want 1", got)
	}
}

func TestChipletOfflineExpandsToCores(t *testing.T) {
	topo := topology.Synthetic(4, 4)
	p, err := New("t", 1).OfflineChiplet(2, 1000, 2000).Compile(topo)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < topo.NumCores(); c++ {
		want := topo.ChipletOf(topology.CoreID(c)) == 2
		if got := p.CoreDown(topology.CoreID(c), 1500); got != want {
			t.Errorf("core %d down = %v, want %v", c, got, want)
		}
	}
	if got := p.CoresDown(1500); got != 4 {
		t.Errorf("CoresDown = %d, want 4", got)
	}
}

func TestDegradationFactorsCompound(t *testing.T) {
	topo := topology.Synthetic(4, 2)
	p, err := New("t", 1).
		LinkBrownout(1, 100, 300, 2).
		LinkBrownout(1, 200, 400, 3). // overlap [200, 300): 6x
		MemBrownout(0, 50, 150, 4).
		ThermalThrottle(3, 0, 0, 1.5).
		Compile(topo)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		t    int64
		want int64
	}{
		{99, 1000}, {100, 2000}, {199, 2000}, {200, 6000},
		{299, 6000}, {300, 3000}, {399, 3000}, {400, 1000},
	} {
		if got := p.ChipletLinkMilli(1, tc.t); got != tc.want {
			t.Errorf("ChipletLinkMilli(1, %d) = %d, want %d", tc.t, got, tc.want)
		}
	}
	if got := p.ChipletLinkMilli(0, 250); got != 1000 {
		t.Errorf("unaffected link degraded: %d", got)
	}
	if got := p.MemMilli(0, 100); got != 4000 {
		t.Errorf("MemMilli = %d, want 4000", got)
	}
	if got := p.ThermalMilli(3, 1<<40); got != 1500 {
		t.Errorf("ThermalMilli = %d, want 1500 (forever window)", got)
	}
}

func TestCompileRejectsBadEvents(t *testing.T) {
	topo := topology.Synthetic(4, 2)
	for name, s := range map[string]*Schedule{
		"negative from":   New("t", 1).OfflineCore(0, -5, 10),
		"empty window":    New("t", 1).OfflineCore(0, 10, 10),
		"inverted window": New("t", 1).OfflineCore(0, 20, 10),
		"core range":      New("t", 1).OfflineCore(topology.CoreID(topo.NumCores()), 0, 10),
		"chiplet range":   New("t", 1).OfflineChiplet(-1, 0, 10),
		"factor < 1":      New("t", 1).LinkBrownout(0, 0, 10, 0.5),
		"factor NaN":      New("t", 1).MemBrownout(0, 0, 10, math.NaN()),
		"factor Inf":      New("t", 1).ThermalThrottle(0, 0, 10, math.Inf(1)),
	} {
		if _, err := s.Compile(topo); err == nil {
			t.Errorf("%s: Compile accepted a bad event", name)
		}
	}
}

func TestEmptyAndNilSchedules(t *testing.T) {
	topo := topology.Synthetic(2, 2)
	p, err := New("empty", 7).Compile(topo)
	if err != nil || !p.Empty() || p.Name() != "empty" || p.seed != 7 {
		t.Fatalf("empty schedule: plan=%+v err=%v", p, err)
	}
	var s *Schedule
	p, err = s.Compile(topo)
	if err != nil || !p.Empty() {
		t.Fatalf("nil schedule: plan=%+v err=%v", p, err)
	}
}

func TestParseSpecDeterministic(t *testing.T) {
	topo := topology.Synthetic(8, 2)
	a, err := ParseSpec("chiplet-flap:seed=9,period=1000,horizon=10000", topo)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseSpec("chiplet-flap:seed=9,period=1000,horizon=10000", topo)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("same spec produced different schedules")
	}
	if len(a.Events) != 10 {
		t.Errorf("got %d events, want 10 (one per period)", len(a.Events))
	}
	c, err := ParseSpec("chiplet-flap:seed=10,period=1000,horizon=10000", topo)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Events, c.Events) {
		t.Error("different seeds produced identical victim choices")
	}
	if _, err := a.Compile(topo); err != nil {
		t.Errorf("generated schedule does not compile: %v", err)
	}
}

func TestParseSpecNames(t *testing.T) {
	topo := topology.Synthetic(4, 2)
	for _, name := range []string{"none", "core-flap", "chiplet-flap", "brownout", "mem-brownout", "thermal", "chaos"} {
		s, err := ParseSpec(name, topo)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if _, err := s.Compile(topo); err != nil {
			t.Errorf("%s: compile: %v", name, err)
		}
		if name != "none" && len(s.Events) == 0 {
			t.Errorf("%s: no events generated", name)
		}
	}
	for _, bad := range []string{"bogus", "chaos:nope=1", "chaos:factor=0.5", "chaos:factor", "brownout:period=-1"} {
		if _, err := ParseSpec(bad, topo); err == nil {
			t.Errorf("ParseSpec(%q) accepted a bad spec", bad)
		}
	}
}

func TestChipletFlapNeverKillsWholeMachine(t *testing.T) {
	topo := topology.Synthetic(2, 2)
	s, err := ParseSpec("chiplet-flap:count=5,period=1000,horizon=4000", topo)
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.Compile(topo)
	if err != nil {
		t.Fatal(err)
	}
	for _, tm := range []int64{500, 1500, 2500, 3500} {
		if p.CoresDown(tm) >= topo.NumCores() {
			t.Fatalf("all cores down at t=%d", tm)
		}
	}
}

func TestKindString(t *testing.T) {
	if CoreOffline.String() != "core-offline" || ThermalThrottle.String() != "thermal-throttle" {
		t.Error("kind names wrong")
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind has empty name")
	}
}

// TestParseSpecErrorPaths: every malformed spec class must be refused with
// a message naming the offending fragment.
func TestParseSpecErrorPaths(t *testing.T) {
	topo := topology.Synthetic(4, 2)
	cases := []struct {
		spec    string
		wantSub string
	}{
		{"no-such-scenario", "unknown schedule"},
		{"flaky-cores:seed=1", "unknown schedule"},
		{"chaos:seed", "malformed option"},
		{"chaos:,", "malformed option"},
		{"thermal:seed=1,seed=2", "duplicate option"},
		{"brownout:period=5,period=5", "duplicate option"},
		{"core-flap:bogus=1", "unknown option"},
		{"chaos:seed=notanumber", `option "seed=notanumber"`},
		{"thermal:factor=wide", `option "factor=wide"`},
		{"brownout:period=0", "period and horizon must be positive"},
		{"mem-brownout:horizon=-5", "period and horizon must be positive"},
		{"chaos:factor=0.25", "factor must be a finite value >= 1"},
		{"core-flap:count=-3", "count must be at least 1"},
		{"chiplet-flap:count=0", "count must be at least 1"},
		{"core-flap:count=1000,period=1000", "event cap"},
		{"core-flap:period=1,horizon=1000000", "event cap"},
		{"chaos:period=1000", "event cap"},
		{"core-flap:count=9223372036854775807", "event cap"},
		{"chiplet-flap:seed=7,period=2ms", `option "period=2ms"`},
	}
	for _, tc := range cases {
		t.Run(tc.spec, func(t *testing.T) {
			s, err := ParseSpec(tc.spec, topo)
			if err == nil {
				t.Fatalf("ParseSpec(%q) accepted a bad spec (schedule %v)", tc.spec, s.Name)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("ParseSpec(%q) error %q does not mention %q", tc.spec, err, tc.wantSub)
			}
		})
	}
}

// TestParseSpecWindows: one window per whole period in the horizon, laid
// out without overflow when period+period passes MaxInt64, and no window
// walk for a schedule that emits nothing (a chiplet flap on one chiplet).
func TestParseSpecWindows(t *testing.T) {
	if s, err := ParseSpec("chiplet-flap:period=1,horizon=1000000000000", topology.Synthetic(1, 2)); err != nil || len(s.Events) != 0 {
		t.Fatalf("one-chiplet flap: %v, %v; want no events", s, err)
	}
	topo := topology.Synthetic(4, 2)
	for _, tc := range []struct {
		spec string
		want []Event
	}{
		{"thermal:period=5000000000000000000,horizon=9000000000000000000", []Event{
			{Kind: ThermalThrottle, From: 1_250_000_000_000_000_000, To: 3_750_000_000_000_000_000, Factor: 3}}},
		{"mem-brownout:period=1000,horizon=2999", []Event{
			{Kind: MemBrownout, From: 250, To: 750, Factor: 4},
			{Kind: MemBrownout, From: 1250, To: 1750, Factor: 4}}},
		{"brownout:period=1000,horizon=999", nil},
	} {
		s, err := ParseSpec(tc.spec, topo)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", tc.spec, err)
		}
		if len(s.Events) != len(tc.want) {
			t.Fatalf("ParseSpec(%q): %d events, want %d", tc.spec, len(s.Events), len(tc.want))
		}
		for i, e := range s.Events {
			w := tc.want[i]
			if e.Kind != w.Kind || e.From != w.From || e.To != w.To || e.Factor != w.Factor {
				t.Errorf("ParseSpec(%q) event %d = %+v, want %+v (any unit)", tc.spec, i, e, w)
			}
		}
	}
}

// TestCompileRejectsAllCoresDown: a plan with zero live cores at any
// instant must be refused at compile time — the runtime's park protocol
// needs at least one live core to drain to.
func TestCompileRejectsAllCoresDown(t *testing.T) {
	topo := topology.Synthetic(2, 2)
	dead := New("dead", 1).
		OfflineChiplet(0, 1_000, Forever).
		OfflineChiplet(1, 5_000, Forever)
	if _, err := dead.Compile(topo); err == nil || !strings.Contains(err.Error(), "offlines all") {
		t.Fatalf("Compile accepted an all-cores-down plan: %v", err)
	}
	// Staggered windows that always leave chiplet 1 alive are fine.
	ok := New("ok", 1).
		OfflineChiplet(0, 1_000, Forever).
		OfflineCore(2, 5_000, 9_000)
	if _, err := ok.Compile(topo); err != nil {
		t.Fatalf("Compile rejected a survivable plan: %v", err)
	}
}
