package topology

import (
	"strings"
	"testing"
)

func TestParseTopoSpecRoundTrip(t *testing.T) {
	cases := []struct {
		in   string
		want TopoSpec
	}{
		{"star:4x2", TopoSpec{Fabric: "star", Rows: 4, Cols: 2, Cores: 2, Sockets: 1}},
		{"mesh:4x2,fast=2,eff=4,accel=2",
			TopoSpec{Fabric: "mesh", Rows: 4, Cols: 2, Fast: 2, Eff: 4, Accel: 2, Cores: 2, Sockets: 1}},
		{"ring:2x2,cores=4,sockets=2",
			TopoSpec{Fabric: "ring", Rows: 2, Cols: 2, Cores: 4, Sockets: 2}},
		{"crossbar:1x4,fast=2,accel=2,cores=1",
			TopoSpec{Fabric: "crossbar", Rows: 1, Cols: 4, Fast: 2, Accel: 2, Cores: 1, Sockets: 1}},
		{"flatfly:3x3,eff=9", TopoSpec{Fabric: "flatfly", Rows: 3, Cols: 3, Eff: 9, Cores: 2, Sockets: 1}},
	}
	for _, tc := range cases {
		sp, err := ParseTopoSpec(tc.in)
		if err != nil {
			t.Errorf("ParseTopoSpec(%q): %v", tc.in, err)
			continue
		}
		if sp != tc.want {
			t.Errorf("ParseTopoSpec(%q) = %+v, want %+v", tc.in, sp, tc.want)
		}
		if got := sp.String(); got != tc.in {
			t.Errorf("String() = %q, want the canonical input %q", got, tc.in)
		}
		again, err := ParseTopoSpec(sp.String())
		if err != nil || again != sp {
			t.Errorf("round-trip of %q: %+v, %v", tc.in, again, err)
		}
	}
}

func TestParseTopoSpecRejects(t *testing.T) {
	bad := []string{
		"",
		"mesh",                  // no grid
		"mesh:4",                // grid not RxC
		"hypercube:2x2",         // unknown fabric
		"mesh:0x2",              // zero rows
		"mesh:4x2,fast=1",       // kind counts don't sum to 8
		"mesh:4x2,turbo=1",      // unknown key
		"mesh:4x2,fast",         // not key=val
		"mesh:04x2",             // non-canonical number
		"mesh:+4x2",             // signed number
		"mesh:4x2,cores=0",      // below minimum
		"mesh:4x2,sockets=9",    // above socket limit
		"mesh:1024x2,sockets=2", // chiplet total over limit
		"mesh:4x2,cores=999999", // cores over limit
	}
	for _, s := range bad {
		if _, err := ParseTopoSpec(s); err == nil {
			t.Errorf("ParseTopoSpec(%q) accepted", s)
		}
	}
}

func TestSpecPresetsParseAndBuild(t *testing.T) {
	for name := range SpecPresets {
		sp, err := ParseTopoSpec(name)
		if err != nil {
			t.Errorf("preset %q: %v", name, err)
			continue
		}
		if sp.String() != SpecPresets[name] {
			t.Errorf("preset %q: canonical form %q, table says %q", name, sp.String(), SpecPresets[name])
		}
		topo, err := sp.Build()
		if err != nil {
			t.Errorf("preset %q: Build: %v", name, err)
			continue
		}
		if err := topo.Validate(); err != nil {
			t.Errorf("preset %q: built topology invalid: %v", name, err)
		}
	}
}

func TestSpecBuildKindAssignment(t *testing.T) {
	sp, err := ParseTopoSpec("mesh:4x2,fast=2,eff=4,accel=2")
	if err != nil {
		t.Fatal(err)
	}
	topo, err := sp.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !topo.Heterogeneous() {
		t.Fatal("heterogeneous spec built a homogeneous topology")
	}
	wantKinds := []ChipletKind{
		KindFast, KindFast,
		KindEfficient, KindEfficient, KindEfficient, KindEfficient,
		KindAccel, KindAccel,
	}
	for ch, want := range wantKinds {
		if got := topo.KindOf(ChipletID(ch)); got != want {
			t.Errorf("chiplet %d: kind %v, want %v", ch, got, want)
		}
	}
	if topo.GridRows != 4 || topo.GridCols != 2 {
		t.Errorf("grid %dx%d, want 4x2", topo.GridRows, topo.GridCols)
	}
}

func TestKindTraitsSane(t *testing.T) {
	fast, eff, accel := KindFast.Traits(), KindEfficient.Traits(), KindAccel.Traits()
	if fast != (KindTraits{1000, 1000, 1000}) {
		t.Errorf("fast traits %+v must be the identity", fast)
	}
	if eff.ComputeMilli <= fast.ComputeMilli || eff.EnergyMilli >= fast.EnergyMilli {
		t.Errorf("efficient cores must be slower and cheaper: %+v", eff)
	}
	if accel.ComputeMilli >= fast.ComputeMilli || accel.EnergyMilli <= fast.EnergyMilli {
		t.Errorf("accelerators must be faster and hungrier: %+v", accel)
	}
	// A homogeneous topology reports identity multipliers everywhere.
	topo := Synthetic(4, 2)
	if topo.Heterogeneous() {
		t.Fatal("Synthetic must be homogeneous")
	}
	if topo.ComputeMilli(0) != 1000 || topo.AccessMilli(0) != 1000 || topo.EnergyMilli(0) != 1000 {
		t.Error("homogeneous multipliers must all be 1000")
	}
	if topo.KindOf(0) != KindFast {
		t.Errorf("homogeneous KindOf = %v, want fast", topo.KindOf(0))
	}
}

// FuzzParseTopoSpec: parsing must never panic, and any spec that parses
// must round-trip through its canonical String() form to an equal value.
func FuzzParseTopoSpec(f *testing.F) {
	f.Add("star:4x2")
	f.Add("mesh:4x2,fast=2,eff=4,accel=2")
	f.Add("ring:2x2,cores=4,sockets=2")
	f.Add("flatfly:3x3,eff=9")
	f.Add("het-mesh")
	f.Add("mesh:04x2")
	f.Add("crossbar:1x1,fast=0")
	f.Fuzz(func(t *testing.T, s string) {
		sp, err := ParseTopoSpec(s)
		if err != nil {
			return
		}
		canon := sp.String()
		again, err := ParseTopoSpec(canon)
		if err != nil {
			t.Fatalf("canonical form %q of %q does not re-parse: %v", canon, s, err)
		}
		if again != sp {
			t.Fatalf("round-trip mismatch: %q → %+v, %q → %+v", s, sp, canon, again)
		}
		if strings.Contains(canon, " ") {
			t.Fatalf("canonical form %q contains whitespace", canon)
		}
	})
}
