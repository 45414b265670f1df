package topology

import (
	"fmt"
	"strings"
)

// The topo-spec grammar describes a whole machine in one short string:
//
//	fabric:RxC[,fast=N][,eff=N][,accel=N][,cores=N][,sockets=N]
//
// fabric names the interconnect (star, mesh, ring, crossbar, flatfly) and
// RxC arranges each socket's chiplets in a rows x cols grid. The kind
// counts split the machine's chiplets into fast / efficient / accelerator
// dies (they must sum to the chiplet total; omitting all of them means
// homogeneous all-fast). cores is cores per chiplet (default 2), sockets
// the socket count (default 1). A spec may also be one of the preset
// names in SpecPresets, e.g. "het-mesh".

// specFabrics lists the fabric names the grammar accepts. The fabric
// package asserts this stays in sync with its Kind enum.
var specFabrics = []string{"star", "mesh", "ring", "crossbar", "flatfly"}

// SpecFabrics returns the fabric names the topo-spec grammar accepts.
func SpecFabrics() []string {
	out := make([]string, len(specFabrics))
	copy(out, specFabrics)
	return out
}

// SpecPresets maps preset names (accepted anywhere a spec string is) to
// their canonical spec expansion.
var SpecPresets = map[string]string{
	// het-mesh is the reference heterogeneous machine of the topology
	// experiments: a 4x2 mesh with 2 fast, 4 efficient, 2 accelerator dies.
	"het-mesh": "mesh:4x2,fast=2,eff=4,accel=2",
	// het-ring is the same chiplet mix on the most congestion-prone fabric.
	"het-ring": "ring:4x2,fast=2,eff=4,accel=2",
	// big-little is a phone-style split with no accelerators.
	"big-little": "mesh:4x4,fast=8,eff=8",
	// accel-pod is a small inference pod: direct links, half accelerators.
	"accel-pod": "crossbar:2x2,fast=2,accel=2",
	// hub is today's Infinity-Fabric-style default at experiment scale.
	"hub": "star:4x2",
}

// Spec-grammar bounds: large enough for any experiment, small enough that
// a fuzzer cannot make ParseTopoSpec allocate a monster machine.
const (
	specMaxChiplets = 1024
	specMaxCores    = 256
	specMaxSockets  = 8
	specDefCores    = 2
)

// TopoSpec is a parsed topo-spec string. The zero counts Fast=Eff=Accel=0
// mean a homogeneous all-fast machine.
type TopoSpec struct {
	Fabric  string // star | mesh | ring | crossbar | flatfly
	Rows    int    // chiplet grid rows per socket
	Cols    int    // chiplet grid cols per socket
	Fast    int    // fast chiplets, machine-wide
	Eff     int    // efficient chiplets, machine-wide
	Accel   int    // accelerator chiplets, machine-wide
	Cores   int    // cores per chiplet
	Sockets int
}

// ParseTopoSpec parses a spec string (or a SpecPresets name) into its
// normalized form. String() of the result re-parses to an equal TopoSpec.
func ParseTopoSpec(s string) (TopoSpec, error) {
	if alias, ok := SpecPresets[s]; ok {
		s = alias
	}
	var sp TopoSpec
	head, rest, hasRest := strings.Cut(s, ",")
	fab, grid, ok := strings.Cut(head, ":")
	if !ok {
		return sp, fmt.Errorf("topo spec %q: want fabric:RxC[,key=val...]", s)
	}
	if !validFabric(fab) {
		return sp, fmt.Errorf("topo spec %q: unknown fabric %q (want %s)", s, fab, strings.Join(specFabrics, "|"))
	}
	sp.Fabric = fab
	r, c, ok := strings.Cut(grid, "x")
	if !ok {
		return sp, fmt.Errorf("topo spec %q: grid %q must be RxC", s, grid)
	}
	var err error
	if sp.Rows, err = specInt(r, 1, specMaxChiplets); err != nil {
		return sp, fmt.Errorf("topo spec %q: rows: %v", s, err)
	}
	if sp.Cols, err = specInt(c, 1, specMaxChiplets); err != nil {
		return sp, fmt.Errorf("topo spec %q: cols: %v", s, err)
	}
	sp.Cores, sp.Sockets = specDefCores, 1
	if hasRest {
		for _, kv := range strings.Split(rest, ",") {
			key, val, ok := strings.Cut(kv, "=")
			if !ok {
				return sp, fmt.Errorf("topo spec %q: %q must be key=val", s, kv)
			}
			var dst *int
			max := specMaxChiplets
			switch key {
			case "fast":
				dst = &sp.Fast
			case "eff":
				dst = &sp.Eff
			case "accel":
				dst = &sp.Accel
			case "cores":
				dst, max = &sp.Cores, specMaxCores
			case "sockets":
				dst, max = &sp.Sockets, specMaxSockets
			default:
				return sp, fmt.Errorf("topo spec %q: unknown key %q", s, key)
			}
			lo := 0
			if key == "cores" || key == "sockets" {
				lo = 1
			}
			if *dst, err = specInt(val, lo, max); err != nil {
				return sp, fmt.Errorf("topo spec %q: %s: %v", s, key, err)
			}
		}
	}
	return sp, sp.check()
}

func validFabric(name string) bool {
	for _, f := range specFabrics {
		if f == name {
			return true
		}
	}
	return false
}

func specInt(s string, lo, hi int) (int, error) {
	// Hand-rolled instead of strconv.Atoi so that only canonical decimal
	// forms parse ("+4" and "04" would break String() round-tripping).
	if s == "" {
		return 0, fmt.Errorf("empty number")
	}
	if len(s) > 1 && s[0] == '0' {
		return 0, fmt.Errorf("non-canonical number %q", s)
	}
	n := 0
	for _, d := range []byte(s) {
		if d < '0' || d > '9' {
			return 0, fmt.Errorf("bad number %q", s)
		}
		n = n*10 + int(d-'0')
		if n > hi {
			return 0, fmt.Errorf("%q exceeds limit %d", s, hi)
		}
	}
	if n < lo {
		return 0, fmt.Errorf("%d below minimum %d", n, lo)
	}
	return n, nil
}

// check validates cross-field invariants after parsing.
func (sp TopoSpec) check() error {
	total := sp.Rows * sp.Cols * sp.Sockets
	if total > specMaxChiplets {
		return fmt.Errorf("topo spec %v: %d chiplets exceeds limit %d", sp, total, specMaxChiplets)
	}
	if n := sp.Fast + sp.Eff + sp.Accel; n != 0 && n != total {
		return fmt.Errorf("topo spec %v: kind counts sum to %d, want %d chiplets", sp, n, total)
	}
	return nil
}

// String renders the canonical spec form: defaults are omitted, kind
// counts appear (nonzero only) in fast,eff,accel order. ParseTopoSpec of
// the result yields an equal TopoSpec.
func (sp TopoSpec) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:%dx%d", sp.Fabric, sp.Rows, sp.Cols)
	for _, kv := range []struct {
		key string
		n   int
	}{{"fast", sp.Fast}, {"eff", sp.Eff}, {"accel", sp.Accel}} {
		if kv.n > 0 {
			fmt.Fprintf(&b, ",%s=%d", kv.key, kv.n)
		}
	}
	if sp.Cores != specDefCores {
		fmt.Fprintf(&b, ",cores=%d", sp.Cores)
	}
	if sp.Sockets != 1 {
		fmt.Fprintf(&b, ",sockets=%d", sp.Sockets)
	}
	return b.String()
}

// Build materializes the spec as a Topology: the Synthetic cost model
// with the spec's shape, per-socket chiplet grid, and kind assignment
// (fast, then efficient, then accelerator, in chiplet ID order).
func (sp TopoSpec) Build() (*Topology, error) {
	if err := sp.check(); err != nil {
		return nil, err
	}
	t := Synthetic(sp.Rows*sp.Cols, sp.Cores)
	t.Name = "spec/" + sp.String()
	t.Sockets = sp.Sockets
	t.GridRows, t.GridCols = sp.Rows, sp.Cols
	if sp.Fast+sp.Eff+sp.Accel > 0 {
		t.Kinds = make([]ChipletKind, 0, t.NumChiplets())
		for _, kc := range []struct {
			k ChipletKind
			n int
		}{{KindFast, sp.Fast}, {KindEfficient, sp.Eff}, {KindAccel, sp.Accel}} {
			for i := 0; i < kc.n; i++ {
				t.Kinds = append(t.Kinds, kc.k)
			}
		}
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}
