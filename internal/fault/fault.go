// Package fault implements deterministic, virtual-time fault injection for
// the simulated chiplet machine: cores and whole chiplets going offline and
// coming back, fabric-link brownouts (bandwidth/latency degradation),
// memory-channel degradation, and per-chiplet thermal-throttle windows.
//
// A Schedule is a plain list of fault windows in virtual time, either built
// programmatically or generated from a named spec with a seed
// (see ParseSpec). Compile turns it into an immutable Plan: per-resource
// step functions over virtual time. Because every query is a pure function
// of (resource, virtual time), fault state needs no locks, no injector
// goroutine, and no host-time coupling — two runs with the same seed and
// schedule observe byte-identical fault state at every virtual instant,
// regardless of host scheduling.
package fault

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"charm/internal/rng"
	"charm/internal/topology"
)

// ErrThermalConflict reports a schedule that combines static
// thermal-throttle events with the closed-loop power plane: the governor
// owns the thermal timeline once armed (its overlay steps replace the
// static ones), so a spec declaring both is almost certainly a mistake.
// Returned wrapped; test with errors.Is.
var ErrThermalConflict = errors.New("static thermal-throttle events conflict with the closed-loop power plane")

// Kind classifies a fault event.
type Kind uint8

const (
	// CoreOffline removes one core from service for the window.
	CoreOffline Kind = iota
	// ChipletOffline removes every core of one chiplet for the window.
	ChipletOffline
	// LinkBrownout divides one chiplet fabric link's bandwidth by Factor
	// (and multiplies explicit message latency by the same factor).
	LinkBrownout
	// MemBrownout divides one NUMA node's memory-channel bandwidth by
	// Factor.
	MemBrownout
	// ThermalThrottle multiplies compute and access costs of every core on
	// one chiplet by Factor (frequency reduction under a thermal cap).
	ThermalThrottle

	numKinds
)

var kindNames = [numKinds]string{
	"core-offline", "chiplet-offline", "link-brownout",
	"mem-brownout", "thermal-throttle",
}

// String names the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Forever marks a window that never closes (To field).
const Forever = int64(math.MaxInt64)

// Event is one fault window [From, To) in virtual nanoseconds. Unit
// identifies the affected resource under Kind's namespace (core ID, chiplet
// ID, or NUMA node ID). Factor is the degradation multiplier for
// brownout/throttle kinds (>= 1; ignored for offline kinds).
type Event struct {
	Kind   Kind
	Unit   int
	From   int64
	To     int64
	Factor float64
}

// PowerKnobs carries the closed-loop power-plane parameters a "power"
// spec requests. The fault package only transports them (the plane itself
// lives in internal/power, which resolves zero fields to defaults): tdp is
// the per-chiplet power clamp in watts, rc the thermal time constant R·C
// in virtual ns, and setpoint the soft-throttle temperature in °C.
type PowerKnobs struct {
	TDPWatts  float64
	TauNS     int64
	SetpointC float64
}

// Schedule is an ordered set of fault events, reproducible from its seed.
type Schedule struct {
	// Name labels the schedule in reports ("none", "chiplet-flap", ...).
	Name string
	// Seed reproduces any randomized victim choices.
	Seed uint64
	// Events are the fault windows; order is irrelevant (Compile sorts).
	Events []Event
	// Power, when non-nil, asks the runtime to arm the closed-loop
	// thermal/energy plane with these knobs (set by the "power" spec).
	// Compile rejects schedules that combine it with static
	// ThermalThrottle events (ErrThermalConflict).
	Power *PowerKnobs
}

// New returns an empty named schedule.
func New(name string, seed uint64) *Schedule {
	return &Schedule{Name: name, Seed: seed}
}

func (s *Schedule) add(e Event) *Schedule {
	s.Events = append(s.Events, e)
	return s
}

// OfflineCore removes core c during [from, to).
func (s *Schedule) OfflineCore(c topology.CoreID, from, to int64) *Schedule {
	return s.add(Event{Kind: CoreOffline, Unit: int(c), From: from, To: to})
}

// OfflineChiplet removes every core of chiplet ch during [from, to).
func (s *Schedule) OfflineChiplet(ch topology.ChipletID, from, to int64) *Schedule {
	return s.add(Event{Kind: ChipletOffline, Unit: int(ch), From: from, To: to})
}

// LinkBrownout degrades chiplet ch's fabric link by factor during [from, to).
func (s *Schedule) LinkBrownout(ch topology.ChipletID, from, to int64, factor float64) *Schedule {
	return s.add(Event{Kind: LinkBrownout, Unit: int(ch), From: from, To: to, Factor: factor})
}

// MemBrownout degrades NUMA node n's memory bandwidth by factor during [from, to).
func (s *Schedule) MemBrownout(n topology.NodeID, from, to int64, factor float64) *Schedule {
	return s.add(Event{Kind: MemBrownout, Unit: int(n), From: from, To: to, Factor: factor})
}

// ThermalThrottle slows chiplet ch's cores by factor during [from, to).
func (s *Schedule) ThermalThrottle(ch topology.ChipletID, from, to int64, factor float64) *Schedule {
	return s.add(Event{Kind: ThermalThrottle, Unit: int(ch), From: from, To: to, Factor: factor})
}

// specOpts are the "key=value" parameters of a named spec.
type specOpts struct {
	seed    uint64
	period  int64
	horizon int64
	factor  float64
	count   int
}

// ParseSpec builds a schedule from a named spec string for the given
// topology. The grammar is
//
//	name[:key=value[,key=value...]]
//
// with names none, core-flap, chiplet-flap, brownout, mem-brownout,
// thermal, chaos, power and keys seed (uint), period (virtual ns), horizon
// (virtual ns), factor (float >= 1), count (victims per window). Victims
// are chosen by a seeded SplitMix64 stream, so the same spec always yields
// the same schedule. Flap schedules leave at least one chiplet online at
// all times by construction (one victim window per period).
//
// The "power" name is the closed-loop scenario: it emits no static events
// and instead sets Schedule.Power, asking the runtime to arm the thermal/
// energy governor. Its keys are tdp (watts per chiplet), rc (thermal time
// constant R·C in virtual ns) and setpoint (soft-throttle °C); the generic
// keys are invalid for it, and combining it with static thermal events
// fails Compile with ErrThermalConflict.
func ParseSpec(spec string, topo *topology.Topology) (*Schedule, error) {
	name := spec
	rest := ""
	if i := indexByte(spec, ':'); i >= 0 {
		name, rest = spec[:i], spec[i+1:]
	}
	if name == "power" {
		// The closed-loop scenario has its own key set (tdp, rc, setpoint)
		// and generates no static events: it arms the runtime governor.
		s := New(name, 1)
		knobs, err := parsePowerOpts(rest)
		if err != nil {
			return nil, fmt.Errorf("fault: spec %q: %w", spec, err)
		}
		s.Power = knobs
		return s, nil
	}
	opts := specOpts{
		seed:    1,
		period:  1_000_000,   // 1 ms virtual between fault windows
		horizon: 256_000_000, // generate windows for the first 256 ms
		factor:  0,           // per-name default
		count:   1,
	}
	if rest != "" {
		if err := parseOpts(rest, &opts); err != nil {
			return nil, fmt.Errorf("fault: spec %q: %w", spec, err)
		}
	}
	if opts.period <= 0 || opts.horizon <= 0 {
		return nil, fmt.Errorf("fault: spec %q: period and horizon must be positive", spec)
	}
	if opts.factor != 0 && (opts.factor < 1 || math.IsNaN(opts.factor) || math.IsInf(opts.factor, 0)) {
		return nil, fmt.Errorf("fault: spec %q: factor must be a finite value >= 1", spec)
	}
	s := New(name, opts.seed)
	gen := func(stream uint64, emit func(st *uint64, from, to int64)) {
		st := rng.Seed(opts.seed, stream)
		for t := int64(0); t+opts.period <= opts.horizon; t += opts.period {
			// The fault occupies the middle half of each period, so the
			// machine alternates between degraded and healthy windows.
			emit(&st, t+opts.period/4, t+3*opts.period/4)
		}
	}
	factor := func(def float64) float64 {
		if opts.factor != 0 {
			return opts.factor
		}
		return def
	}
	switch name {
	case "none":
	case "core-flap":
		gen(1, func(st *uint64, from, to int64) {
			for i := 0; i < opts.count; i++ {
				s.OfflineCore(topology.CoreID(rng.Intn(st, topo.NumCores())), from, to)
			}
		})
	case "chiplet-flap":
		n := topo.NumChiplets()
		count := opts.count
		if count >= n {
			count = n - 1 // never offline the whole machine
		}
		gen(2, func(st *uint64, from, to int64) {
			for i := 0; i < count; i++ {
				s.OfflineChiplet(topology.ChipletID(rng.Intn(st, n)), from, to)
			}
		})
	case "brownout":
		gen(3, func(st *uint64, from, to int64) {
			s.LinkBrownout(topology.ChipletID(rng.Intn(st, topo.NumChiplets())), from, to, factor(8))
		})
	case "mem-brownout":
		gen(4, func(st *uint64, from, to int64) {
			s.MemBrownout(topology.NodeID(rng.Intn(st, topo.NumNodes())), from, to, factor(4))
		})
	case "thermal":
		gen(5, func(st *uint64, from, to int64) {
			s.ThermalThrottle(topology.ChipletID(rng.Intn(st, topo.NumChiplets())), from, to, factor(3))
		})
	case "chaos":
		n := topo.NumChiplets()
		gen(2, func(st *uint64, from, to int64) {
			if n > 1 {
				s.OfflineChiplet(topology.ChipletID(rng.Intn(st, n)), from, to)
			}
		})
		gen(3, func(st *uint64, from, to int64) {
			s.LinkBrownout(topology.ChipletID(rng.Intn(st, n)), from, to, factor(8))
		})
		gen(4, func(st *uint64, from, to int64) {
			s.MemBrownout(topology.NodeID(rng.Intn(st, topo.NumNodes())), from, to, 4)
		})
		gen(5, func(st *uint64, from, to int64) {
			s.ThermalThrottle(topology.ChipletID(rng.Intn(st, n)), from, to, 3)
		})
	default:
		return nil, fmt.Errorf("fault: unknown schedule %q (have none, core-flap, chiplet-flap, brownout, mem-brownout, thermal, chaos, power)", name)
	}
	return s, nil
}

// parsePowerOpts parses the "power" scenario's key set. Zero-valued knobs
// mean "use the plane's default"; explicit values must be finite and
// positive.
func parsePowerOpts(s string) (*PowerKnobs, error) {
	k := &PowerKnobs{}
	seen := make(map[string]bool, 3)
	for len(s) > 0 {
		kv := s
		if i := indexByte(s, ','); i >= 0 {
			kv, s = s[:i], s[i+1:]
		} else {
			s = ""
		}
		i := indexByte(kv, '=')
		if i < 0 {
			return nil, fmt.Errorf("malformed option %q (want key=value)", kv)
		}
		key, val := kv[:i], kv[i+1:]
		if seen[key] {
			return nil, fmt.Errorf("duplicate option %q", key)
		}
		seen[key] = true
		var err error
		switch key {
		case "tdp":
			_, err = fmt.Sscanf(val, "%g", &k.TDPWatts)
			if err == nil && (k.TDPWatts <= 0 || math.IsNaN(k.TDPWatts) || math.IsInf(k.TDPWatts, 0)) {
				err = fmt.Errorf("must be a finite value > 0, got %v", k.TDPWatts)
			}
		case "rc":
			_, err = fmt.Sscanf(val, "%d", &k.TauNS)
			if err == nil && k.TauNS <= 0 {
				err = fmt.Errorf("must be positive virtual ns, got %d", k.TauNS)
			}
		case "setpoint":
			_, err = fmt.Sscanf(val, "%g", &k.SetpointC)
			if err == nil && (k.SetpointC <= 0 || math.IsNaN(k.SetpointC) || math.IsInf(k.SetpointC, 0)) {
				err = fmt.Errorf("must be a finite value > 0, got %v", k.SetpointC)
			}
		default:
			return nil, fmt.Errorf("unknown option %q (power takes tdp, rc, setpoint)", key)
		}
		if err != nil {
			return nil, fmt.Errorf("option %q: %v", kv, err)
		}
	}
	return k, nil
}

func indexByte(s string, b byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == b {
			return i
		}
	}
	return -1
}

func parseOpts(s string, o *specOpts) error {
	seen := make(map[string]bool, 4)
	for len(s) > 0 {
		kv := s
		if i := indexByte(s, ','); i >= 0 {
			kv, s = s[:i], s[i+1:]
		} else {
			s = ""
		}
		i := indexByte(kv, '=')
		if i < 0 {
			return fmt.Errorf("malformed option %q (want key=value)", kv)
		}
		key, val := kv[:i], kv[i+1:]
		if seen[key] {
			// A repeated key is almost always a typo'd spec; refusing beats
			// silently letting the last occurrence win.
			return fmt.Errorf("duplicate option %q", key)
		}
		seen[key] = true
		var err error
		switch key {
		case "seed":
			_, err = fmt.Sscanf(val, "%d", &o.seed)
		case "period":
			_, err = fmt.Sscanf(val, "%d", &o.period)
		case "horizon":
			_, err = fmt.Sscanf(val, "%d", &o.horizon)
		case "factor":
			_, err = fmt.Sscanf(val, "%g", &o.factor)
		case "count":
			_, err = fmt.Sscanf(val, "%d", &o.count)
		default:
			return fmt.Errorf("unknown option %q", key)
		}
		if err != nil {
			return fmt.Errorf("option %q: %v", kv, err)
		}
	}
	return nil
}

// sortEvents orders events for deterministic compilation and reporting.
func sortEvents(evs []Event) {
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].From != evs[j].From {
			return evs[i].From < evs[j].From
		}
		if evs[i].Kind != evs[j].Kind {
			return evs[i].Kind < evs[j].Kind
		}
		return evs[i].Unit < evs[j].Unit
	})
}
