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
	"slices"
	"sort"
	"strconv"
	"strings"

	"charm/internal/rng"
	"charm/internal/topology"
)

// ErrThermalConflict reports a plan with static thermal-throttle events
// handed to the closed-loop power plane: the governor owns the thermal
// timeline once armed (its overlay steps replace the static ones), so a
// configuration declaring both is almost certainly a mistake. The plane's
// constructor and the runtime's Init return it wrapped; test with
// errors.Is.
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

// Schedule is an ordered set of fault events, reproducible from its seed.
type Schedule struct {
	// Name labels the schedule in reports ("none", "chiplet-flap", ...).
	Name string
	// Seed reproduces any randomized victim choices.
	Seed uint64
	// Events are the fault windows; order is irrelevant (Compile sorts).
	Events []Event
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

// specNames are the schedules ParseSpec generates.
var specNames = []string{"none", "core-flap", "chiplet-flap", "brownout", "mem-brownout", "thermal", "chaos"}

// MaxSpecEvents caps the events one spec may generate. The default
// horizon holds 256 windows, so every name at its defaults stays at or
// under 1024 events (chaos, four per window); the cap only refuses specs
// whose period, horizon and count multiply out to a schedule no run could
// use.
const MaxSpecEvents = 1 << 16

// ParseSpec builds a schedule from a named spec string for the given
// topology. The grammar is
//
//	name[:key=value[,key=value...]]
//
// with names none, core-flap, chiplet-flap, brownout, mem-brownout,
// thermal, chaos and keys seed (uint), period (virtual ns), horizon
// (virtual ns), factor (float >= 1), count (victims per window, >= 1).
// Each period from 0 to horizon is one window; a spec that would generate
// more than MaxSpecEvents events is refused. Victims are chosen by a
// seeded SplitMix64 stream, so the same spec always yields the same
// schedule. Flap schedules leave at least one chiplet online at all times
// by construction (one victim window per period). The closed-loop power
// plane is not a fault schedule: configure it with the runtime's Power
// config.
func ParseSpec(spec string, topo *topology.Topology) (*Schedule, error) {
	name, rest, _ := strings.Cut(spec, ":")
	if !slices.Contains(specNames, name) {
		return nil, fmt.Errorf("fault: spec %q: unknown schedule %q (have %s)", spec, name, strings.Join(specNames, ", "))
	}
	opts := specOpts{
		seed:    1,
		period:  1_000_000,   // 1 ms virtual between fault windows
		horizon: 256_000_000, // generate windows for the first 256 ms
		factor:  0,           // per-name default
		count:   1,
	}
	if err := parseOpts(rest, &opts); err != nil {
		return nil, fmt.Errorf("fault: spec %q: %w", spec, err)
	}
	if opts.period <= 0 || opts.horizon <= 0 {
		return nil, fmt.Errorf("fault: spec %q: period and horizon must be positive", spec)
	}
	if opts.factor != 0 && (opts.factor < 1 || math.IsNaN(opts.factor) || math.IsInf(opts.factor, 0)) {
		return nil, fmt.Errorf("fault: spec %q: factor must be a finite value >= 1", spec)
	}
	if opts.count < 1 {
		return nil, fmt.Errorf("fault: spec %q: count must be at least 1", spec)
	}
	// none, and a chiplet flap on a one-chiplet machine, emit nothing in
	// a window, so they get no windows however many the spec asks for.
	var windows int64
	if per := eventsPerWindow(name, opts.count, topo); per > 0 {
		windows = opts.horizon / opts.period
		if windows > MaxSpecEvents/per {
			return nil, fmt.Errorf("fault: spec %q: %d windows of %d events exceed the %d-event cap",
				spec, windows, per, MaxSpecEvents)
		}
	}
	s := New(name, opts.seed)
	// The fault occupies the middle half of each period, so the machine
	// alternates between degraded and healthy windows. Window k starts at
	// k·period <= horizon-period, and 3·period/4 is taken without forming
	// 3·period, so no bound overflows.
	q, r := opts.period/4, opts.period%4
	lo, hi := q, 3*q+3*r/4
	gen := func(stream uint64, emit func(st *uint64, from, to int64)) {
		st := rng.Seed(opts.seed, stream)
		for k := int64(0); k < windows; k++ {
			t := k * opts.period
			emit(&st, t+lo, t+hi)
		}
	}
	factor := func(def float64) float64 {
		if opts.factor != 0 {
			return opts.factor
		}
		return def
	}
	switch name {
	case "core-flap":
		gen(1, func(st *uint64, from, to int64) {
			for i := 0; i < opts.count; i++ {
				s.OfflineCore(topology.CoreID(rng.Intn(st, topo.NumCores())), from, to)
			}
		})
	case "chiplet-flap":
		n := topo.NumChiplets()
		count := min(opts.count, n-1) // never offline the whole machine
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
	}
	return s, nil
}

// eventsPerWindow is how many events one window of the named schedule
// generates.
func eventsPerWindow(name string, count int, topo *topology.Topology) int64 {
	switch name {
	case "core-flap":
		return int64(count)
	case "chiplet-flap":
		return int64(min(count, topo.NumChiplets()-1))
	case "brownout", "mem-brownout", "thermal":
		return 1
	case "chaos":
		if topo.NumChiplets() > 1 {
			return 4
		}
		return 3
	}
	return 0
}

// parseOpts reads the comma-separated key=value list s into o. Values must
// be plain decimal numbers: a unit suffix ("2ms") is refused, not dropped.
func parseOpts(s string, o *specOpts) error {
	seen := make(map[string]bool, 4)
	for s != "" {
		var kv string
		kv, s, _ = strings.Cut(s, ",")
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return fmt.Errorf("malformed option %q (want key=value)", kv)
		}
		if seen[key] {
			// A repeated key is almost always a typo'd spec; refusing beats
			// silently letting the last occurrence win.
			return fmt.Errorf("duplicate option %q", key)
		}
		seen[key] = true
		var err error
		switch key {
		case "seed":
			o.seed, err = strconv.ParseUint(val, 10, 64)
		case "period":
			o.period, err = strconv.ParseInt(val, 10, 64)
		case "horizon":
			o.horizon, err = strconv.ParseInt(val, 10, 64)
		case "factor":
			o.factor, err = strconv.ParseFloat(val, 64)
		case "count":
			o.count, err = strconv.Atoi(val)
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
