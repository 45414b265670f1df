package topology

import "fmt"

// ChipletKind classifies the compute character of a chiplet in a
// heterogeneous package: big out-of-order cores, small efficiency cores,
// or a domain accelerator die (the analog of uPimulator's RRAM CIM
// chiplets). The zero value KindAny means "no preference" and is what
// jobs use to opt out of capability matching; chiplets themselves are
// always one of the three concrete kinds.
type ChipletKind uint8

const (
	// KindAny is a wildcard used by placement preferences, never by a
	// chiplet itself.
	KindAny ChipletKind = iota
	// KindFast is a full-width out-of-order core chiplet (the baseline:
	// every pre-existing topology is all-fast).
	KindFast
	// KindEfficient is a small-core chiplet: slower compute and a
	// slightly slower uncore, but roughly half the energy per event.
	KindEfficient
	// KindAccel is an accelerator chiplet: far faster at raw compute,
	// but with a weaker general-purpose memory path and a higher energy
	// price per event.
	KindAccel
)

// String returns the canonical spec-grammar name of the kind.
func (k ChipletKind) String() string {
	switch k {
	case KindAny:
		return "any"
	case KindFast:
		return "fast"
	case KindEfficient:
		return "eff"
	case KindAccel:
		return "accel"
	default:
		return fmt.Sprintf("ChipletKind(%d)", uint8(k))
	}
}

// KindTraits are the cost multipliers of one chiplet kind, in milli-units
// against the topology's baseline CostModel (1000 = nominal). All charging
// stays integer: cost' = cost * Milli / 1000, so an all-fast machine is
// arithmetically untouched.
type KindTraits struct {
	// ComputeMilli scales Ctx.Compute busy-time (400 = 2.5x faster).
	ComputeMilli int64
	// AccessMilli scales the cache/DRAM access service times charged by
	// the simulator (it models the uncore/front-end clock ratio).
	AccessMilli int64
	// EnergyMilli scales the power plane's idle watts and per-event
	// energy prices.
	EnergyMilli int64
}

// Traits returns the cost multipliers of the kind. KindAny aliases
// KindFast so that "no declared kinds" and "all fast" are the same machine.
func (k ChipletKind) Traits() KindTraits {
	switch k {
	case KindEfficient:
		// Small cores: ~1.7x slower compute, modestly slower uncore,
		// half the energy per event.
		return KindTraits{ComputeMilli: 1700, AccessMilli: 1150, EnergyMilli: 500}
	case KindAccel:
		// Accelerator die: 2.5x faster at raw compute, but a weaker
		// general-purpose memory path and a higher energy price.
		return KindTraits{ComputeMilli: 400, AccessMilli: 1400, EnergyMilli: 1300}
	default:
		return KindTraits{ComputeMilli: 1000, AccessMilli: 1000, EnergyMilli: 1000}
	}
}

// KindOf returns the kind of chiplet ch. Topologies with no Kinds slice
// are homogeneous all-fast machines.
func (t *Topology) KindOf(ch ChipletID) ChipletKind {
	if len(t.Kinds) == 0 {
		return KindFast
	}
	return t.Kinds[ch]
}

// Heterogeneous reports whether any chiplet deviates from KindFast.
func (t *Topology) Heterogeneous() bool {
	for _, k := range t.Kinds {
		if k != KindFast && k != KindAny {
			return true
		}
	}
	return false
}

// ComputeMilli returns the compute-speed multiplier of chiplet ch.
func (t *Topology) ComputeMilli(ch ChipletID) int64 {
	return t.KindOf(ch).Traits().ComputeMilli
}

// AccessMilli returns the access-cost multiplier of chiplet ch.
func (t *Topology) AccessMilli(ch ChipletID) int64 {
	return t.KindOf(ch).Traits().AccessMilli
}

// EnergyMilli returns the energy-price multiplier of chiplet ch.
func (t *Topology) EnergyMilli(ch ChipletID) int64 {
	return t.KindOf(ch).Traits().EnergyMilli
}
