// Package power closes the loop between simulated activity and thermal
// state: it converts the PMU events the machine already counts into
// per-chiplet joules through a per-chiplet-type energy table, advances a
// discrete thermal RC model per chiplet in virtual time (power drives the
// temperature toward P·R + T_amb with time constant R·C), and runs a
// tiered governor that feeds throttle state back into the fault plan's
// dynamic overlay — soft throttle, hard throttle, and an emergency
// chiplet park. The breakers, the placement view's fused health and the
// Ctx cost path then consume the governor's output through the exact same
// integer milli-factor queries they already use for static faults.
//
// Everything runs in virtual time on integer arithmetic, so Deterministic
// replays stay byte-identical with the plane enabled. The unit identity
// that keeps the ledger integral: 1 mW == 1 pJ/ns, so E_pJ = P_mW · Δt_ns
// with no scaling constants.
package power

import (
	"fmt"
	"math"

	"charm/internal/pmu"
)

// Model is one chiplet type's energy/thermal coefficients — the
// "per-chiplet-type energy table" of a heterogeneous package. Config.Models
// assigns models to chiplets round-robin, so a two-entry slice alternates
// types across the die.
type Model struct {
	// Name labels the chiplet type in stats output ("" is fine).
	Name string
	// IdleWatts is the leakage/uncore floor charged whether or not the
	// chiplet does work.
	IdleWatts float64
	// EnergyPJ[e] is the dynamic energy in picojoules charged per unit of
	// PMU event e (per fill, per byte, per virtual ns of Ctx.Compute, ...).
	EnergyPJ [pmu.NumEvents]float64
	// RThermal is the thermal resistance junction→ambient in °C/W: at
	// steady state the chiplet sits RThermal degrees above ambient per
	// watt dissipated.
	RThermal float64
	// CThermal is the thermal capacitance in J/°C; the RC time constant
	// RThermal·CThermal sets how fast temperature chases power.
	CThermal float64
}

// DefaultModel returns a generic compute-chiplet model: ~2 W per busy
// core, cache fills costing tens to thousands of pJ by distance, and a
// 10 ms thermal time constant (5 °C/W × 2 mJ/°C).
func DefaultModel() Model {
	m := Model{
		Name:      "generic",
		IdleWatts: 0.5,
		RThermal:  5.0,
		CThermal:  0.002,
	}
	m.EnergyPJ[pmu.FillL2] = 20
	m.EnergyPJ[pmu.FillL3Local] = 100
	m.EnergyPJ[pmu.FillL3RemoteNear] = 250
	m.EnergyPJ[pmu.FillL3RemoteFar] = 400
	m.EnergyPJ[pmu.FillL3RemoteSocket] = 700
	m.EnergyPJ[pmu.FillDRAMLocal] = 2500
	m.EnergyPJ[pmu.FillDRAMRemote] = 4000
	m.EnergyPJ[pmu.TaskRun] = 1500
	m.EnergyPJ[pmu.TaskSteal] = 3000
	m.EnergyPJ[pmu.StealRemoteChiplet] = 5000
	m.EnergyPJ[pmu.Migration] = 20000
	m.EnergyPJ[pmu.CtxSwitch] = 8000
	m.EnergyPJ[pmu.BytesRead] = 6
	m.EnergyPJ[pmu.BytesWritten] = 9
	m.EnergyPJ[pmu.ComputeNS] = 2000
	return m
}

// Config parameterizes the closed-loop plane. The zero value of any field
// means "use the default"; Validate (or plane construction) fills defaults
// and rejects non-finite or out-of-order knobs.
type Config struct {
	// TDPWatts clamps the power fed into the RC model per chiplet: the
	// ledger accumulates true joules, but temperature cannot be driven by
	// more than the package's delivery limit. Default 10.
	TDPWatts float64
	// SoftC, HardC and ParkC are the governor's tiered setpoints in °C:
	// crossing SoftC makes compute 1.5× as costly, HardC 3×, and ParkC
	// parks the chiplet's cores for ParkNS. Must be strictly increasing
	// and above the 45 °C ambient. Defaults 85 / 95 / 105.
	SoftC, HardC, ParkC float64
	// TickNS is the governor's virtual-time evaluation period and the
	// grid the fault overlay caps cached thermal segments at. Default
	// 50_000 (50 µs).
	TickNS int64
	// ParkNS is how long an emergency park keeps a chiplet's cores
	// offline. Default 1_000_000 (1 ms).
	ParkNS int64
	// Models maps chiplet index → energy model, cycled when shorter than
	// the chiplet count (Models[ch % len]). Empty means every chiplet uses
	// DefaultModel().
	Models []Model
}

// Defaults for Config's zero-valued fields.
const (
	DefaultTDPWatts = 10.0
	DefaultSoftC    = 85.0
	DefaultHardC    = 95.0
	DefaultParkC    = 105.0
	DefaultTickNS   = 50_000
	DefaultParkNS   = 1_000_000
)

// The governor's fixed tuning.
const (
	// ambientC is the heatsink/ambient temperature chiplets relax toward
	// when idle; ambientMilliC is the same in milli-°C.
	ambientC      = 45.0
	ambientMilliC = ambientC * 1000
	// softTierMilli and hardTierMilli are the compute-cost multipliers
	// injected at the soft and hard tiers, in milli-units (1500 = 1.5×).
	softTierMilli = 1500
	hardTierMilli = 3000
	// hysteresisMilliC is how far below a setpoint (in milli-°C) the
	// temperature must fall before the governor releases that tier,
	// preventing limit cycling at the threshold.
	hysteresisMilliC = 2_000
)

// tierFactor is the milli cost factor per governor tier: none, soft, hard,
// park (parked cores are offline; survivors pay the hard cost).
var tierFactor = [4]int64{1000, softTierMilli, hardTierMilli, hardTierMilli}

func bad(f float64) bool { return math.IsNaN(f) || math.IsInf(f, 0) }

// withDefaults returns a copy of c with zero fields defaulted and every
// knob validated.
func (c Config) withDefaults() (Config, error) {
	def := func(v *float64, d float64) {
		if *v == 0 {
			*v = d
		}
	}
	def(&c.TDPWatts, DefaultTDPWatts)
	def(&c.SoftC, DefaultSoftC)
	def(&c.HardC, DefaultHardC)
	def(&c.ParkC, DefaultParkC)
	if c.TickNS == 0 {
		c.TickNS = DefaultTickNS
	}
	if c.ParkNS == 0 {
		c.ParkNS = DefaultParkNS
	}

	switch {
	case bad(c.TDPWatts) || c.TDPWatts <= 0:
		return c, fmt.Errorf("power: TDPWatts must be a finite value > 0, got %v", c.TDPWatts)
	case bad(c.SoftC) || c.SoftC <= 0:
		return c, fmt.Errorf("power: SoftC setpoint must be a finite value > 0, got %v", c.SoftC)
	case bad(c.HardC) || c.HardC <= 0:
		return c, fmt.Errorf("power: HardC setpoint must be a finite value > 0, got %v", c.HardC)
	case bad(c.ParkC) || c.ParkC <= 0:
		return c, fmt.Errorf("power: ParkC setpoint must be a finite value > 0, got %v", c.ParkC)
	case !(c.SoftC < c.HardC && c.HardC < c.ParkC):
		return c, fmt.Errorf("power: setpoints must be ordered SoftC < HardC < ParkC, got %v / %v / %v",
			c.SoftC, c.HardC, c.ParkC)
	case c.SoftC <= ambientC:
		return c, fmt.Errorf("power: SoftC %v must be above the %v °C ambient", c.SoftC, ambientC)
	case c.TickNS < 0:
		return c, fmt.Errorf("power: TickNS must be positive, got %d", c.TickNS)
	case c.ParkNS < 0:
		return c, fmt.Errorf("power: ParkNS must be positive, got %d", c.ParkNS)
	}
	for i, m := range c.Models {
		switch {
		case bad(m.IdleWatts) || m.IdleWatts < 0:
			return c, fmt.Errorf("power: model %d (%s): IdleWatts must be finite and >= 0, got %v", i, m.Name, m.IdleWatts)
		case bad(m.RThermal) || m.RThermal <= 0:
			return c, fmt.Errorf("power: model %d (%s): RThermal (RC thermal resistance) must be a finite value > 0, got %v", i, m.Name, m.RThermal)
		case bad(m.CThermal) || m.CThermal <= 0:
			return c, fmt.Errorf("power: model %d (%s): CThermal (RC thermal capacitance) must be a finite value > 0, got %v", i, m.Name, m.CThermal)
		}
		for e, pj := range m.EnergyPJ {
			if bad(pj) || pj < 0 {
				return c, fmt.Errorf("power: model %d (%s): EnergyPJ[%s] must be finite and >= 0, got %v",
					i, m.Name, pmu.Event(e), pj)
			}
		}
	}
	return c, nil
}

// Validate checks the configuration the way plane construction will,
// without building anything. It is what charm.Config validation delegates
// to for the power knobs.
func (c Config) Validate() error {
	_, err := c.withDefaults()
	return err
}
