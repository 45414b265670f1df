package power

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"

	"charm/internal/fault"
	"charm/internal/obs"
	"charm/internal/pmu"
	"charm/internal/topology"
)

// Plane is the closed-loop thermal/energy governor. One instance is owned
// by the runtime; workers call MaybeTick as their virtual clocks cross the
// governor grid, and the plane feeds throttle decisions back through the
// fault plan's dynamic overlay.
//
// Concurrency contract: MaybeTick is safe from any worker — a lock-free
// nextAt gate keeps the common case (no boundary crossed) to one atomic
// load, and claims serialize under a mutex. Readers of the governor state
// (temperatures, watts, energy, stats) take the same mutex. It is a leaf
// lock: while it is held the plane calls only the overlay, the plan and
// the PMU, which take no lock. Obs gauges read one value, placement and
// the admission plane copy into buffers they own, and Stats builds an
// immutable Snapshot only when one is asked for, at most one per tick.
type Plane struct {
	topo *topology.Topology
	pm   *pmu.PMU
	plan *fault.Plan
	ov   *fault.Overlay
	cfg  Config

	// Per-chiplet coefficients resolved to integers: idle power in mW,
	// dynamic energy in pJ per PMU event unit, thermal resistance in
	// milli-°C per W, and the RC time constant in virtual ns.
	idleMilliW []int64
	pjTable    [][pmu.NumEvents]int64
	rMilli     []int64
	tauNS      []int64

	tdpMilliW int64
	softMilli int64
	hardMilli int64
	parkMilli int64
	tick      int64
	parkNS    int64

	// nextAt is the lock-free gate: the first grid boundary no claim has
	// processed yet. MaybeTick(now) returns immediately while now < nextAt.
	nextAt atomic.Int64

	mu        sync.Mutex
	done      int64   // virtual time integrated up to (grid-aligned)
	lastCumPJ []int64 // per chiplet, cumulative dynamic pJ at `done`
	tempMilli []int64 // per chiplet junction temperature, milli-°C
	wattsMill []int64 // per chiplet power over the last window, mW
	energyPJ  []int64 // per chiplet lifetime energy ledger (unclamped)
	tier      []int   // per chiplet current governor tier (0..3)
	parkUntil []int64 // per chiplet end of the last issued park span

	soft, hard, park []int64 // per chiplet tier-entry event counts
	maxTempMilli     int64

	snap *Snapshot // the state at `done`, built by Stats; nil until asked
}

// Snapshot is an immutable copy of the governor state at one tick. Slices are
// indexed by chiplet and must not be mutated by callers.
type Snapshot struct {
	// At is the virtual time the governor last integrated up to.
	At int64
	// TempMilliC is the junction temperature per chiplet in milli-°C.
	TempMilliC []int64
	// WattsMilli is each chiplet's power over the last governor window, mW.
	WattsMilli []int64
	// EnergyPJ is each chiplet's lifetime energy ledger in picojoules
	// (true dissipation: dynamic + idle, not TDP-clamped).
	EnergyPJ []int64
	// SoftEvents / HardEvents / ParkEvents count tier entries per chiplet.
	SoftEvents, HardEvents, ParkEvents []int64
	// MaxTempMilliC is the hottest junction temperature any chiplet
	// reached, in milli-°C.
	MaxTempMilliC int64
}

// NewPlane builds the closed-loop plane over plan, arming plan's dynamic
// overlay. plan must be the compiled plan the runtime and machine will
// consume (an empty compiled plan is fine) and must not carry static
// thermal-throttle events — the governor owns the thermal timeline.
func NewPlane(topo *topology.Topology, pm *pmu.PMU, plan *fault.Plan, cfg Config) (*Plane, error) {
	var err error
	if cfg, err = cfg.withDefaults(); err != nil {
		return nil, err
	}
	if topo == nil || pm == nil {
		return nil, errors.New("power: NewPlane needs a topology and a PMU")
	}
	if plan == nil {
		return nil, errors.New("power: NewPlane needs a compiled fault plan to host the overlay (an empty one is fine)")
	}
	for _, e := range plan.Events() {
		if e.Kind == fault.ThermalThrottle {
			return nil, fmt.Errorf("power: plan %q: %w", plan.Name(), fault.ErrThermalConflict)
		}
	}
	ov, err := fault.NewOverlay(topo, cfg.TickNS)
	if err != nil {
		return nil, err
	}
	plan.AttachOverlay(ov)

	nch := topo.NumChiplets()
	p := &Plane{
		topo:       topo,
		pm:         pm,
		plan:       plan,
		ov:         ov,
		cfg:        cfg,
		idleMilliW: make([]int64, nch),
		pjTable:    make([][pmu.NumEvents]int64, nch),
		rMilli:     make([]int64, nch),
		tauNS:      make([]int64, nch),
		tdpMilliW:  int64(cfg.TDPWatts * 1000),
		softMilli:  int64(cfg.SoftC * 1000),
		hardMilli:  int64(cfg.HardC * 1000),
		parkMilli:  int64(cfg.ParkC * 1000),
		tick:       cfg.TickNS,
		parkNS:     cfg.ParkNS,
		lastCumPJ:  make([]int64, nch),
		tempMilli:  make([]int64, nch),
		wattsMill:  make([]int64, nch),
		energyPJ:   make([]int64, nch),
		tier:       make([]int, nch),
		parkUntil:  make([]int64, nch),
		soft:       make([]int64, nch),
		hard:       make([]int64, nch),
		park:       make([]int64, nch),
	}
	models := cfg.Models
	if len(models) == 0 {
		models = []Model{DefaultModel()}
	}
	for ch := 0; ch < nch; ch++ {
		m := models[ch%len(models)]
		// Heterogeneous chiplet kinds scale the energy price of every
		// event: efficiency dies burn half, accelerator dies a premium.
		// em is exactly 1000 on homogeneous machines, so the float
		// products below are multiplications by 1.0 — bit-identical to
		// the unscaled integerization.
		em := float64(topo.EnergyMilli(topology.ChipletID(ch))) / 1000
		p.idleMilliW[ch] = int64(m.IdleWatts * em * 1000)
		for e := 0; e < pmu.NumEvents; e++ {
			p.pjTable[ch][e] = int64(m.EnergyPJ[e]*em + 0.5)
		}
		p.rMilli[ch] = int64(m.RThermal * 1000)
		tau := int64(m.RThermal * m.CThermal * 1e9)
		if tau < 1 {
			tau = 1
		}
		p.tauNS[ch] = tau
		p.tempMilli[ch] = ambientMilliC
	}
	p.maxTempMilli = ambientMilliC
	p.nextAt.Store(p.tick)
	return p, nil
}

// Tick returns the governor's virtual-time evaluation period.
func (p *Plane) Tick() int64 { return p.tick }

// SoftMilliC returns the soft-throttle setpoint in milli-°C (the
// temperature budget the thermal-aware placement scorer works against).
func (p *Plane) SoftMilliC() int64 { return p.softMilli }

// NextAt returns the first governor grid boundary no tick has processed:
// MaybeTick(now) does nothing while now < NextAt().
func (p *Plane) NextAt() int64 { return p.nextAt.Load() }

// MaybeTick advances the governor if the virtual clock has crossed the
// next grid boundary. The common case — it has not — is one atomic load.
// Callers invoke it before querying thermal state so throttle decisions
// for windows ending at or before now are already in the overlay.
func (p *Plane) MaybeTick(now int64) {
	if now < p.nextAt.Load() {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if now < p.nextAt.Load() { // another claim advanced the gate first
		return
	}
	k := (now - p.done) / p.tick
	windowNS := k * p.tick
	tEff := p.done + windowNS // grid-aligned: overlay appends stay monotone

	for ch := 0; ch < len(p.tempMilli); ch++ {
		cum := p.cumDynamicPJ(ch)
		dynPJ := cum - p.lastCumPJ[ch]
		if dynPJ < 0 { // PMU was Reset underneath us; restart the ledger
			dynPJ = 0
		}
		p.lastCumPJ[ch] = cum
		// 1 mW == 1 pJ/ns: the ledger and the power figure share units.
		idlePJ := p.idleMilliW[ch] * windowNS
		p.energyPJ[ch] += dynPJ + idlePJ
		powerMW := dynPJ/windowNS + p.idleMilliW[ch]
		p.wattsMill[ch] = powerMW
		rcMW := powerMW
		if rcMW > p.tdpMilliW {
			rcMW = p.tdpMilliW
		}
		p.integrate(ch, rcMW, k)
		p.govern(ch, tEff)
	}
	p.done = tEff
	p.snap = nil
	p.nextAt.Store(tEff + p.tick)
}

// cumDynamicPJ prices chiplet ch's cumulative PMU counters through its
// energy table.
func (p *Plane) cumDynamicPJ(ch int) int64 {
	var s int64
	tbl := &p.pjTable[ch]
	first := int(p.topo.FirstCoreOf(topology.ChipletID(ch)))
	for c := first; c < first+p.topo.CoresPerChiplet; c++ {
		for e := 0; e < pmu.NumEvents; e++ {
			if pj := tbl[e]; pj != 0 {
				s += p.pm.Read(c, pmu.Event(e)) * pj
			}
		}
	}
	return s
}

// integrate advances chiplet ch's RC model k quanta with constant power
// input: explicit Euler, dT = (Tss − T) · min(tick, tau) / tau per
// quantum. Integer floor makes the iteration stall (dT == 0) once within
// tau/tick milli-degrees of steady state, which bounds the loop even when
// an idle fleet catches up over a huge k.
func (p *Plane) integrate(ch int, powerMW int64, k int64) {
	tss := ambientMilliC + powerMW*p.rMilli[ch]/1000
	tau := p.tauNS[ch]
	dt := p.tick
	if dt > tau {
		dt = tau
	}
	t := p.tempMilli[ch]
	for i := int64(0); i < k; i++ {
		d := (tss - t) * dt / tau
		if d == 0 {
			t = tss // close enough that Euler stalls: snap to steady state
			break
		}
		t += d
	}
	p.tempMilli[ch] = t
	if t > p.maxTempMilli {
		p.maxTempMilli = t
	}
}

// govern applies the tier state machine for chiplet ch at virtual time t:
// rising temperature enters tiers at their setpoints, falling temperature
// releases them only hysteresisMilliC below, and the park tier appends an
// offline span unless ch is the last live chiplet (then it degrades to a
// hard throttle — the machine must keep making progress).
func (p *Plane) govern(ch int, t int64) {
	enter := [4]int64{0, p.softMilli, p.hardMilli, p.parkMilli}
	temp := p.tempMilli[ch]
	want := 0
	switch {
	case temp >= p.parkMilli:
		want = 3
	case temp >= p.hardMilli:
		want = 2
	case temp >= p.softMilli:
		want = 1
	}
	cur := p.tier[ch]
	if want > cur {
		for lv := cur + 1; lv <= want; lv++ {
			switch lv {
			case 1:
				p.soft[ch]++
			case 2:
				p.hard[ch]++
			}
		}
	} else {
		for cur > want && temp < enter[cur]-hysteresisMilliC {
			cur--
		}
		want = cur
	}
	if want == 3 {
		if p.parkUntil[ch] <= t && !p.parkAllowed(ch, t) {
			want = 2 // last live chiplet: hard-throttle instead of park
		} else if p.parkUntil[ch] <= t {
			p.ov.AppendPark(topology.ChipletID(ch), t, t+p.parkNS)
			p.parkUntil[ch] = t + p.parkNS
			p.park[ch]++
		}
	}
	p.tier[ch] = want
	p.ov.AppendThermal(topology.ChipletID(ch), t, tierFactor[want])
}

// parkAllowed reports whether at least one core outside chiplet ch is live
// at t, counting both static down-windows and parks already issued this
// claim. Parking the last live chiplet would deadlock virtual time.
func (p *Plane) parkAllowed(ch int, t int64) bool {
	for c := 0; c < p.topo.NumCores(); c++ {
		id := topology.CoreID(c)
		if int(p.topo.ChipletOf(id)) == ch {
			continue
		}
		if !p.plan.CoreDown(id, t) {
			return true
		}
	}
	return false
}

// Stats returns an immutable snapshot of the governor state as of the
// last tick. Calls between two ticks return the same snapshot; the six
// per-chiplet slices share one backing array, each capped at its own
// chiplets.
func (p *Plane) Stats() *Snapshot {
	p.mu.Lock()
	if p.snap == nil {
		n := len(p.tempMilli)
		buf := make([]int64, 0, 6*n)
		for _, s := range [...][]int64{p.tempMilli, p.wattsMill, p.energyPJ, p.soft, p.hard, p.park} {
			buf = append(buf, s...)
		}
		p.snap = &Snapshot{
			At:            p.done,
			TempMilliC:    buf[:n:n],
			WattsMilli:    buf[n : 2*n : 2*n],
			EnergyPJ:      buf[2*n : 3*n : 3*n],
			SoftEvents:    buf[3*n : 4*n : 4*n],
			HardEvents:    buf[4*n : 5*n : 5*n],
			ParkEvents:    buf[5*n : 6*n : 6*n],
			MaxTempMilliC: p.maxTempMilli,
		}
	}
	s := p.snap
	p.mu.Unlock()
	return s
}

// TempsMilliC writes the per-chiplet junction temperatures in milli-°C
// over dst's elements (dst grows when too short) and returns them.
func (p *Plane) TempsMilliC(dst []int64) []int64 {
	p.mu.Lock()
	dst = append(dst[:0], p.tempMilli...)
	p.mu.Unlock()
	return dst
}

// read returns chiplet ch's entry of one of the governor's per-chiplet
// slices, for a gauge.
func (p *Plane) read(s []int64, ch int) float64 {
	p.mu.Lock()
	v := s[ch]
	p.mu.Unlock()
	return float64(v)
}

// ForecastMilliC projects each chiplet's junction temperature horizonNS of
// virtual time into the future, assuming the last window's power holds:
// the RC trajectory T + (Tss − T)·(1 − e^(−h/τ)) toward the steady state
// that power implies. A pure function of the state at the last tick and the
// model constants, so deterministic replays forecast identically. This is
// the admission plane's pre-cliff signal: a chiplet whose forecast crosses
// the soft setpoint will be throttled soon even though its current
// temperature still looks healthy. The forecast is written over dst's
// elements (dst grows when too short) and returned, so a caller that keeps
// the result forecasts without allocating.
func (p *Plane) ForecastMilliC(dst []int64, horizonNS int64) []int64 {
	p.mu.Lock()
	out := append(dst[:0], p.tempMilli...)
	for ch, t := range out {
		powerMW := p.wattsMill[ch]
		if powerMW > p.tdpMilliW {
			powerMW = p.tdpMilliW
		}
		tss := ambientMilliC + powerMW*p.rMilli[ch]/1000
		f := 1 - math.Exp(-float64(horizonNS)/float64(p.tauNS[ch]))
		out[ch] = t + int64(float64(tss-t)*f)
	}
	p.mu.Unlock()
	return out
}

// SoftTierMilli returns the governor's soft-tier slowdown factor in
// milli-units (1000 = nominal) — what service times inflate to once the
// soft throttle engages, and therefore the inflation the admission plane
// applies to estimates when the forecast predicts that engagement.
func (p *Plane) SoftTierMilli() int64 { return softTierMilli }

// Instrument registers per-chiplet temperature and power gauges and the
// energy counter with reg. The gauges are trace-enabled so charm-obs can
// render them as Chrome-trace counter tracks.
func (p *Plane) Instrument(reg *obs.Registry) {
	for ch := 0; ch < p.topo.NumChiplets(); ch++ {
		ch := ch
		l := obs.Labels{"chiplet": strconv.Itoa(ch)}
		reg.Func("charm_power_temp_millic",
			"Chiplet junction temperature from the RC thermal model, milli-degC.",
			obs.KindGauge, l, func(int64) float64 {
				return p.read(p.tempMilli, ch)
			}, obs.Traced())
		reg.Func("charm_power_watts_milli",
			"Chiplet power over the last governor window, milliwatts.",
			obs.KindGauge, l, func(int64) float64 {
				return p.read(p.wattsMill, ch)
			}, obs.Traced())
		reg.Func("charm_power_energy_pj_total",
			"Chiplet lifetime energy ledger (dynamic + idle), picojoules.",
			obs.KindCounter, l, func(int64) float64 {
				return p.read(p.energyPJ, ch)
			})
	}
}
