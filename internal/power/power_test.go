package power

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"charm/internal/fault"
	"charm/internal/pmu"
	"charm/internal/topology"
)

// testPlane builds a plane over an empty compiled plan with an
// instant-response thermal model (tau == tick), so each governor window
// lands the temperature exactly on the steady state P·R + T_amb — which
// makes every expectation below exact integer arithmetic.
func testPlane(t *testing.T, topo *topology.Topology, cfg Config) (*Plane, *pmu.PMU, *fault.Plan) {
	t.Helper()
	var s *fault.Schedule
	plan, err := s.Compile(topo)
	if err != nil {
		t.Fatal(err)
	}
	pm := pmu.New(topo.NumCores())
	p, err := NewPlane(topo, pm, plan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p, pm, plan
}

// instantModel responds within one tick (tau = R·C = 1 µs = tick) and
// prices only Compute time: 1000 pJ/ns, i.e. 1 W per concurrently busy
// core. R = 10 °C/W.
func instantModel() Model {
	m := Model{Name: "instant", RThermal: 10, CThermal: 1e-7}
	m.EnergyPJ[pmu.ComputeNS] = 1000
	return m
}

func TestEnergyAccountingFromPMU(t *testing.T) {
	topo := topology.Synthetic(2, 2)
	p, pm, _ := testPlane(t, topo, Config{
		TickNS: 1000, Models: []Model{instantModel()},
	})
	if st := p.Stats(); st.At != 0 || st.TempMilliC[0] != 45_000 {
		t.Fatalf("initial state: at=%d temp=%d", st.At, st.TempMilliC[0])
	}
	// Below the first boundary nothing happens (the lock-free gate).
	p.MaybeTick(999)
	if st := p.Stats(); st.At != 0 {
		t.Fatalf("ticked before the boundary: at=%d", st.At)
	}

	// 3000 ns of compute on chiplet 0 (cores 0,1), none on chiplet 1.
	pm.Add(0, pmu.ComputeNS, 2000)
	pm.Add(1, pmu.ComputeNS, 1000)
	p.MaybeTick(1000)
	st := p.Stats()
	if st.At != 1000 {
		t.Fatalf("At = %d, want 1000", st.At)
	}
	// 3000 ns × 1000 pJ/ns = 3e6 pJ over a 1000 ns window = 3000 mW.
	if st.WattsMilli[0] != 3000 || st.WattsMilli[1] != 0 {
		t.Fatalf("watts = %v, want [3000 0]", st.WattsMilli)
	}
	if st.EnergyPJ[0] != 3_000_000 || st.EnergyPJ[1] != 0 {
		t.Fatalf("energy = %v, want [3000000 0]", st.EnergyPJ)
	}
	// Tss = 45 °C + 3 W × 10 °C/W = 75 °C, reached instantly (tau = tick).
	if st.TempMilliC[0] != 75_000 || st.TempMilliC[1] != 45_000 {
		t.Fatalf("temps = %v, want [75000 45000]", st.TempMilliC)
	}

	// A quiet window relaxes chiplet 0 back to ambient and adds no energy.
	p.MaybeTick(2000)
	st = p.Stats()
	if st.TempMilliC[0] != 45_000 || st.EnergyPJ[0] != 3_000_000 {
		t.Fatalf("after quiet window: temp=%d energy=%d", st.TempMilliC[0], st.EnergyPJ[0])
	}
	if st.MaxTempMilliC != 75_000 {
		t.Fatalf("MaxTempMilliC = %d, want 75000", st.MaxTempMilliC)
	}
}

func TestIdlePowerAndTDPClamp(t *testing.T) {
	topo := topology.Synthetic(2, 2)
	m := instantModel()
	m.IdleWatts = 2
	m.RThermal = 1
	m.CThermal = 1e-6 // tau = 1 µs = tick
	p, pm, _ := testPlane(t, topo, Config{
		TickNS: 1000, TDPWatts: 10, Models: []Model{m},
	})
	// 48 W dynamic + 2 W idle on chiplet 0; the RC input clamps at 10 W.
	pm.Add(0, pmu.ComputeNS, 48_000)
	p.MaybeTick(1000)
	st := p.Stats()
	if st.WattsMilli[0] != 50_000 {
		t.Fatalf("watts = %d, want 50000 (unclamped reading)", st.WattsMilli[0])
	}
	// Ledger is true dissipation: 48e6 dynamic + 2 mW × 1000 ns idle.
	if st.EnergyPJ[0] != 48_000_000+2_000_000 {
		t.Fatalf("energy = %d, want 50000000", st.EnergyPJ[0])
	}
	// Idle chiplet 1 still pays its leakage floor.
	if st.EnergyPJ[1] != 2_000_000 {
		t.Fatalf("idle chiplet energy = %d, want 2000000", st.EnergyPJ[1])
	}
	// Temperature is driven by the clamped 10 W: 45 + 10×1 = 55 °C, not
	// 45 + 50 = 95 °C.
	if st.TempMilliC[0] != 55_000 {
		t.Fatalf("temp = %d, want 55000 (TDP-clamped RC input)", st.TempMilliC[0])
	}
}

// TestRCConvergence: with tau = 10 ticks the temperature approaches
// steady state geometrically from both sides instead of jumping.
func TestRCConvergence(t *testing.T) {
	topo := topology.Synthetic(1, 2)
	m := instantModel()
	m.CThermal = 1e-6 // tau = 10 µs = 10 ticks
	p, pm, _ := testPlane(t, topo, Config{TickNS: 1000, Models: []Model{m}})
	prev := int64(45_000)
	for w := int64(1); w <= 40; w++ {
		pm.Add(0, pmu.ComputeNS, 3000) // 3 W sustained
		p.MaybeTick(w * 1000)
		temp := p.Stats().TempMilliC[0]
		if temp < prev {
			t.Fatalf("window %d: temperature fell while heating (%d -> %d)", w, prev, temp)
		}
		if temp > 75_000 {
			t.Fatalf("window %d: overshot steady state: %d", w, temp)
		}
		prev = temp
	}
	// After 4 time constants the gap to Tss = 75 °C is under 2%.
	if prev < 74_000 {
		t.Fatalf("after 40 windows temp = %d, want >= 74000", prev)
	}
	// Cooling is the mirror image.
	for w := int64(41); w <= 80; w++ {
		p.MaybeTick(w * 1000)
		temp := p.Stats().TempMilliC[0]
		if temp > prev {
			t.Fatalf("window %d: temperature rose while cooling (%d -> %d)", w, prev, temp)
		}
		prev = temp
	}
	if prev > 46_000 {
		t.Fatalf("after cooling temp = %d, want near ambient", prev)
	}
}

// TestGovernorTiersAndHysteresis: crossing soft/hard applies the tier
// factors through the plan's thermal queries; releases respect the
// hysteresis band.
func TestGovernorTiersAndHysteresis(t *testing.T) {
	topo := topology.Synthetic(2, 2)
	p, pm, plan := testPlane(t, topo, Config{
		TickNS: 1000, Models: []Model{instantModel()},
		SoftC: 70, HardC: 90, ParkC: 110,
	})
	// Window 1: 3 W -> 75 °C: soft throttle.
	pm.Add(0, pmu.ComputeNS, 3000)
	p.MaybeTick(1000)
	if m := plan.ThermalMilli(0, 1000); m != softTierMilli {
		t.Fatalf("soft tier factor = %d, want %d", m, softTierMilli)
	}
	if st := p.Stats(); st.SoftEvents[0] != 1 || st.HardEvents[0] != 0 {
		t.Fatalf("events = soft %v hard %v", st.SoftEvents, st.HardEvents)
	}
	// Window 2: 5 W -> 95 °C: hard throttle.
	pm.Add(0, pmu.ComputeNS, 5000)
	p.MaybeTick(2000)
	if m := plan.ThermalMilli(0, 2000); m != hardTierMilli {
		t.Fatalf("hard tier factor = %d, want %d", m, hardTierMilli)
	}
	// Window 3: 4.4 W -> 89 °C. 89 < 90 but >= 90-2 = 88: hysteresis
	// keeps the hard tier latched.
	pm.Add(0, pmu.ComputeNS, 4400)
	p.MaybeTick(3000)
	if m := plan.ThermalMilli(0, 3000); m != hardTierMilli {
		t.Fatalf("hard hysteresis hold factor = %d, want %d", m, hardTierMilli)
	}
	// Window 4: back to 3 W -> 75 °C < 88: releases to soft (75 >= 70).
	pm.Add(0, pmu.ComputeNS, 3000)
	p.MaybeTick(4000)
	if m := plan.ThermalMilli(0, 4000); m != softTierMilli {
		t.Fatalf("release-to-soft factor = %d, want %d", m, softTierMilli)
	}
	// Window 5: 2.4 W -> 69 °C. 69 < 70 but >= 70-2 = 68: hysteresis keeps
	// the soft tier latched.
	pm.Add(0, pmu.ComputeNS, 2400)
	p.MaybeTick(5000)
	if m := plan.ThermalMilli(0, 5000); m != softTierMilli {
		t.Fatalf("hysteresis hold factor = %d, want %d", m, softTierMilli)
	}
	// Window 6: idle -> 45 °C: full release.
	p.MaybeTick(6000)
	if m := plan.ThermalMilli(0, 6000); m != 1000 {
		t.Fatalf("release factor = %d, want 1000", m)
	}
	if st := p.Stats(); st.SoftEvents[0] != 1 || st.HardEvents[0] != 1 {
		t.Fatalf("tier entries = soft %v hard %v, want one each", st.SoftEvents, st.HardEvents)
	}
}

// TestEmergencyParkAndLastChipletGuard: the park tier takes a chiplet's
// cores offline for ParkNS, but never the last live chiplet — that one
// degrades to a hard throttle instead.
func TestEmergencyParkAndLastChipletGuard(t *testing.T) {
	topo := topology.Synthetic(2, 2)
	p, pm, plan := testPlane(t, topo, Config{
		TickNS: 1000, ParkNS: 5000, Models: []Model{instantModel()},
		SoftC: 60, HardC: 70, ParkC: 80,
	})
	// Both chiplets blow past ParkC = 80 °C (Tss = 45 + 8×10 = 125 °C,
	// clamped by default TDP 10 W... still 145; instant).
	pm.Add(0, pmu.ComputeNS, 8000)
	pm.Add(2, pmu.ComputeNS, 8000)
	p.MaybeTick(1000)
	st := p.Stats()
	// Chiplet 0 parks; chiplet 1 would be the last live chiplet, so it
	// hard-throttles instead.
	if st.ParkEvents[0] != 1 || st.ParkEvents[1] != 0 {
		t.Fatalf("park events = %v, want [1 0]", st.ParkEvents)
	}
	if !plan.CoreDown(0, 1000) || !plan.CoreDown(1, 1000) {
		t.Fatal("parked chiplet 0 cores not offline")
	}
	if plan.CoreDown(2, 1000) {
		t.Fatal("last live chiplet was parked")
	}
	if m := plan.ThermalMilli(1, 1000); m != hardTierMilli {
		t.Fatalf("guarded chiplet factor = %d, want hard %d", m, hardTierMilli)
	}
	// The park expires on its own: cores return at t = 1000 + ParkNS.
	if up := plan.CoreUpAt(0, 1500); up != 6000 {
		t.Fatalf("CoreUpAt(parked) = %d, want 6000", up)
	}
	// While parked and cooling, no re-park is issued.
	p.MaybeTick(2000)
	if st := p.Stats(); st.ParkEvents[0] != 1 {
		t.Fatalf("re-parked while parked: %v", st.ParkEvents)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := func(c Config, wantSub string) {
		t.Helper()
		err := c.Validate()
		if err == nil {
			t.Fatalf("Validate(%+v) = nil, want error about %q", c, wantSub)
		}
		if !strings.Contains(err.Error(), wantSub) {
			t.Fatalf("Validate error %q does not mention %q", err, wantSub)
		}
	}
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("zero config invalid: %v", err)
	}
	bad(Config{TDPWatts: -1}, "TDPWatts")
	bad(Config{TDPWatts: math.NaN()}, "TDPWatts")
	bad(Config{TDPWatts: math.Inf(1)}, "TDPWatts")
	bad(Config{SoftC: math.NaN()}, "SoftC")
	bad(Config{SoftC: 90, HardC: 80}, "ordered")
	bad(Config{SoftC: ambientC}, "ambient")
	bad(Config{TickNS: -5}, "TickNS")
	bad(Config{ParkNS: -5}, "ParkNS")
	bad(Config{Models: []Model{{RThermal: -1, CThermal: 1}}}, "RThermal")
	bad(Config{Models: []Model{{RThermal: 1, CThermal: math.NaN()}}}, "CThermal")
	m := Model{RThermal: 1, CThermal: 1}
	m.EnergyPJ[pmu.FillL2] = math.Inf(1)
	bad(Config{Models: []Model{m}}, "EnergyPJ")
}

func TestNewPlaneRejectsStaticThermal(t *testing.T) {
	topo := topology.Synthetic(2, 2)
	plan, err := fault.New("static", 1).ThermalThrottle(0, 100, 200, 2.0).Compile(topo)
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewPlane(topo, pmu.New(topo.NumCores()), plan, Config{})
	if !errors.Is(err, fault.ErrThermalConflict) {
		t.Fatalf("NewPlane = %v, want ErrThermalConflict", err)
	}
	if _, err := NewPlane(nil, nil, nil, Config{}); err == nil {
		t.Fatal("NewPlane accepted nil dependencies")
	}
	if _, err := NewPlane(topo, pmu.New(4), plan, Config{TDPWatts: math.NaN()}); err == nil {
		t.Fatal("NewPlane accepted an invalid config")
	}
}

// TestModelCycling: a shorter Models slice wraps round-robin — the
// heterogeneous-package case.
func TestModelCycling(t *testing.T) {
	topo := topology.Synthetic(4, 2)
	hot := instantModel()
	hot.EnergyPJ[pmu.ComputeNS] = 2000
	cool := instantModel()
	p, pm, _ := testPlane(t, topo, Config{TickNS: 1000, Models: []Model{hot, cool}})
	// Same work everywhere; hot chiplets (0, 2) burn double.
	for c := 0; c < topo.NumCores(); c++ {
		pm.Add(c, pmu.ComputeNS, 1000)
	}
	p.MaybeTick(1000)
	st := p.Stats()
	if st.WattsMilli[0] != 4000 || st.WattsMilli[1] != 2000 ||
		st.WattsMilli[2] != 4000 || st.WattsMilli[3] != 2000 {
		t.Fatalf("cycled model watts = %v, want [4000 2000 4000 2000]", st.WattsMilli)
	}
}

// TestCatchUpWindows: one claim far past the gate integrates every
// missed window (spreading the energy evenly) rather than one giant step.
func TestCatchUpWindows(t *testing.T) {
	topo := topology.Synthetic(1, 2)
	m := instantModel()
	m.CThermal = 1e-6 // tau = 10 ticks
	p, pm, _ := testPlane(t, topo, Config{TickNS: 1000, Models: []Model{m}})
	pm.Add(0, pmu.ComputeNS, 30_000) // 3 W sustained over 10 windows
	p.MaybeTick(10_000)
	st := p.Stats()
	if st.At != 10_000 {
		t.Fatalf("At = %d, want 10000", st.At)
	}
	if st.WattsMilli[0] != 3000 {
		t.Fatalf("catch-up watts = %d, want 3000 (spread over 10 windows)", st.WattsMilli[0])
	}
	// Ten Euler steps toward 75 °C with tau = 10 ticks: the same result a
	// step-by-step claimant would have computed.
	q, qm, _ := testPlane(t, topo, Config{TickNS: 1000, Models: []Model{m}})
	for w := int64(1); w <= 10; w++ {
		qm.Add(0, pmu.ComputeNS, 3000)
		q.MaybeTick(w * 1000)
	}
	if a, b := st.TempMilliC[0], q.Stats().TempMilliC[0]; a != b {
		t.Fatalf("catch-up temp %d != stepped temp %d", a, b)
	}
}

// TestPublishConcurrentReaders races readers of the governor state —
// Stats, TempsMilliC and ForecastMilliC, the paths obs gauges, placement
// and the admission plane take — against workers that record PMU events
// and tick the governor. Run under -race it checks that a tick never
// writes a snapshot a reader may hold; without it, that every snapshot a
// reader sees is whole (each per-chiplet slice exactly one chiplet long,
// capped so an append cannot run into its neighbour in the shared backing
// array) and that a reader never sees integrated time or an energy ledger
// go backwards.
func TestPublishConcurrentReaders(t *testing.T) {
	topo := topology.Synthetic(4, 2)
	nch := topo.NumChiplets()
	p, pm, _ := testPlane(t, topo, Config{TickNS: 1000, Models: []Model{instantModel()}})
	const ticks = 2000
	var stop atomic.Bool
	var tickers, readers sync.WaitGroup
	for c := 0; c < 2; c++ {
		tickers.Add(1)
		go func(core int) {
			defer tickers.Done()
			for now := int64(1); now <= ticks; now++ {
				pm.Add(core, pmu.ComputeNS, 500)
				p.MaybeTick(now * 1000)
			}
		}(c)
	}
	errs := make(chan error, 4)
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var at, energy int64
			var fc, temps []int64
			for !stop.Load() {
				st := p.Stats()
				parts := [][]int64{st.TempMilliC, st.WattsMilli, st.EnergyPJ,
					st.SoftEvents, st.HardEvents, st.ParkEvents}
				for _, s := range parts {
					if len(s) != nch || cap(s) != nch {
						errs <- fmt.Errorf("snapshot slice len %d cap %d, want %d", len(s), cap(s), nch)
						return
					}
				}
				var e int64
				for _, v := range st.EnergyPJ {
					e += v
				}
				if st.At < at || e < energy {
					errs <- fmt.Errorf("snapshot went backwards: at %d after %d, energy %d after %d", st.At, at, e, energy)
					return
				}
				at, energy = st.At, e
				if temps = p.TempsMilliC(temps); len(temps) != nch {
					errs <- fmt.Errorf("TempsMilliC has %d chiplets, want %d", len(temps), nch)
					return
				}
				if fc = p.ForecastMilliC(fc, 4000); len(fc) != nch {
					errs <- fmt.Errorf("forecast has %d chiplets, want %d", len(fc), nch)
					return
				}
			}
		}()
	}
	tickers.Wait()
	stop.Store(true)
	readers.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := p.Stats(); st.At != ticks*1000 || st.EnergyPJ[0] == 0 {
		t.Fatalf("the tickers integrated to %d (want %d) with %d pJ on chiplet 0", st.At, ticks*1000, st.EnergyPJ[0])
	}
}

// TestSnapshotContract: a snapshot is built on demand, once per tick that
// someone reads, and never changes afterwards. Stats twice between two
// ticks returns the same snapshot; one taken at tick k still reads tick
// k's state after later ticks, while a new Stats call reads the new
// state; the copying readers agree with the snapshot of the same tick.
func TestSnapshotContract(t *testing.T) {
	topo := topology.Synthetic(2, 2)
	p, pm, _ := testPlane(t, topo, Config{TickNS: 1000, Models: []Model{instantModel()}})
	pm.Add(0, pmu.ComputeNS, 2000)
	p.MaybeTick(1000)
	k := p.Stats()
	if again := p.Stats(); again != k {
		t.Fatal("two Stats calls within one tick built two snapshots")
	}
	p.MaybeTick(1500) // below the next boundary: no tick
	if again := p.Stats(); again != k {
		t.Fatal("a call that did not tick replaced the snapshot")
	}
	if temps := p.TempsMilliC(nil); !slices.Equal(temps, k.TempMilliC) {
		t.Fatalf("TempsMilliC = %v, snapshot %v", temps, k.TempMilliC)
	}
	want := *k
	want.TempMilliC = slices.Clone(k.TempMilliC)
	want.WattsMilli = slices.Clone(k.WattsMilli)
	want.EnergyPJ = slices.Clone(k.EnergyPJ)
	want.SoftEvents = slices.Clone(k.SoftEvents)
	want.HardEvents = slices.Clone(k.HardEvents)
	want.ParkEvents = slices.Clone(k.ParkEvents)

	for now := int64(2000); now <= 6000; now += 1000 {
		pm.Add(1, pmu.ComputeNS, 1000)
		pm.Add(2, pmu.ComputeNS, 500)
		p.MaybeTick(now)
	}
	if !reflect.DeepEqual(*k, want) {
		t.Fatalf("snapshot of tick 1 changed after later ticks:\n got %+v\nwant %+v", *k, want)
	}
	later := p.Stats()
	if later == k || later.At != 6000 || slices.Equal(later.EnergyPJ, k.EnergyPJ) {
		t.Fatalf("Stats after five ticks = %+v, still tick 1's %+v", *later, *k)
	}
	if temps := p.TempsMilliC(make([]int64, 1, 8)); !slices.Equal(temps, later.TempMilliC) {
		t.Fatalf("TempsMilliC = %v, snapshot %v", temps, later.TempMilliC)
	}
}
