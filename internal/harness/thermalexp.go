package harness

import (
	"fmt"
	"math"
	"reflect"
	"sort"

	"charm"
	"charm/internal/topology"
)

// The thermal-cliff experiment serves one job stream over a package with a
// single hot chiplet (a high-leakage compute die next to three efficient
// ones) under four configurations. At 70% load: the plane disabled (no
// thermal model at all — the baseline ledger), the closed-loop governor
// with load-aware dispatch (the governor's temperatures and throttle
// factors feed the placement view, so dispatch steers work off the hot die
// before it crosses a setpoint), and the governor with blind round-robin
// dispatch (the stream keeps feeding the hot die, which the governor must
// then rescue with hard throttles and emergency parks — the cliff the
// closed loop exists to catch). The shape: thermal-aware dispatch keeps
// the hot die below the park setpoint with zero parks and spends
// measurably less energy, while blind dispatch rides the governor through
// every tier and pays parks. The final overdrive row runs blind dispatch
// at 130% load: no placement slack, the governor's emergency tiers are
// the only defense, and graceful degradation means every job is still
// accounted for (completed, shed, or expired) instead of the service
// collapsing.

const (
	thWorkers  = 8
	thJobs     = 300
	thTasks    = 4      // tasks per job (one stage)
	thTaskCost = 10_000 // virtual ns of compute per task
	thWork     = thTasks * thTaskCost
	thDeadline = 400_000
	thSeed     = 11
	thQueueCap = 256
)

// thGap is the mean arrival gap at pct percent of machine capacity. The
// main rows run at 70%: the three cool chiplets (six of eight cores) can
// absorb the whole stream, so a dispatcher that sees temperatures has
// real slack to steer into. The overdrive row runs at 130%: there is
// nowhere left to steer, the hot die must work, and the governor's
// emergency tiers are what keep the machine alive.
func thGap(pct int) int64 { return int64(thWork * 100 / (thWorkers * pct)) }

// thPowerConfig builds the heterogeneous package: chiplet 0 runs a hot
// model (4x the dynamic energy per compute-ns of its three efficient
// siblings) with a fast thermal time constant, so sustained full load
// drives it through every governor tier while the cool chiplets never
// leave the nominal band.
func thPowerConfig() *charm.PowerConfig {
	hot := charm.DefaultPowerModel()
	hot.Name = "hot"
	hot.EnergyPJ[charm.ComputeNS] = 12000
	hot.CThermal = 4e-5 // tau = 200 us: ten governor ticks, so the tiers regulate instead of overshooting
	cool := charm.DefaultPowerModel()
	cool.Name = "cool"
	cool.EnergyPJ[charm.ComputeNS] = 1500
	cool.CThermal = 4e-5
	return &charm.PowerConfig{
		TDPWatts: 20,
		SoftC:    65, HardC: 75, ParkC: 85,
		TickNS: 20_000, ParkNS: 500_000,
		Models: []charm.PowerModel{hot, cool, cool, cool},
	}
}

// thermalResult is one measured run plus the plane's final snapshot.
type thermalResult struct {
	stats   charm.JobStats
	lats    []int64 // completed-job latencies in arrival order
	span    int64
	metWork int64
	power   *charm.PowerSnapshot // nil when the plane is off
}

// thermalRun serves thJobs Poisson arrivals at loadPct percent of machine
// capacity under one dispatch placement, with or without the closed-loop
// plane, and drains.
func (o Options) thermalRun(placement charm.JobPlacement, pcfg *charm.PowerConfig, loadPct int) thermalResult {
	rt, err := charm.Init(charm.Config{
		Topology:      topology.Synthetic(4, 2),
		Workers:       thWorkers,
		Deterministic: true,
		Power:         pcfg,
	})
	if err != nil {
		panic(fmt.Sprintf("harness: thermal: %v", err))
	}
	o.observe(rt)
	defer rt.Finalize()
	svc, err := rt.ServeJobsFromTask(charm.JobServiceOptions{
		Policy:        charm.AdmitShed,
		QueueCapacity: thQueueCap,
		Placement:     placement,
		EvalInterval:  50_000,
		Source: &charm.SpecSource{
			Arrivals: charm.NewPoissonArrivals(thSeed, thGap(loadPct), thJobs),
			Gen: func(i int) charm.JobSpec {
				stage := make(charm.JobStage, thTasks)
				for k := range stage {
					stage[k] = func(ctx *charm.Ctx) { ctx.Compute(thTaskCost) }
				}
				return charm.JobSpec{
					Name:     fmt.Sprintf("job-%d", i),
					Priority: i % 3,
					Deadline: thDeadline,
					Cost:     thWork,
					Stages:   []charm.JobStage{stage},
				}
			},
		},
	})
	if err != nil {
		panic(fmt.Sprintf("harness: thermal: %v", err))
	}
	svc.Drain()

	var r thermalResult
	r.stats = svc.Stats()
	first, last := int64(math.MaxInt64), int64(0)
	for _, j := range svc.Jobs() {
		if j.Arrival() < first {
			first = j.Arrival()
		}
		if j.State() != charm.JobCompleted {
			continue
		}
		r.lats = append(r.lats, j.Latency())
		if f := j.Finished(); f > last {
			last = f
		}
		if j.MetDeadline() {
			r.metWork += thWork
		}
	}
	if last > first {
		r.span = last - first
	}
	if pw := rt.Power(); pw != nil {
		r.power = pw.Stats()
	}
	return r
}

func (r thermalResult) goodputPct() float64 {
	if r.span <= 0 {
		return 0
	}
	return 100 * float64(r.metWork) / float64(thWorkers*r.span)
}

func (r thermalResult) p99us() float64 {
	if len(r.lats) == 0 {
		return 0
	}
	s := append([]int64(nil), r.lats...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := (99*len(s) + 99) / 100
	if idx > len(s) {
		idx = len(s)
	}
	return float64(s[idx-1]) / 1000
}

// thermalSame reports bit-identical replays: ledger, per-job latencies,
// and the plane's full final snapshot (temperatures, ledgers, tier
// counts).
func thermalSame(a, b thermalResult) bool {
	if a.stats != b.stats || a.span != b.span || !reflect.DeepEqual(a.lats, b.lats) {
		return false
	}
	if (a.power == nil) != (b.power == nil) {
		return false
	}
	return a.power == nil || reflect.DeepEqual(*a.power, *b.power)
}

// sumI64 totals one per-chiplet counter slice.
func sumI64(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}

// Thermal regenerates the thermal-cliff experiment. The repro column
// re-runs the closed-loop configuration and compares the job ledger and
// the plane's final snapshot byte for byte.
func (o Options) Thermal() *Table {
	tab := &Table{
		ID:    "thermal",
		Title: "Thermal cliff: closed-loop governor with thermal-aware vs blind dispatch",
		Header: []string{"run", "completed", "met", "shed", "expired",
			"goodput_pct", "p99_us", "soft", "hard", "parks", "maxT_C",
			"energy_mJ", "repro"},
		Notes: "one hot chiplet among three efficient ones: at 70% load " +
			"thermal-aware dispatch keeps the hot die out of the emergency tier " +
			"(zero parks, peak below the park setpoint) and burns less energy " +
			"than blind round-robin, which rides the governor over the cliff " +
			"(emergency parks, peak at the park setpoint); at 130% overdrive the " +
			"governor parks under blind dispatch and the service degrades " +
			"gracefully (every job completed, shed, or expired) instead of " +
			"collapsing",
	}
	row := func(name string, r thermalResult, repro string) []string {
		soft, hard, parks, maxT, energy := "-", "-", "-", "-", "-"
		if p := r.power; p != nil {
			soft, hard, parks = i64(sumI64(p.SoftEvents)), i64(sumI64(p.HardEvents)), i64(sumI64(p.ParkEvents))
			maxT = f1(float64(p.MaxTempMilliC) / 1000)
			energy = f1(float64(sumI64(p.EnergyPJ)) / 1e9)
		}
		return []string{
			name, i64(r.stats.Completed), i64(r.stats.Met), i64(r.stats.Shed),
			i64(r.stats.Expired), f1(r.goodputPct()), f1(r.p99us()),
			soft, hard, parks, maxT, energy, repro,
		}
	}
	off := o.thermalRun(charm.PlaceLoadAware, nil, 70)
	tab.Rows = append(tab.Rows, row("plane-off", off, "-"))
	closed := o.thermalRun(charm.PlaceLoadAware, thPowerConfig(), 70)
	repro := "no"
	if thermalSame(closed, o.thermalRun(charm.PlaceLoadAware, thPowerConfig(), 70)) {
		repro = "yes"
	}
	tab.Rows = append(tab.Rows, row("closed-loop", closed, repro))
	rr := o.thermalRun(charm.PlaceRoundRobin, thPowerConfig(), 70)
	tab.Rows = append(tab.Rows, row("static-rr", rr, "-"))
	over := o.thermalRun(charm.PlaceRoundRobin, thPowerConfig(), 130)
	tab.Rows = append(tab.Rows, row("overdrive-1.3x", over, "-"))
	return tab
}
