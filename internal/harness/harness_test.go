package harness

import (
	"bytes"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// testOptions shrinks every experiment far enough for unit testing.
func testOptions() Options {
	o := Defaults()
	o.GraphScale = 10
	return o
}

// testTables memoizes experiment tables at testOptions() scale, id ->
// func() (*Table, error). Every cell is deterministic, so the golden and
// shape tests can read one run.
var testTables sync.Map

// testTable regenerates experiment id at testOptions() scale once per test
// binary.
func testTable(t *testing.T, id string) *Table {
	t.Helper()
	run, _ := testTables.LoadOrStore(id, sync.OnceValues(func() (*Table, error) { return testOptions().Run(id) }))
	tab, err := run.(func() (*Table, error))()
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func parse(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "x"), 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

func TestTablePrintAndLookup(t *testing.T) {
	tab := &Table{
		ID: "x", Title: "T", Header: []string{"a", "b"},
		Rows:  [][]string{{"k1", "1"}, {"k2", "2"}},
		Notes: "n",
	}
	var buf bytes.Buffer
	tab.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"## x — T", "k1", "k2", "expected shape"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	if tab.Col("b") != 1 || tab.Col("zz") != -1 {
		t.Error("Col lookup wrong")
	}
	if r := tab.Find("k2"); r == nil || r[1] != "2" {
		t.Errorf("Find wrong: %v", r)
	}
	if tab.Find("nope") != nil {
		t.Error("Find must return nil for missing keys")
	}
}

func TestRegistry(t *testing.T) {
	o := testOptions()
	ids := o.IDs()
	if len(ids) != 22 {
		t.Errorf("expected 22 experiments, got %d: %v", len(ids), ids)
	}
	if _, err := o.Run("nope"); err == nil {
		t.Error("unknown id must error")
	}
}

func TestChaosShape(t *testing.T) {
	tab := testTable(t, "chaos")
	ratioCol, lostCol := tab.Col("ratio"), tab.Col("lost")
	reproCol, rehomeCol := tab.Col("repro"), tab.Col("rehomes")
	parkCol := tab.Col("parks")
	if len(tab.Rows) != 7 {
		t.Fatalf("expected 7 rows, got %d", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		// Survival: every system completes every task — offlining 2 of 16
		// chiplets mid-run must not lose or deadlock work.
		if r[lostCol] != "0" {
			t.Errorf("%s: lost %s tasks under faults", r[0], r[lostCol])
		}
		ratio := parse(t, r[ratioCol])
		if ratio < 1.0 {
			t.Errorf("%s: faulty run faster than healthy (%.2fx)", r[0], ratio)
		}
	}
	// Scenario A: losing 2/16 cores from the 25%% mark costs ~9%% capacity;
	// graceful degradation means the makespan stays well under the 2x a
	// collapse would show (and under the 1.75x a parked-from-start run of
	// the whole workload on 14 cores would).
	charmRow := tab.Find("charm")
	if charmRow == nil {
		t.Fatal("missing charm row")
	}
	if ratio := parse(t, charmRow[ratioCol]); ratio > 1.6 {
		t.Errorf("charm degradation %.2fx not proportional to lost capacity", ratio)
	}
	if charmRow[reproCol] != "yes" {
		t.Error("charm faulty run not byte-for-byte reproducible")
	}
	// Scenario B: with spare cores CHARM re-homes (and so records
	// migrations-due-to-fault), while the static baseline parks.
	spare := tab.Find("spare-charm")
	if spare == nil {
		t.Fatal("missing spare-charm row")
	}
	if parse(t, spare[rehomeCol]) == 0 {
		t.Error("spare-charm recorded no fault re-homes")
	}
	spareRing := tab.Find("spare-ring")
	if spareRing == nil {
		t.Fatal("missing spare-ring row")
	}
	if parse(t, spareRing[parkCol]) == 0 {
		t.Error("spare-ring recorded no parks")
	}
	// Self-healing: CHARM's degradation with spare capacity available
	// must beat the static baseline's, which loses the workers outright.
	if cr, rr := parse(t, spare[ratioCol]), parse(t, spareRing[ratioCol]); cr >= rr {
		t.Errorf("spare-charm %.2fx not better than spare-ring %.2fx", cr, rr)
	}
}

func TestFig3Shape(t *testing.T) {
	tab := testTable(t, "fig3")
	within := tab.Find("within-numa")
	if within == nil {
		t.Fatal("missing within-numa row")
	}
	// The stepped distribution: p10 is intra-chiplet (25 ns), p100 within
	// NUMA reaches the cross-CCX step (155 ns).
	if parse(t, within[1]) != 25 {
		t.Errorf("within-numa p10 = %s, want 25", within[1])
	}
	if parse(t, within[6]) != 155 {
		t.Errorf("within-numa p100 = %s, want 155", within[6])
	}
	all := tab.Find("all-pairs")
	if parse(t, all[6]) <= 155 {
		t.Errorf("all-pairs max %s must exceed within-NUMA (cross-socket step)", all[6])
	}
}

func TestFig4Shape(t *testing.T) {
	tab := testTable(t, "fig4")
	first := parse(t, tab.Rows[0][4])
	last := parse(t, tab.Rows[len(tab.Rows)-1][4])
	if last <= first {
		t.Errorf("cores/channel ratio must widen: %v -> %v", first, last)
	}
}

func TestFig5Crossover(t *testing.T) {
	tab := testTable(t, "fig5")
	col := tab.Col("dist speedup")
	firstRatio := parse(t, tab.Rows[0][col])
	if firstRatio >= 1 {
		t.Errorf("smallest size: LocalCache must win, dist speedup = %.2f", firstRatio)
	}
	// Somewhere beyond one L3 slice DistributedCache must win.
	best := 0.0
	for _, r := range tab.Rows {
		if v := parse(t, r[col]); v > best {
			best = v
		}
	}
	if best < 1.5 {
		t.Errorf("DistributedCache peak speedup = %.2f, want > 1.5", best)
	}
}

func TestFig14Insensitivity(t *testing.T) {
	tab := testTable(t, "fig14")
	col := tab.Col("ratio")
	// LocalCache over DistributedCache spans 0.88 (TPC-C, 64 cores) to
	// 1.20 (TPC-C, 8 cores).
	for _, r := range tab.Rows {
		v := parse(t, r[col])
		if v < 0.85 || v > 1.25 {
			t.Errorf("OLTP %s@%s placement ratio %.2f outside [0.85,1.25]", r[0], r[1], v)
		}
	}
}

func TestSensitivityRuns(t *testing.T) {
	tab := testTable(t, "sens")
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		if parse(t, r[1]) <= 0 {
			t.Errorf("threshold %s: non-positive throughput", r[0])
		}
	}
}

// TestFig7CharmWinsAt64 runs a reduced Fig. 7 (one benchmark) and checks
// the headline shape: CHARM beats the NUMA baselines at full-socket
// occupancy.
func TestFig7CharmWinsAt64(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	t.Parallel()
	o := testOptions()
	o.GraphScale = 12
	tab := o.Fig7()
	col := tab.Col("64c")
	if col < 0 {
		t.Fatal("missing 64c column")
	}
	var charmV, bestBase float64
	for _, r := range tab.Rows {
		if r[0] != "bfs" {
			continue
		}
		v := parse(t, r[col])
		if r[1] == "charm" {
			charmV = v
		} else if v > bestBase {
			bestBase = v
		}
	}
	if charmV <= bestBase {
		t.Errorf("BFS@64c: CHARM %.1f must beat best baseline %.1f", charmV, bestBase)
	}
}

func TestTab1RemoteAccessGap(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	t.Parallel()
	o := testOptions()
	o.GraphScale = 12
	tab := o.Tab1()
	for _, r := range tab.Rows {
		charmRemote := parse(t, r[1])
		ringRemote := parse(t, r[2])
		if charmRemote > ringRemote {
			t.Errorf("%s: CHARM remote-NUMA accesses (%v) exceed RING's (%v)", r[0], charmRemote, ringRemote)
		}
	}
}

func TestFig13AllQueriesBenefit(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	tab := testTable(t, "fig13")
	col := tab.Col("speedup")
	// At this scale one query, Q4 (0.07 vs 0.08 ms), runs slower.
	below := 0
	for _, r := range tab.Rows {
		if parse(t, r[col]) < 0.95 {
			below++
		}
	}
	if below > 1 {
		t.Errorf("%d of 22 queries slowed down under CHARM", below)
	}
}

func TestFig9CharmLeadsMidRange(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	t.Parallel()
	tab := testTable(t, "fig9")
	// CHARM should lead or tie SHOAL somewhere in the 8-32 core range.
	lead := false
	for _, r := range tab.Rows {
		c := parse(t, r[0])
		if c >= 8 && c <= 32 && parse(t, r[1]) >= parse(t, r[2]) {
			lead = true
		}
	}
	if !lead {
		t.Error("CHARM never led SHOAL in the 8-32 core range")
	}
}

func TestFig11CharmBeatsNatives(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	tab := testTable(t, "fig11")
	best := map[string]float64{}
	for _, r := range tab.Rows {
		v := parse(t, r[3])
		if v > best[r[0]] {
			best[r[0]] = v
		}
	}
	if best["DW+CHARM"] <= best["DW-NUMA-node"] {
		t.Errorf("DW+CHARM peak %.2f must beat DW-NUMA-node %.2f", best["DW+CHARM"], best["DW-NUMA-node"])
	}
	if best["DW+CHARM"] <= best["DW+CHARM+async"] {
		t.Errorf("DW+CHARM peak %.2f must beat std::async %.2f", best["DW+CHARM"], best["DW+CHARM+async"])
	}
}

func TestGranularityShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	tab := testTable(t, "gran")
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// The middle of the sweep must beat both extremes for Q3.
	first := parse(t, tab.Rows[0][1])
	last := parse(t, tab.Rows[len(tab.Rows)-1][1])
	best := 1e18
	for _, r := range tab.Rows[1 : len(tab.Rows)-1] {
		if v := parse(t, r[1]); v < best {
			best = v
		}
	}
	if best >= first || best >= last {
		t.Errorf("no interior optimum: first=%.2f best=%.2f last=%.2f", first, best, last)
	}
}

func TestAblationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	tab := testTable(t, "abl")
	get := func(name string, col int) float64 {
		r := tab.Find(name)
		if r == nil {
			t.Fatalf("missing row %s", name)
		}
		return parse(t, r[col])
	}
	full := get("charm-full", 1)
	if os := get("os-threads", 1); os >= full/2 {
		t.Errorf("OS threads (%.1f) should trail coroutines (%.1f) by >2x on BFS", os, full)
	}
	if smt := get("smt-siblings", 1); smt >= get("static-compact", 1) {
		t.Errorf("SMT sharing (%.1f) should trail dedicated cores (%.1f)", smt, get("static-compact", 1))
	}
	if noMLP := get("no-mlp", 2); noMLP >= get("charm-full", 2)/2 {
		t.Errorf("serialized misses (%.2f GB/s) should trail MLP (%.2f) by >2x on SGD", noMLP, get("charm-full", 2))
	}
}

func TestFig10StableSpeedups(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	tab := testTable(t, "fig10")
	ci := tab.Col("64c")
	wins := 0
	for _, r := range tab.Rows {
		if r[ci] != "n/a" && parse(t, r[ci]) >= 1.0 {
			wins++
		}
	}
	if wins < len(tab.Rows) {
		t.Errorf("CHARM won only %d of %d size/benchmark cells at 64 cores", wins, len(tab.Rows))
	}
}

func TestFig12Trace(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	tab := testTable(t, "fig12")
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		if parse(t, r[1]) <= 0 {
			t.Errorf("%s: no samples collected", r[0])
		}
	}
}

func TestFig8IntelNarrowerThanAMD(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	t.Parallel()
	o := testOptions()
	o.GraphScale = 11
	amd := o.Fig7()
	intel := o.Fig8()
	ratio := func(tab *Table, col string) float64 {
		ci := tab.Col(col)
		var charmV, best float64
		for _, r := range tab.Rows {
			if r[0] != "bfs" {
				continue
			}
			v := parse(t, r[ci])
			if r[1] == "charm" {
				charmV = v
			} else if v > best {
				best = v
			}
		}
		return charmV / best
	}
	a := ratio(amd, "64c")
	i := ratio(intel, "48c")
	// §5.3: CHARM's advantage is architectural — it narrows on Intel's
	// flatter mesh (BFS lead 1.23x at 48 cores vs 1.33x at 64 on AMD).
	if i >= a {
		t.Errorf("Intel advantage %.2f unexpectedly exceeds AMD's %.2f", i, a)
	}
}

// TestOverloadShape asserts the admission experiment's acceptance shape:
// deadline-aware shedding sustains >=90% goodput at 2x capacity while the
// no-admission baseline's p99 diverges; load-aware dispatch meets or beats
// the round-robin placement ablation on goodput and p99 at 1x and 2x; the
// chiplet-1 circuit breaker caps the browned-out chiplet's queue depth
// relative to a breaker-off run; and the shed-2x cell replays byte for
// byte.
func TestOverloadShape(t *testing.T) {
	tab := testTable(t, "overload")
	goodCol, p99Col := tab.Col("goodput_pct"), tab.Col("p99_us")
	maxqCol, reproCol := tab.Col("maxq_ch1"), tab.Col("repro")
	if len(tab.Rows) != 16 {
		t.Fatalf("rows = %d, want 16", len(tab.Rows))
	}
	get := func(name string) []string {
		r := tab.Find(name)
		if r == nil {
			t.Fatalf("missing row %q", name)
		}
		return r
	}
	shed2, none2 := get("shed-2x"), get("none-2x")
	if g := parse(t, shed2[goodCol]); g < 90 {
		t.Errorf("shed-2x goodput = %.1f%%, want >= 90%%", g)
	}
	if g := parse(t, none2[goodCol]); g >= 60 {
		t.Errorf("no-admission 2x goodput = %.1f%%; overload should collapse it below 60%%", g)
	}
	// The no-admission queue grows without bound at 2x: its p99 blows
	// far past the 200us deadline and past every admission policy's p99.
	non := parse(t, none2[p99Col])
	if non < 1000 {
		t.Errorf("no-admission 2x p99 = %.1fus, want divergence beyond 1000us", non)
	}
	if s := parse(t, shed2[p99Col]); s >= non {
		t.Errorf("shed-2x p99 %.1fus not below no-admission p99 %.1fus", s, non)
	}
	// At half load every policy behaves identically and meets everything.
	for _, name := range []string{"none-0.5x", "block-0.5x", "reject-0.5x", "shed-0.5x"} {
		r := get(name)
		if r[2] != "400" || r[3] != "400" {
			t.Errorf("%s: completed/met = %s/%s, want 400/400", name, r[2], r[3])
		}
	}
	// Load-aware placement must meet or beat the round-robin ablation at
	// matched load (1x: 88.6% vs 87.6% goodput at equal p99; 2x: equal
	// goodput, p99 1252.3 vs 1253.9us).
	for _, load := range []string{"1x", "2x"} {
		la, rr := get("shed-"+load), get("rr-"+load)
		laG, rrG := parse(t, la[goodCol]), parse(t, rr[goodCol])
		if laG < rrG {
			t.Errorf("load-aware %s goodput %.1f%% below round-robin %.1f%%", load, laG, rrG)
		}
		laP, rrP := parse(t, la[p99Col]), parse(t, rr[p99Col])
		if laP > rrP {
			t.Errorf("load-aware %s p99 %.1fus above round-robin %.1fus", load, laP, rrP)
		}
	}
	off, on := get("breaker-off-2x"), get("breaker-on-2x")
	offQ, onQ := parse(t, off[maxqCol]), parse(t, on[maxqCol])
	if onQ >= offQ {
		t.Errorf("breaker did not cap chiplet-1 depth: on=%v off=%v", onQ, offQ)
	}
	if shed2[reproCol] != "yes" {
		t.Errorf("shed-2x replay not byte-identical")
	}
}

// TestTenantsShape asserts the multi-tenant isolation experiment's
// acceptance shape: with per-tenant queues, token buckets, DRR dispatch,
// and chiplet leases, tenant B's 10x flash crowd leaves tenant A's p99
// within 2x of A's solo run, while the shared-heap baseline blows past
// 10x; B's flood is contained by rate limiting, not starvation; the
// fault row rebalances A's lease instead of stalling A; and the isolated
// run replays byte for byte.
func TestTenantsShape(t *testing.T) {
	tab := testTable(t, "tenants")
	if len(tab.Rows) != 7 {
		t.Fatalf("rows = %d, want 7", len(tab.Rows))
	}
	complCol, metCol := tab.Col("completed"), tab.Col("met")
	limCol, contCol := tab.Col("rate_limited"), tab.Col("containment_x")
	leaseCol, evCol := tab.Col("leases"), tab.Col("lease_ev")
	reproCol := tab.Col("repro")
	get := func(run, tenant string) []string {
		for _, r := range tab.Rows {
			if r[0] == run && r[1] == tenant {
				return r
			}
		}
		t.Fatalf("missing row (%s, %s)", run, tenant)
		return nil
	}
	solo, baseA := get("solo", "A"), get("shared-heap", "A")
	isoA, isoB := get("isolated", "A"), get("isolated", "B")
	fltA := get("isolated-fault", "A")

	// A completes its whole stream in every configuration — isolation and
	// faults must never starve the well-behaved tenant.
	for _, r := range [][]string{solo, baseA, isoA, fltA} {
		if r[complCol] != "240" {
			t.Errorf("%s/%s completed = %s, want 240", r[0], r[1], r[complCol])
		}
	}
	// The containment guarantee: isolated A within 2x of solo, while the
	// shared heap lets B's flood push A past 10x.
	if c := parse(t, isoA[contCol]); c > 2.0 {
		t.Errorf("isolated A containment %.1fx, want <= 2x of solo", c)
	}
	if c := parse(t, baseA[contCol]); c <= 10 {
		t.Errorf("shared-heap A containment %.1fx, want > 10x (noisy neighbor)", c)
	}
	// B's flood is absorbed at its doorstep: the token bucket rate-limits
	// the excess and everything B does admit, it completes on time.
	if parse(t, isoB[limCol]) == 0 {
		t.Error("isolated B: flash crowd was never rate-limited")
	}
	if isoB[complCol] != isoB[metCol] {
		t.Errorf("isolated B: completed %s != met %s; admitted work must meet "+
			"its deadline under isolation", isoB[complCol], isoB[metCol])
	}
	// Steady state grants each tenant its quota of 2 chiplets.
	if isoA[leaseCol] != "2" || isoB[leaseCol] != "2" {
		t.Errorf("isolated leases A=%s B=%s, want 2/2", isoA[leaseCol], isoB[leaseCol])
	}
	// The fault row reshuffles leases (more lease events than the fault-free
	// run) but A still finishes everything.
	if parse(t, fltA[evCol]) <= parse(t, isoA[evCol]) {
		t.Errorf("fault run lease events %s not above fault-free %s; no rebalance",
			fltA[evCol], isoA[evCol])
	}
	if isoA[reproCol] != "yes" {
		t.Error("isolated replay not byte-identical")
	}
}

// TestThermalShape asserts the thermal-cliff experiment's acceptance
// shape: with the closed-loop governor running, thermal-aware dispatch
// keeps the hot die out of the emergency tier (zero parks, peak below the
// park setpoint) and spends less energy than blind round-robin, which
// parks repeatedly and peaks at the setpoint; at 130% overdrive the
// governor still parks but the service degrades gracefully — every job
// accounted for. The closed-loop cell replays byte for byte, plane state
// included.
func TestThermalShape(t *testing.T) {
	tab := testTable(t, "thermal")
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tab.Rows))
	}
	softCol, parksCol := tab.Col("soft"), tab.Col("parks")
	maxTCol, energyCol := tab.Col("maxT_C"), tab.Col("energy_mJ")
	complCol, shedCol, expCol := tab.Col("completed"), tab.Col("shed"), tab.Col("expired")
	goodCol, reproCol := tab.Col("goodput_pct"), tab.Col("repro")
	get := func(name string) []string {
		r := tab.Find(name)
		if r == nil {
			t.Fatalf("missing row %q", name)
		}
		return r
	}
	off, closed := get("plane-off"), get("closed-loop")
	rr, over := get("static-rr"), get("overdrive-1.3x")

	// The plane-off baseline has no thermal state to report.
	for _, col := range []int{softCol, parksCol, maxTCol, energyCol} {
		if off[col] != "-" {
			t.Errorf("plane-off thermal cell = %q, want -", off[col])
		}
	}
	// At 70% load everything completes under every configuration.
	for _, r := range [][]string{off, closed, rr} {
		if r[complCol] != "300" {
			t.Errorf("%s completed = %s, want 300", r[0], r[complCol])
		}
	}
	// Thermal-aware dispatch: governor engaged (soft tier visited) but the
	// hot die never reaches the emergency tier.
	if parse(t, closed[softCol]) == 0 {
		t.Error("closed-loop: governor never entered the soft tier")
	}
	if p := parse(t, closed[parksCol]); p != 0 {
		t.Errorf("closed-loop parked %v times; thermal-aware dispatch must avoid the cliff", p)
	}
	if mt := parse(t, closed[maxTCol]); mt >= 85 {
		t.Errorf("closed-loop peak %v C reached the park setpoint", mt)
	}
	if closed[reproCol] != "yes" {
		t.Error("closed-loop replay not byte-identical")
	}
	// Blind dispatch pays the cliff: emergency parks, a hotter peak, and
	// more energy for the same completed work.
	if parse(t, rr[parksCol]) == 0 {
		t.Error("static-rr never parked; the cliff did not materialize")
	}
	if parse(t, rr[maxTCol]) <= parse(t, closed[maxTCol]) {
		t.Errorf("static-rr peak %s C not above closed-loop %s C", rr[maxTCol], closed[maxTCol])
	}
	if parse(t, rr[energyCol]) <= parse(t, closed[energyCol]) {
		t.Errorf("static-rr energy %s mJ not above closed-loop %s mJ", rr[energyCol], closed[energyCol])
	}
	// Overdrive: the governor parks with no placement slack, yet the
	// service stays alive — the whole stream is accounted for and goodput
	// holds up.
	if parse(t, over[parksCol]) == 0 {
		t.Error("overdrive never parked")
	}
	if n := parse(t, over[complCol]) + parse(t, over[shedCol]) + parse(t, over[expCol]); n != 300 {
		t.Errorf("overdrive accounted for %v of 300 jobs", n)
	}
	if g := parse(t, over[goodCol]); g < 50 {
		t.Errorf("overdrive goodput %v%%; degradation should be graceful, not a collapse", g)
	}
}
