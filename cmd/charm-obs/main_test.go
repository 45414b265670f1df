package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"charm"
	"charm/internal/harness"
	"charm/internal/pmu"
	"charm/internal/scenario"
)

// bin is the charm-obs binary TestMain builds once for every test.
var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "charm-obs-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin = filepath.Join(dir, "charm-obs")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// runObs runs one charm-obs subcommand, requires exit 0, and returns stdout.
func runObs(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("charm-obs %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return string(out)
}

// TestScenarioViewsRun drives the post-mortems that only print: each must
// exit 0 and show its headline section.
func TestScenarioViewsRun(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"slo"}, "class  target"},
		{[]string{"critpath"}, "flight recorder retained"},
		{[]string{"job", "200"}, "trace 200 ("},
		{[]string{"topo", "-cdf", "-matrix", "-diagram"}, "core-to-core latency CDF"},
	} {
		if out := runObs(t, c.args...); !strings.Contains(out, c.want) {
			t.Errorf("charm-obs %s: output lacks %q:\n%s", strings.Join(c.args, " "), c.want, out)
		}
	}
}

var updateChromeGolden = flag.Bool("update-chrome-golden", false,
	"rewrite testdata/chrome_golden.txt from this run instead of comparing against it")

// chromeDigest is one trace document's golden entry: its SHA-256, size and
// event count, then how many events carry each name, so a changed digest
// comes with a readable hint of which track moved.
func chromeDigest(t *testing.T, workload string, doc []byte) string {
	t.Helper()
	var d struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(doc, &d); err != nil {
		t.Fatal(err)
	}
	names := map[string]int{}
	for _, e := range d.TraceEvents {
		names[e.Name]++
	}
	keys := make([]string, 0, len(names))
	for k := range names {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "%s sha256=%x bytes=%d events=%d\n", workload, sha256.Sum256(doc), len(doc), len(d.TraceEvents))
	for _, k := range keys {
		fmt.Fprintf(&b, "%s %s %d\n", workload, k, names[k])
	}
	return b.String()
}

// TestTraceReplays: the workload views run in lockstep, so building a
// workload twice exports byte-identical Chrome traces, and both documents
// match testdata/chrome_golden.txt across commits. phases' three
// submissions leave the host to pace the idle turns between them, so its
// trace also pins that no host-paced count reaches the document.
// Regenerate deliberately with -update-chrome-golden.
func TestTraceReplays(t *testing.T) {
	trace := func(workload string) []byte {
		rt := runWorkload(16, workload)
		defer rt.Finalize()
		var b bytes.Buffer
		if err := rt.WriteChromeTrace(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	var got strings.Builder
	for _, wl := range []string{"quickstart", "phases"} {
		a, b := trace(wl), trace(wl)
		if !bytes.Equal(a, b) {
			t.Fatalf("two %s runs exported different traces (%d vs %d bytes)", wl, len(a), len(b))
		}
		got.WriteString(chromeDigest(t, wl, a))
	}

	path := filepath.Join("testdata", "chrome_golden.txt")
	if *updateChromeGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-chrome-golden): %v", err)
	}
	if got.String() != string(want) {
		t.Fatalf("Chrome traces differ from %s:\n got:\n%s\nwant:\n%s", path, got.String(), want)
	}
}

var updateFabricGolden = flag.Bool("update-fabric-golden", false,
	"rewrite testdata/fabric_golden.txt from this run instead of comparing against it")

// TestFabricTables pins charm-obs fabric -topo, the link map and per-link
// table, on one spec per link graph: the one-socket hub preset, a
// two-socket star, the heterogeneous mesh preset and a two-socket ring.
// Regenerate deliberately with -update-fabric-golden.
func TestFabricTables(t *testing.T) {
	var got strings.Builder
	for _, spec := range []string{"hub", "star:4x2,sockets=2", "het-mesh", "ring:2x2,sockets=2"} {
		fmt.Fprintf(&got, "== fabric -topo -spec %s\n", spec)
		got.WriteString(runObs(t, "fabric", "-topo", "-spec", spec))
	}

	path := filepath.Join("testdata", "fabric_golden.txt")
	if *updateFabricGolden {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-fabric-golden): %v", err)
	}
	if got.String() != string(want) {
		t.Fatalf("fabric tables differ from %s:\n got:\n%s\nwant:\n%s", path, got.String(), want)
	}
}

// settledClocks waits for the idle fleet to drift up to its maximum clock
// and returns every worker's clock. A worker whose core the run's fault
// schedule has offline at its clock stays blocked there and counts as
// settled (the tenants scenario offlines chiplet 0 for the rest of the
// run; no run below parks a worker for heat after its last job).
func settledClocks(t *testing.T, rt *charm.Runtime, faults *charm.FaultSchedule) []int64 {
	t.Helper()
	plan, err := faults.Compile(rt.Topology())
	if err != nil {
		t.Fatal(err)
	}
	e := rt.Engine()
	for deadline := time.Now().Add(time.Minute); ; runtime.Gosched() {
		max, clocks := e.MaxWorkerClock(), make([]int64, e.Workers())
		settled := true
		for i := range clocks {
			clocks[i] = e.Worker(i).Clock().Now()
			settled = settled && (clocks[i] == max || plan.CoreDown(e.CoreOfWorker(i), clocks[i]))
		}
		if settled {
			return clocks
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet did not settle: clocks %v, maximum %d", clocks, max)
		}
	}
}

// TestObserversInvariant: the profiler, tracing and the metrics registry
// watch the simulated run and never steer it. quickstart, phases and every
// service scenario (overload; thermal with the power plane on; tenants
// with chiplet 0 failing; topo on the heterogeneous ring) run once with
// all three off and once with all three on, and must agree on every
// submission's Stats, the PMU, the settled worker clocks and, for the
// scenarios, the job ledger, latencies, tenant split and power snapshot.
func TestObserversInvariant(t *testing.T) {
	observe := func(on bool) func(*charm.Runtime) {
		return func(rt *charm.Runtime) {
			rt.EnableProfiler(on)
			rt.EnableTracing(on)
			rt.EnableMetrics(on)
		}
	}
	type outcome struct {
		stats  []charm.Stats
		result scenario.Result
		pmu    pmu.Snapshot
		clocks []int64
	}
	finish := func(rt *charm.Runtime, faults *charm.FaultSchedule, o outcome) outcome {
		o.pmu = rt.Machine().PMU.Snapshot()
		o.clocks = settledClocks(t, rt, faults)
		rt.Finalize()
		return o
	}
	runs := map[string]func(on bool) outcome{}
	for name, sc := range map[string]scenario.Scenario{
		"overload": scenario.Overload(scenario.OverloadParams{
			Policy: charm.AdmitShed, QueueCap: scenario.OverloadQueueCap,
			Load: 2, Breakers: true, Thermal: true, SLO: true,
		}),
		"thermal": scenario.Thermal(charm.PlaceLoadAware, true, 0.7),
		"tenants": scenario.Tenants(scenario.Isolated, true, scenario.TenantBFactor),
		"topo":    scenario.Topo("het-ring", charm.PlaceLoadAware),
	} {
		runs[name] = func(on bool) outcome {
			run, err := sc.Run(observe(on))
			if err != nil {
				t.Fatal(err)
			}
			return finish(run.RT, sc.Config.Faults, outcome{result: run.Result})
		}
	}
	for _, wl := range []string{"quickstart", "phases"} {
		runs[wl] = func(on bool) outcome {
			rt, stats := runObserved(workloadConfig(16), wl, observe(on))
			return finish(rt, nil, outcome{stats: stats})
		}
	}
	for name, run := range runs {
		off, on := run(false), run(true)
		if !reflect.DeepEqual(off.stats, on.stats) {
			t.Errorf("%s: Stats differ with observers on:\n off %+v\n  on %+v", name, off.stats, on.stats)
		}
		if !scenario.Same(off.result, on.result) {
			t.Errorf("%s: job ledger differs with observers on:\n off %+v\n  on %+v", name, off.result.Stats, on.result.Stats)
		}
		if !reflect.DeepEqual(off.pmu, on.pmu) {
			t.Errorf("%s: PMU differs with observers on", name)
		}
		if !reflect.DeepEqual(off.clocks, on.clocks) {
			t.Errorf("%s: worker clocks differ with observers on: off %v, on %v", name, off.clocks, on.clocks)
		}
	}
}

// find returns the first submatch of re in out.
func find(t *testing.T, out, re string) string {
	t.Helper()
	m := regexp.MustCompile(re).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("output lacks %q:\n%s", re, out)
	}
	return m[1]
}

// TestPowerMatchesThermalTable: charm-obs power explains the thermal
// table's closed-loop row and -blind its static-rr row, so the figures the
// two tools print for one scenario must be the same figures.
func TestPowerMatchesThermalTable(t *testing.T) {
	tab := harness.Defaults().Thermal()
	for _, c := range []struct {
		row  string
		args []string
	}{
		{"closed-loop", []string{"power"}},
		{"static-rr", []string{"power", "-blind"}},
	} {
		out := runObs(t, c.args...)
		var parks int
		for _, l := range strings.Split(out, "\n") {
			if f := strings.Fields(l); len(f) == 8 && (f[1] == "hot" || f[1] == "cool") {
				n, err := strconv.Atoi(f[7])
				if err != nil {
					t.Fatalf("parks column of %q: %v", l, err)
				}
				parks += n
			}
		}
		energy, err := strconv.ParseFloat(find(t, out, `total energy: ([0-9.]+) mJ`), 64)
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]string{
			"completed": find(t, out, `\(completed (\d+),`),
			"met":       find(t, out, `, met (\d+),`),
			"parks":     strconv.Itoa(parks),
			"maxT_C":    find(t, out, `package: ([0-9.]+) C`),
			"energy_mJ": fmt.Sprintf("%.1f", energy),
		}
		want := tab.Find(c.row)
		for col, g := range got {
			if w := want[tab.Col(col)]; g != w {
				t.Errorf("charm-obs %s: %s = %s, thermal table row %s has %s",
					strings.Join(c.args, " "), col, g, c.row, w)
			}
		}
	}
}

// TestTenantsMatchesTenantsTable: charm-obs tenants explains the tenants
// table's isolated rows and -fault its isolated-fault rows.
func TestTenantsMatchesTenantsTable(t *testing.T) {
	tab := harness.Defaults().Tenants()
	for _, c := range []struct {
		run  string
		args []string
	}{
		{"isolated", []string{"tenants"}},
		{"isolated-fault", []string{"tenants", "-fault"}},
	} {
		out := runObs(t, c.args...)
		rows := 0
		for _, l := range strings.Split(out, "\n") {
			f := strings.Fields(l)
			if len(f) != 13 || (f[0] != "A" && f[0] != "B") {
				continue
			}
			rows++
			// charm-obs columns: tenant submitted admitted completed met
			// goodput% p99_us shed rejected rate_lim leases ...
			got := map[string]string{
				"completed": f[3], "met": f[4], "p99_us": f[6], "shed": f[7],
				"rejected": f[8], "rate_limited": f[9], "leases": f[10],
			}
			var want []string
			for _, r := range tab.Rows {
				if r[0] == c.run && r[1] == f[0] {
					want = r
				}
			}
			if want == nil {
				t.Fatalf("tenants table has no %s row for tenant %s", c.run, f[0])
			}
			for col, g := range got {
				if w := want[tab.Col(col)]; g != w {
					t.Errorf("charm-obs %s: tenant %s %s = %s, tenants table row %s has %s",
						strings.Join(c.args, " "), f[0], col, g, c.run, w)
				}
			}
		}
		if rows != 2 {
			t.Errorf("charm-obs %s: parsed %d tenant rows, want 2:\n%s", strings.Join(c.args, " "), rows, out)
		}
	}
}
