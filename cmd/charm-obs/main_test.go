package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"charm/internal/harness"
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

// TestTraceReplays: the workload views run in lockstep, so building the
// quickstart workload twice exports byte-identical Chrome traces. The
// live_tasks track comes from the task spans, so it replays on phases too,
// whose three submissions leave the host to pace the idle turns between
// them.
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
	a, b := trace("quickstart"), trace("quickstart")
	if !bytes.Equal(a, b) {
		t.Fatalf("two quickstart runs exported different traces (%d vs %d bytes)", len(a), len(b))
	}
	if len(a) < 1000 {
		t.Fatalf("trace is %d bytes; expected task spans and counter tracks", len(a))
	}
	live := func(doc []byte) []string {
		var d struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		if err := json.Unmarshal(doc, &d); err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, e := range d.TraceEvents {
			if bytes.Contains(e, []byte(`"name":"live_tasks"`)) {
				out = append(out, string(e))
			}
		}
		return out
	}
	p1, p2 := live(trace("phases")), live(trace("phases"))
	if len(p1) == 0 {
		t.Fatal("phases trace has no live_tasks events")
	}
	if strings.Join(p1, "\n") != strings.Join(p2, "\n") {
		t.Fatalf("two phases runs exported different live_tasks tracks (%d vs %d events)", len(p1), len(p2))
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
