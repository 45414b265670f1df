package harness

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"charm"
	"charm/internal/scenario"
)

var (
	updateServiceGolden = flag.Bool("update-service-golden", false,
		"rewrite testdata/service_golden.txt from this run instead of comparing against it")
	updateResultsGolden = flag.Bool("update-results-golden", false,
		"rewrite testdata/results_golden.txt from this run instead of comparing against it")
)

// serviceDigest hashes one run's admission ledger and every completed job's
// latency, in arrival order.
func serviceDigest(stats charm.JobStats, lats []int64) string {
	h := sha256.New()
	fmt.Fprintf(h, "%+v\n", stats)
	for _, l := range lats {
		fmt.Fprintf(h, "%d\n", l)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// writeTable appends a table in the golden files' format: an "== id" line,
// then the header and every row, cells joined by single spaces.
func writeTable(b *strings.Builder, tab *Table) {
	fmt.Fprintf(b, "== %s\n", tab.ID)
	fmt.Fprintln(b, strings.Join(tab.Header, " "))
	for _, r := range tab.Rows {
		fmt.Fprintln(b, strings.Join(r, " "))
	}
}

// checkGolden compares got with testdata/name line by line and reports the
// first difference, or rewrites the file when update is set (the flag is
// named in the failure message).
func checkGolden(t *testing.T, name, got string, update bool, flagName string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with %s): %v", flagName, err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s mismatch at line %d (regenerate with %s for a deliberate change):\n got: %s\nwant: %s",
				name, i+1, flagName, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("%s mismatch: got %d lines, want %d", name, len(gl), len(wl))
	}
}

// TestServiceGolden pins the four deterministic service experiments across
// commits: the full overload, thermal and tenants tables, and for topo one
// cell's ledger, p99 and per-job latency digest (the whole table is 30
// runs). A refactor of the scenario builders may not change the file;
// regenerate it for a deliberate behaviour change with
// -update-service-golden.
func TestServiceGolden(t *testing.T) {
	var b strings.Builder
	for _, id := range []string{"overload", "thermal", "tenants"} {
		writeTable(&b, testTable(t, id))
	}
	const spec = "mesh:4x2,fast=2,eff=4,accel=2"
	r := testOptions().serve(scenario.Topo(spec, charm.PlaceLoadAware), nil)
	fmt.Fprintf(&b, "== topo\n%s load-aware %+v\n", spec, r.Stats)
	fmt.Fprintf(&b, "jobs=%d span=%d p99_us=%s goodput_pct=%s digest=%s\n", len(r.Lats), r.Span,
		f1(r.P99us()), f1(r.GoodputPct()), serviceDigest(r.Stats, r.Lats))
	checkGolden(t, "service_golden.txt", b.String(), *updateServiceGolden, "-update-service-golden")
}

// resultsGoldenIDs are the experiments pinned by TestResultsGolden: the
// ones that ran free-running, and so printed a different sample each run,
// before every harness runtime went lockstep, except fig7 and fig8 (about
// two seconds each even at testOptions() scale), plus fig9, whose
// no-runtime-support baseline is the one naive-placement cell of the tables.
var resultsGoldenIDs = []string{"abl", "fig1", "fig10", "fig11", "fig12", "fig13", "fig14",
	"fig5", "fig9", "gran", "sens", "tab1"}

// TestResultsGolden pins the cheap experiment tables at testOptions()
// scale across commits, so a change of simulated behaviour shows up as a
// reviewed diff of testdata/results_golden.txt rather than as a shape test
// that still happens to pass. Regenerate it for a deliberate behaviour
// change with -update-results-golden.
func TestResultsGolden(t *testing.T) {
	t.Parallel()
	var b strings.Builder
	for _, id := range resultsGoldenIDs {
		writeTable(&b, testTable(t, id))
	}
	checkGolden(t, "results_golden.txt", b.String(), *updateResultsGolden, "-update-results-golden")
}
