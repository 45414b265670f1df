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

var updateServiceGolden = flag.Bool("update-service-golden", false,
	"rewrite testdata/service_golden.txt from this run instead of comparing against it")

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

// TestServiceGolden pins the four deterministic service experiments across
// commits: the full overload, thermal and tenants tables, and for topo one
// cell's ledger, p99 and per-job latency digest (the whole table is 30
// runs). A refactor of the scenario builders may not change the file;
// regenerate it for a deliberate behaviour change with
// -update-service-golden.
func TestServiceGolden(t *testing.T) {
	o := testOptions()
	var b strings.Builder
	for _, tab := range []*Table{o.Overload(), o.Thermal(), o.Tenants()} {
		fmt.Fprintf(&b, "== %s\n", tab.ID)
		fmt.Fprintln(&b, strings.Join(tab.Header, " "))
		for _, r := range tab.Rows {
			fmt.Fprintln(&b, strings.Join(r, " "))
		}
	}
	const spec = "mesh:4x2,fast=2,eff=4,accel=2"
	r := o.serve(scenario.Topo(spec, charm.PlaceLoadAware), nil)
	fmt.Fprintf(&b, "== topo\n%s load-aware %+v\n", spec, r.Stats)
	fmt.Fprintf(&b, "jobs=%d span=%d p99_us=%s goodput_pct=%s digest=%s\n", len(r.Lats), r.Span,
		f1(r.P99us()), f1(r.GoodputPct()), serviceDigest(r.Stats, r.Lats))
	got := b.String()

	path := filepath.Join("testdata", "service_golden.txt")
	if *updateServiceGolden {
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
		t.Fatalf("read golden (regenerate with -update-service-golden): %v", err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("golden mismatch at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("golden mismatch: got %d lines, want %d", len(gl), len(wl))
	}
}
