package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// asMainEnv makes the test binary behave as the benchmark program: a full
// run re-executes os.Executable() once per workload, and under `go test`
// that is this binary.
const asMainEnv = "CHARM_BENCH_TEST_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMainEnv) == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmokeMatchesBenchmarkJSON runs the whole program on smoke sizes —
// parent, one child per workload, traced section, probes — and checks that
// every workload and metric BENCHMARK.json names comes out with its unit.
func TestSmokeMatchesBenchmarkJSON(t *testing.T) {
	spec, err := loadBenchSpec()
	if err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("BENCHMARK.json run_seconds = %d, the program's default window is %d", spec.RunSeconds, defaultSeconds)
	}

	t.Setenv(asMainEnv, "1")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-smoke"}, &stdout, &stderr); code != 0 {
		t.Fatalf("bench -smoke exited %d\n%s", code, stderr.String())
	}
	var doc document
	if err := json.Unmarshal(stdout.Bytes(), &doc); err != nil {
		t.Fatalf("document: %v", err)
	}
	h := doc.Header
	if h.NProc < 1 || h.GOMAXPROCS < 1 || h.GOMAXPROCS > 4 || h.GoVersion == "" || h.CPU == "" || h.GitRev == "" || !h.Smoke {
		t.Errorf("incomplete header: %+v", h)
	}
	if len(doc.Workloads) != len(spec.Workloads) {
		t.Fatalf("document has %d workloads, BENCHMARK.json %d", len(doc.Workloads), len(spec.Workloads))
	}
	for i, r := range doc.Workloads {
		if r.Workload != spec.Workloads[i].Name {
			t.Errorf("workload %d is %q, BENCHMARK.json says %q", i, r.Workload, spec.Workloads[i].Name)
		}
		w := findWorkload(r.Workload)
		if w == nil {
			t.Fatalf("unknown workload %q", r.Workload)
		}
		if r.OpsTotal < 1 || r.OpsFailed != 0 {
			t.Errorf("%s: ops_total %d, ops_failed %d: %v", r.Workload, r.OpsTotal, r.OpsFailed, r.Failures)
		}
		if (r.SimDigest != "") != w.det {
			t.Errorf("%s: sim_digest %q, deterministic %v", r.Workload, r.SimDigest, w.det)
		}
		for _, m := range spec.EndToEnd {
			got, ok := r.EndToEnd[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("%s: end-to-end metric %s [%s] missing or in unit %q", r.Workload, m.Name, m.Unit, got.Unit)
			}
			if got.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", r.Workload, m.Name, got.Value)
			}
		}
		for _, m := range spec.PerLayer {
			got, ok := r.PerLayer[m.Name]
			if !ok {
				got, ok = doc.Probes[m.Name]
			}
			if !ok || got.Unit != m.Unit {
				t.Errorf("%s: per-layer metric %s [%s] missing or in unit %q", r.Workload, m.Name, m.Unit, got.Unit)
			}
		}
		if n := len(r.EndToEnd); n != len(spec.EndToEnd) {
			t.Errorf("%s: %d end-to-end metrics, BENCHMARK.json lists %d", r.Workload, n, len(spec.EndToEnd))
		}
		if n := len(r.PerLayer) + len(doc.Probes); n != len(spec.PerLayer) {
			t.Errorf("%s: %d per-layer metrics, BENCHMARK.json lists %d", r.Workload, n, len(spec.PerLayer))
		}
	}
	for _, m := range append(append([]boundedSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !metricName.MatchString(m.Name) {
			t.Errorf("metric name %q does not match %v", m.Name, metricName)
		}
	}
	for _, w := range spec.Workloads {
		if !metricName.MatchString(w.Name) {
			t.Errorf("workload name %q does not match %v", w.Name, metricName)
		}
	}
}

// TestResultLine checks the line the benchmark driver reads: exactly the
// end-to-end metrics with -trace 0, exactly the per-layer ones with -trace 1.
func TestResultLine(t *testing.T) {
	spec, err := loadBenchSpec()
	if err != nil {
		t.Fatal(err)
	}
	for trace, want := range map[string][]boundedSpec{"0": spec.EndToEnd, "1": spec.PerLayer} {
		var stdout, stderr bytes.Buffer
		args := []string{"--workload", "topo-fabrics", "--seed", "7", "--seconds", "0", "--trace", trace, "-smoke"}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("bench %v exited %d\n%s", args, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("-trace %s: last line: %v", trace, err)
		}
		if len(res) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil || res["metrics"] == nil {
			t.Errorf("-trace %s: result keys %v, want correct, attempted, failed, metrics", trace, res)
		}
		if string(res["correct"]) != "true" || string(res["failed"]) != "0" {
			t.Errorf("-trace %s: correct=%s failed=%s", trace, res["correct"], res["failed"])
		}
		var metrics map[string]metric
		if err := json.Unmarshal(res["metrics"], &metrics); err != nil {
			t.Fatalf("-trace %s: metrics: %v", trace, err)
		}
		if len(metrics) != len(want) {
			t.Errorf("-trace %s: %d metrics, want %d", trace, len(metrics), len(want))
		}
		for _, m := range want {
			if got, ok := metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("-trace %s: metric %s [%s] missing or in unit %q", trace, m.Name, m.Unit, got.Unit)
			}
		}
	}
}

func TestNearestRank(t *testing.T) {
	hundred := make([]int64, 100)
	for i := range hundred {
		hundred[i] = int64(100 - i) // 100..1, unsorted
	}
	for _, tc := range []struct {
		vals []int64
		p    int
		want int64
	}{
		{nil, 99, 0},
		{[]int64{7}, 99, 7},
		{[]int64{3, 1, 2}, 50, 2},
		{[]int64{3, 1, 2}, 100, 3},
		{[]int64{4, 3, 2, 1}, 50, 2},
		{hundred, 99, 99},
		{hundred, 1, 1},
		{append([]int64{1000}, hundred...), 99, 100}, // 101 samples: rank ceil(99.99) = 100
	} {
		if got := nearestRank(tc.vals, tc.p); got != tc.want {
			t.Errorf("nearestRank(%d values, p%d) = %d, want %d", len(tc.vals), tc.p, got, tc.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{id: 0, parent: -1, name: "pass", start: ms(0), end: ms(100)},
		{id: 1, parent: 0, name: "init", start: ms(5), end: ms(15)},
		{id: 2, parent: 0, name: "run", start: ms(15), end: ms(85)},
		{id: 3, parent: 2, name: "export", start: ms(20), end: ms(50)},
		{id: 4, parent: 0, name: "init", start: ms(85), end: ms(90)}, // same name twice: summed
	}
	want := map[string]time.Duration{"pass": ms(15), "init": ms(15), "run": ms(40), "export": ms(30)}
	got := selfTimes(spans)
	if len(got) != len(want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	for name, d := range want {
		if got[name] != d {
			t.Errorf("self time of %q = %v, want %v", name, got[name], d)
		}
	}

	tr := newTracer()
	outer := tr.begin("outer")
	inner := tr.begin("inner")
	tr.end(inner)
	tr.end(outer)
	if tr.spans[inner].parent != outer || tr.spans[outer].parent != -1 {
		t.Errorf("tracer parents: %+v", tr.spans)
	}
	var off *tracer
	off.end(off.begin("ignored")) // a nil tracer records nothing and must not panic
}

// parseTraces reads the text `go tool pprof -traces -lines` prints: samples
// separated by dashed lines, the first line of each carrying the value,
// every line a frame "function file:line", innermost first.
func parseTraces(t *testing.T, text string) []stackSample {
	t.Helper()
	var out []stackSample
	var cur *stackSample
	for _, line := range strings.Split(text, "\n") {
		switch {
		case strings.HasPrefix(line, "-----"):
			if cur != nil && len(cur.frames) > 0 {
				out = append(out, *cur)
			}
			cur = &stackSample{}
			continue
		case cur == nil || strings.TrimSpace(line) == "":
			continue // header
		}
		fields := strings.Fields(line)
		if !strings.HasPrefix(line, "             ") {
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				t.Fatalf("sample value in %q: %v", line, err)
			}
			cur.ns = d.Nanoseconds()
			fields = fields[1:]
		}
		if fields[len(fields)-1] == "(inline)" {
			fields = fields[:len(fields)-1]
		}
		loc := fields[len(fields)-1]
		cur.frames = append(cur.frames, frame{
			fn:   strings.Join(fields[:len(fields)-1], " "),
			file: loc[:strings.LastIndex(loc, ":")],
		})
	}
	if cur != nil && len(cur.frames) > 0 {
		out = append(out, *cur)
	}
	return out
}

func TestFoldProfileFixture(t *testing.T) {
	text, err := os.ReadFile("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	samples := parseTraces(t, string(text))
	if len(samples) != 16 {
		t.Fatalf("fixture parsed into %d samples, want 16", len(samples))
	}
	ms := int64(time.Millisecond)
	want := map[string]int64{
		"cache":         30 * ms, // innermost module frame wins over sim and core above it
		"sim":           10 * ms,
		"core.lockstep": 50 * ms, // sync/runtime time under lockstep.go is lockstep's
		"core.ctx":      20 * ms, // ctx.go and fastpath.go
		"core.job":      20 * ms, // job.go and tenants.go
		"core.worker":   10 * ms, // every other file of core
		"workloads":     10 * ms, // charm/internal/workloads/graph
		"task":          10 * ms, // generic receiver
		"charm":         10 * ms, // the facade package
		"bench":         10 * ms,
		"go-runtime":    40 * ms, // no module frame: GC, idle scheduler
	}
	got := foldProfile(samples)
	var total, sum int64
	for _, s := range samples {
		total += s.ns
	}
	for layer, ns := range got {
		sum += ns
		if !isCPULayer[layer] {
			t.Errorf("folded into unknown layer %q", layer)
		}
	}
	if sum != total {
		t.Errorf("buckets sum to %d ns, profile total is %d ns", sum, total)
	}
	if len(got) != len(want) {
		t.Errorf("folded layers %v, want %v", got, want)
	}
	for layer, ns := range want {
		if got[layer] != ns {
			t.Errorf("layer %s = %d ms, want %d ms", layer, got[layer]/ms, ns/ms)
		}
	}
}

// burn keeps the CPU busy so a profile has something to sample.
func burn(d time.Duration) {
	x := uint64(1)
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1<<16; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	sink += int64(x >> 40)
}

// TestParseProfile decodes a profile the runtime just wrote: the in-tree
// profile.proto reader must agree with runtime/pprof's encoding.
func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profile unavailable: %v", err)
	}
	burn(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var inBurn, total int64
	for _, s := range samples {
		total += s.ns
		for _, f := range s.frames {
			if strings.HasSuffix(f.fn, ".burn") && strings.HasSuffix(f.file, "bench_test.go") {
				inBurn += s.ns
				break
			}
		}
	}
	if total <= 0 || inBurn*2 < total {
		t.Errorf("%d samples, %d ns in total, %d ns under burn: want most of the profile there", len(samples), total, inBurn)
	}
	if got := foldProfile(samples)["bench"]; got < inBurn {
		t.Errorf("bench layer = %d ns, less than the %d ns sampled under burn", got, inBurn)
	}

	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("parseProfile accepted garbage")
	}
}

func TestWorsening(t *testing.T) {
	for _, tc := range []struct {
		a, b   float64
		better string
		want   float64
	}{
		{10, 11, "lower", 0.1},
		{10, 9, "lower", -0.1},
		{10, 9, "higher", 0.1},
		{10, 12, "higher", -0.2},
		{0, 5, "lower", 0},
	} {
		if got := worsening(tc.a, tc.b, tc.better); got < tc.want-1e-12 || got > tc.want+1e-12 {
			t.Errorf("worsening(%v, %v, %s) = %v, want %v", tc.a, tc.b, tc.better, got, tc.want)
		}
	}
}
