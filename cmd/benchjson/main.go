// Command benchjson converts `go test -bench` text output into a JSON
// document for checked-in benchmark records (BENCH_*.json).
//
// Usage:
//
//	go test -bench . -benchmem ./... | benchjson -o BENCH.json [-note "..."]
//	    [-baseline OLD.json] [-time-cmd "go run ./cmd/charm-bench all"]
//
// The parser accepts the standard benchmark line format
//
//	BenchmarkName-8   1000   1234 ns/op   56 B/op   7 allocs/op   89 MB/s
//
// in any metric order, tees the raw input through to stdout so the run
// stays visible, and records goos/goarch/pkg context lines. Non-benchmark
// lines are ignored. Exits non-zero if the input contains no benchmarks
// (catches an accidentally filtered-out run).
//
// -baseline compares the run against a previously recorded document and
// prints a per-benchmark ns/op and allocs/op delta table. -time-cmd runs a
// shell command after the benches are parsed, wall-clocks it, and records
// the measurement in the document's end_to_end field, so macro numbers in
// checked-in records come from the machine, not from hand-edited notes.
//
// -gate compares the run against a checked-in document like -baseline but
// exits non-zero when any benchmark's ns/op regressed by more than
// -gate-threshold percent (default 15) — the CI regression gate. Benches
// new in this run pass; benches only in the record are ignored.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// Bench is one parsed benchmark result line.
type Bench struct {
	// Name is the full benchmark name including sub-benchmark path, with
	// the -N GOMAXPROCS suffix stripped so records and runs match on any
	// host, e.g. "BenchmarkMachineAccess/dir/readhot".
	Name string `json:"name"`
	// Pkg is the most recent "pkg:" context line, when present.
	Pkg string `json:"pkg,omitempty"`
	// Iterations is the measured iteration count.
	Iterations int64 `json:"iterations"`
	// NsPerOp is the headline ns/op metric.
	NsPerOp float64 `json:"ns_per_op"`
	// MBPerS is throughput when the benchmark calls b.SetBytes.
	MBPerS float64 `json:"mb_per_s,omitempty"`
	// BytesPerOp and AllocsPerOp appear under -benchmem.
	BytesPerOp  int64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64 `json:"allocs_per_op,omitempty"`
}

// Doc is the emitted JSON document.
type Doc struct {
	Note string `json:"note,omitempty"`
	// EndToEnd records a macro measurement (e.g. charm-bench all wall
	// clock) alongside the micro benches.
	EndToEnd string  `json:"end_to_end,omitempty"`
	GOOS     string  `json:"goos,omitempty"`
	GOARCH   string  `json:"goarch,omitempty"`
	CPU      string  `json:"cpu,omitempty"`
	Benches  []Bench `json:"benches"`
}

func main() {
	out := flag.String("o", "", "write JSON to FILE (default stdout only)")
	note := flag.String("note", "", "free-form note recorded in the document")
	baseline := flag.String("baseline", "", "compare against a prior BENCH_*.json and print per-bench deltas")
	timeCmd := flag.String("time-cmd", "", "run CMD via the shell, record its wall time as the end_to_end measurement")
	gate := flag.String("gate", "", "fail (exit 1) when any ns/op regresses past -gate-threshold vs this BENCH_*.json")
	gateThreshold := flag.Float64("gate-threshold", 15, "allowed ns/op regression percentage for -gate")
	flag.Parse()

	doc := Doc{Note: *note}
	pkg := ""
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line)
		switch {
		case strings.HasPrefix(line, "goos:"):
			doc.GOOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			doc.GOARCH = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		default:
			if b, ok := parseBench(line); ok {
				b.Pkg = pkg
				doc.Benches = append(doc.Benches, b)
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(doc.Benches) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines in input")
		os.Exit(1)
	}
	if *baseline != "" {
		printDeltas(*baseline, doc.Benches)
	}
	if *gate != "" {
		if !gateBenches(*gate, doc.Benches, *gateThreshold) {
			os.Exit(1)
		}
	}
	if *timeCmd != "" {
		doc.EndToEnd = measureCmd(*timeCmd)
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		err = enc.Encode(doc)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchjson: wrote %d benches to %s\n", len(doc.Benches), *out)
	}
}

// printDeltas compares the parsed benches against a previously recorded
// document and prints an aligned ns/op and allocs/op delta table. Benches
// absent from the baseline print as new; baseline-only benches are ignored
// (a narrowed -bench filter should not read as a regression).
func printDeltas(path string, benches []Bench) {
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	var old Doc
	if err := json.Unmarshal(raw, &old); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %s: %v\n", path, err)
		os.Exit(1)
	}
	prev := make(map[string]Bench, len(old.Benches))
	for _, b := range old.Benches {
		prev[b.Name] = b
	}
	fmt.Printf("\nbenchjson: deltas vs %s\n", path)
	for _, b := range benches {
		o, ok := prev[b.Name]
		if !ok {
			fmt.Printf("  %-48s %38s\n", b.Name,
				fmt.Sprintf("(new) %.4g ns/op, %d allocs/op", b.NsPerOp, b.AllocsPerOp))
			continue
		}
		speed := "" // ratio only when both sides are meaningful
		if b.NsPerOp > 0 && o.NsPerOp > 0 {
			speed = fmt.Sprintf(" (%.2fx)", o.NsPerOp/b.NsPerOp)
		}
		fmt.Printf("  %-48s %12.4g -> %-10.4g ns/op%-9s %4d -> %-4d allocs/op\n",
			b.Name, o.NsPerOp, b.NsPerOp, speed, o.AllocsPerOp, b.AllocsPerOp)
	}
}

// gateBenches compares the run against the checked-in record and reports
// whether every benchmark stayed within threshold percent of its recorded
// ns/op. Every regression past the threshold is listed before the verdict
// so one run surfaces all of them.
func gateBenches(path string, benches []Bench, threshold float64) bool {
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return false
	}
	var old Doc
	if err := json.Unmarshal(raw, &old); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %s: %v\n", path, err)
		return false
	}
	prev := make(map[string]Bench, len(old.Benches))
	for _, b := range old.Benches {
		prev[b.Name] = b
	}
	ok := true
	checked := 0
	for _, b := range benches {
		o, found := prev[b.Name]
		if !found || o.NsPerOp <= 0 || b.NsPerOp <= 0 {
			continue
		}
		checked++
		pct := 100 * (b.NsPerOp - o.NsPerOp) / o.NsPerOp
		if pct > threshold {
			fmt.Fprintf(os.Stderr, "benchjson: GATE FAIL %s: %.4g -> %.4g ns/op (+%.1f%% > %.0f%%)\n",
				b.Name, o.NsPerOp, b.NsPerOp, pct, threshold)
			ok = false
		}
	}
	if checked == 0 {
		fmt.Fprintf(os.Stderr, "benchjson: gate matched no benchmarks against %s\n", path)
		return false
	}
	if ok {
		fmt.Fprintf(os.Stderr, "benchjson: gate passed: %d benches within %.0f%% of %s\n",
			checked, threshold, path)
	}
	return ok
}

// measureCmd runs cmd via the shell with output to stderr (stdout carries
// the teed bench text) and returns the recorded wall-time measurement.
func measureCmd(cmd string) string {
	fmt.Fprintf(os.Stderr, "benchjson: timing %q\n", cmd)
	c := exec.Command("sh", "-c", cmd)
	c.Stdout = os.Stderr
	c.Stderr = os.Stderr
	start := time.Now()
	err := c.Run()
	wall := time.Since(start).Round(100 * time.Millisecond)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: time-cmd: %v\n", err)
		os.Exit(1)
	}
	return fmt.Sprintf("%s: %s wall", cmd, wall)
}

// parseBench parses one "Benchmark... N metrics" line. Metrics come in
// value-unit pairs ("1234 ns/op", "89.5 MB/s"); unknown units are skipped
// so new testing metrics don't break the parser. The trailing -N
// GOMAXPROCS suffix (absent on a 1-proc host) is dropped from the name.
func parseBench(line string) (Bench, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return Bench{}, false
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Bench{}, false
	}
	b := Bench{Name: stripProcs(f[0]), Iterations: iters}
	seen := false
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Bench{}, false
		}
		switch f[i+1] {
		case "ns/op":
			b.NsPerOp = v
			seen = true
		case "MB/s":
			b.MBPerS = v
		case "B/op":
			b.BytesPerOp = int64(v)
		case "allocs/op":
			b.AllocsPerOp = int64(v)
		}
	}
	return b, seen
}

// stripProcs removes the "-N" GOMAXPROCS suffix go test appends to
// benchmark names when N > 1.
func stripProcs(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 || i == len(name)-1 {
		return name
	}
	for _, c := range name[i+1:] {
		if c < '0' || c > '9' {
			return name
		}
	}
	return name[:i]
}
