// Command bench is the repository's end-to-end benchmark: four workloads
// driven through the charm facade, verified on every pass, with a traced
// section (phase spans, boundary counters, a CPU profile folded by layer)
// and per-layer probes. See README.md for the metrics and how to read them;
// BENCHMARK.json at the repository root records names, units and bounds.
//
//	bench                       all workloads, one process each, one JSON document
//	bench -workload graph-det   one workload in this process; the last line of
//	                            output is the {correct, attempted, failed, metrics} object
//	bench -compare a.json b.json
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

const (
	defaultSeed    = 42
	defaultSeconds = 12 // BENCHMARK.json's run_seconds
	minPasses      = 5
	// Probe rounds: a full run takes the median of 5 x 0.2 s per probe; a
	// single-workload run splits a third of its window over all probes.
	fullProbeRounds = 5
	fullProbeOp     = 200 * time.Millisecond
	quickRounds     = 3
)

// header records where and how a document was measured.
type header struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPU        string  `json:"cpu"`
	GitRev     string  `json:"git_rev"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Smoke      bool    `json:"smoke,omitempty"`
}

// document is what one invocation prints: every workload it ran and, for a
// full run, the workload-independent probes.
type document struct {
	Header        header            `json:"header"`
	Workloads     []*report         `json:"workloads"`
	Probes        map[string]metric `json:"probes,omitempty"`
	ProbeFailures []string          `json:"probe_failures,omitempty"`
}

// result is the line the benchmark driver reads: the last line of a
// single-workload run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "run only this workload, in this process (default: all, one process each)")
		seed    = fs.Uint64("seed", defaultSeed, "workload seed: the same seed gives the same inputs")
		seconds = fs.Float64("seconds", defaultSeconds, "measuring window of one workload")
		passes  = fs.Int("passes", minPasses, "minimum timed passes per workload")
		trace   = fs.Int("trace", -1, "0: end-to-end section only; 1: traced section and probes only (default: both)")
		noTrace = fs.Bool("no-trace", false, "same as -trace 0")
		smoke   = fs.Bool("smoke", false, "tiny inputs, one pass: exercises every path in seconds")
		doProbe = fs.Bool("probes", true, "run the per-layer probes with the traced section")
		cmp     = fs.Bool("compare", false, "compare two documents: bench -compare a.json b.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cmp {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two documents")
			return 2
		}
		ok, err := compare(fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		if !ok {
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 || *trace < -1 || *trace > 1 || *seconds < 0 || *passes < 1 {
		fmt.Fprintln(stderr, "bench: bad arguments; see -help")
		return 2
	}
	if *noTrace {
		*trace = 0
	}

	nproc := runtime.NumCPU()
	if nproc > 4 {
		runtime.GOMAXPROCS(4)
	}
	opt := options{
		seed:        *seed,
		sz:          fullSizes,
		window:      time.Duration(*seconds * float64(time.Second)),
		passes:      *passes,
		e2e:         *trace != 1,
		traced:      *trace != 0,
		probeRounds: quickRounds,
	}
	opt.probes = opt.traced && *doProbe
	opt.probeOp = opt.window / 3 / time.Duration(len(probes)*quickRounds)
	if *smoke {
		opt.sz, opt.window, opt.passes, opt.probeOp = smokeSizes, 0, 1, 0
	}
	doc := &document{Header: header{
		NProc:      nproc,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		GitRev:     gitRev(),
		Seed:       *seed,
		Seconds:    *seconds,
		Smoke:      *smoke,
	}}

	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		r := measure(w, opt)
		doc.Workloads = []*report{r}
		res := result{Correct: r.OpsFailed == 0, Attempted: r.OpsTotal, Failed: r.OpsFailed, Metrics: map[string]metric{}}
		for _, section := range []map[string]metric{r.EndToEnd, r.PerLayer} {
			for k, m := range section {
				res.Metrics[k] = metric{Value: m.Value, Unit: m.Unit}
			}
		}
		if err := printJSON(stdout, doc, false); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		if err := printJSON(stdout, res, false); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		return exitCode(stderr, r.Failures)
	}

	// Full run: one child process per workload, so peak_rss_mb is per
	// workload; the probes run once, here.
	var failures []string
	for i := range workloads {
		childArgs := append(append([]string(nil), args...), "-workload", workloads[i].name, "-probes=false")
		r, err := runChild(childArgs, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", workloads[i].name, err)
			return 2
		}
		doc.Workloads = append(doc.Workloads, r)
		failures = append(failures, r.Failures...)
	}
	if opt.probes {
		rounds, op := fullProbeRounds, fullProbeOp
		if *smoke {
			rounds, op = 1, 0
		}
		pl := map[string]float64{}
		_, doc.ProbeFailures = runProbes(rounds, op, pl)
		doc.Probes = map[string]metric{}
		for _, s := range probeSpecs() {
			doc.Probes[s.name] = metric{Value: pl[s.name], Unit: s.unit}
		}
		failures = append(failures, doc.ProbeFailures...)
	}
	if err := printJSON(stdout, doc, true); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	return exitCode(stderr, failures)
}

// exitCode reports failed checks on stderr and turns them into a status.
func exitCode(stderr io.Writer, failures []string) int {
	for _, f := range failures {
		fmt.Fprintln(stderr, "bench: FAILED:", f)
	}
	if len(failures) > 0 {
		return 1
	}
	return 0
}

func printJSON(w io.Writer, v any, indent bool) error {
	enc := json.NewEncoder(w)
	if indent {
		enc.SetIndent("", "  ")
	}
	if err := enc.Encode(v); err != nil {
		return fmt.Errorf("bench: writing results: %w", err)
	}
	return nil
}

// runChild re-executes this program for one workload, waits for it, and
// returns the report from the document on the first line of its output. A
// child that failed checks still hands its report back.
func runChild(args []string, stderr io.Writer) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = stderr
	out, err := cmd.Output()
	var exit *exec.ExitError
	if err != nil && !(errors.As(err, &exit) && exit.ExitCode() == 1) {
		return nil, err
	}
	line, _, _ := bytes.Cut(out, []byte("\n"))
	var doc document
	if err := json.Unmarshal(line, &doc); err != nil {
		return nil, fmt.Errorf("reading the child's document: %w", err)
	}
	if len(doc.Workloads) != 1 {
		return nil, fmt.Errorf("child reported %d workloads, want 1", len(doc.Workloads))
	}
	return doc.Workloads[0], nil
}

// cpuModel is the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				return strings.TrimSpace(v)
			}
		}
	}
	return "unknown"
}

// gitRev is the checkout's commit, or "unknown" outside a git repository.
// It looks for the repository only where the benchmark can be started from:
// the repository root and this directory.
func gitRev() string {
	if _, err := os.Stat(".git"); err != nil {
		if _, err := os.Stat("../.git"); err != nil {
			return "unknown"
		}
	}
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
