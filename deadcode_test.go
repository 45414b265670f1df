//go:build deadcode

// TestDeadcode keeps the module free of code that no program runs. It
// links every root binary — the three commands and the nested bench
// module — with the linker's reachability dump, and fails
// naming each non-test function outside bench/ that no root reaches and
// that deadcodeAllow does not list. Inlining is off (-gcflags=all=-l):
// an inlined callee leaves no edge in the dump.
//
// It builds four binaries (tens of seconds cold), so tier-1 does not run
// it; run it with `make deadcode`. The Example functions are tests, not
// roots: a facade function only they call needs an entry below.
package charm_test

import (
	"bufio"
	"bytes"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// deadcodeAllow lists the functions that stay although no root binary
// links them. Each value is the reason: it starts with one of
// deadcodeClasses and, for a helper another package's tests use, names
// that test.
var deadcodeAllow = map[string]string{
	// The paper's primitives (§4) and the job handle, as the facade
	// exports them and as core implements them.
	"charm.(*Runtime).AllDoCo":                      "paper primitive: AllDoCo",
	"charm.(*Runtime).CounterOf":                    "paper primitive: CounterOf",
	"charm.(*Runtime).JobServer":                    "paper primitive: JobServer",
	"charm.(*Runtime).LiveTasks":                    "paper primitive: LiveTasks",
	"charm.(*Runtime).NewBarrier":                   "paper primitive: Runtime.NewBarrier",
	"charm.(*Runtime).OwnerOf":                      "paper primitive: OwnerOf",
	"charm.(*Runtime).SubmitJob":                    "paper primitive: SubmitJob",
	"charm.(*Runtime).SpreadRate":                   "paper primitive: spread_rate (§4.2), read by Example_quickstart and Example_analytics",
	"charm/internal/core.(*Runtime).AllDoCo":        "paper primitive: AllDoCo",
	"charm/internal/core.(*Runtime).JobServer":      "paper primitive: JobServer",
	"charm/internal/core.(*Runtime).LiveTasks":      "paper primitive: LiveTasks",
	"charm/internal/core.(*Runtime).NewBarrier":     "paper primitive: Runtime.NewBarrier",
	"charm/internal/core.(*Runtime).SubmitJob":      "paper primitive: SubmitJob",
	"charm/internal/core.(*JobService).admitLocked": "paper primitive: SubmitJob's admission, its only caller",
	"charm/internal/core.(*JobService).tenantOf":    "paper primitive: SubmitJob's tenant routing, its only caller",
	"charm/internal/core.(*RtBarrier).enter":        "paper primitive: Ctx.Barrier's arrival",
	"charm/internal/core.(*RtBarrier).wait":         "paper primitive: Ctx.Barrier's wait",
	"charm/internal/core.(*barGen).released":        "paper primitive: Ctx.Barrier's release test",
	"charm/internal/core.(*Ctx).Barrier":            "paper primitive: Ctx.Barrier",
	"charm/internal/core.(*Ctx).Call":               "paper primitive: Ctx.Call",
	"charm/internal/core.(*Ctx).CallAsync":          "paper primitive: Ctx.CallAsync",
	"charm/internal/core.(*Ctx).DelegateAsync":      "paper primitive: Ctx.DelegateAsync, run by Example_delegation",
	"charm/internal/core.(*Ctx).DelegateBatch":      "paper primitive: Ctx.DelegateBatch, run by Example_delegation",
	"charm/internal/core.(*Runtime).OwnerOf":        "paper primitive: OwnerOf",
	"charm/internal/fabric.(*Fabric).MessageDelay":  "paper primitive: the message cost Ctx.Call, Ctx.CallAsync and Ctx.DelegateBatch charge",
	"charm/internal/core.(*Runtime).liveTarget":     "paper primitive: Ctx.Call's and Ctx.CallAsync's redirect around offline cores",
	"charm/internal/core.(*Worker).SpreadRate":      "paper primitive: spread_rate (§4.2), as charm.Runtime.SpreadRate reads it",
	"charm/internal/core.(*Ctx).Delegate":           "paper primitive: Ctx.Delegate",
	"charm/internal/core.(*Ctx).Alloc":              "Ctx accessor",
	"charm/internal/core.(*Ctx).Chiplet":            "Ctx accessor",
	"charm/internal/core.(*Ctx).Event":              "Ctx accessor",
	"charm/internal/core.(*Ctx).Now":                "Ctx accessor",
	"charm/internal/core.(*Ctx).Runtime":            "Ctx accessor",
	"charm/internal/core.(*Job).Cancel":             "job handle: Cancel",
	"charm/internal/core.(*Job).Deadline":           "job handle: Job accessor",
	"charm/internal/core.(*Job).Priority":           "job handle: Job accessor",
	"charm/internal/core.(*Job).Tenant":             "job handle: Job accessor",

	// Input grammars the scenario-spec and admission work builds on.
	"charm/internal/admit.ParsePolicy": "input grammar: admission policy names",
	"charm/internal/tenant.ParseSpec":  "input grammar: tenant specs",
	"charm/internal/tenant.atoi":       "input grammar: tenant.ParseSpec's integer fields",
	"charm/internal/tenant.parseDur":   "input grammar: tenant.ParseSpec's durations",

	"charm/internal/topology.LatencyClass.String":  "String method",
	"charm/internal/workloads/sgd.Strategy.String": "String method",

	"charm/internal/sim.(*directory).forEach":           "reference model: walks the coherence directory that TestDirectoryMatchesScanState checks against L3 tag scans",
	"charm/internal/sim.(*directory).lines":             "reference model: directory size that TestAccessStreamMatchesReference compares between twin machines",
	"charm/internal/workloads/graph.(*CSR).Validate":    "reference model: the CSR invariants the generator tests check",
	"charm/internal/workloads/oltp.(*Engine).RecordSum": "reference model: YCSB conservation audit (TestYCSBRecordInvariant)",
	"charm/internal/workloads/oltp.(*Engine).YTDSum":    "reference model: TPC-C payment audit (TestTPCCCommitsAndInvariant, TestTPCCFullMixRuns)",

	"charm/internal/admit.NewTrace":                 "another package's test: core TestLockstepGolden (idle-fault-park) and TestParkedFleetWakes replay fixed arrivals",
	"charm/internal/admit.(*Trace).Next":            "another package's test: core TestLockstepGolden, TestParkedFleetWakes (admit.NewTrace)",
	"charm/internal/admit.(*Estimator).Count":       "another package's test: core TestTenantEstimatorIsolation",
	"charm/internal/core.(*Worker).Clock":           "another package's test: cmd/charm-obs TestObserversInvariant reads settled clocks",
	"charm/internal/fabric.(*Fabric).LinkUtilMilli": "another package's test: sim TestAccessStreamMatchesReference",
	"charm/internal/fabric.Kinds":                   "another package's test: core TestFabricReplayBitIdentical, sim TestAccessStreamMatchesReference",
	"charm/internal/harness.(*Table).Col":           "another package's test: cmd/charm-obs TestPowerMatchesThermalTable, TestTenantsMatchesTenantsTable",
	"charm/internal/harness.(*Table).Find":          "another package's test: cmd/charm-obs TestPowerMatchesThermalTable, TestTenantsMatchesTenantsTable",
	"charm/internal/obs.(*Tracer).WriteJSON":        "another package's test: core TestDeterministicTraceReplay",
	"charm/internal/topology.SyntheticDual":         "another package's test: the sim, fabric, mem, baselines and core suites' dual-socket machine (e.g. sim TestDirectoryEquivalentToScan)",
	"charm/internal/vtime.(*Clock).Set":             "another package's test: core TestLockstepGrantOrderModel, TestLockstepIdleTurnSound, FuzzIdleRun",
}

// deadcodeClasses are the reasons a function may stay unlinked.
var deadcodeClasses = []string{
	"paper primitive", "job handle", "Ctx accessor", "input grammar",
	"String method", "reference model", "another package's test",
}

// deadcodeRoots are the module's programs, by directory.
var deadcodeRoots = []string{
	"cmd/charm-bench", "cmd/charm-obs", "cmd/benchjson", "bench",
}

func TestDeadcode(t *testing.T) {
	funcs := moduleFuncs(t)
	reached := map[string]bool{}
	bin := filepath.Join(t.TempDir(), "bin")
	for _, root := range deadcodeRoots {
		dir, pkg := ".", "./"+root
		if root == "bench" { // its own module: build it from inside
			dir, pkg = root, "."
		}
		out, err := exec.Command("go", "-C", dir, "build", "-o", bin,
			"-gcflags=all=-l", "-ldflags=-dumpdep", pkg).CombinedOutput()
		if err != nil {
			t.Fatalf("build %s: %v\n%s", root, err, tail(out))
		}
		linkedSymbols(out, "charm/"+root, reached)
	}
	var dead []string
	for _, f := range funcs {
		if !reached[f] {
			if _, ok := deadcodeAllow[f]; !ok {
				dead = append(dead, f)
			}
		}
	}
	for name, why := range deadcodeAllow {
		if !slices.ContainsFunc(deadcodeClasses, func(c string) bool { return strings.HasPrefix(why, c) }) {
			t.Errorf("deadcodeAllow[%s] = %q names none of the classes %q", name, why, deadcodeClasses)
		}
		if _, ok := slices.BinarySearch(funcs, name); !ok {
			t.Errorf("deadcodeAllow lists %s, which is not a function of the module", name)
		} else if reached[name] {
			t.Errorf("deadcodeAllow lists %s, which a root links: drop the entry", name)
		}
	}
	if len(dead) > 0 {
		t.Errorf("%d functions no program links (delete them, move them into a _test.go file, or list them in deadcodeAllow with the reason):\n\t%s",
			len(dead), strings.Join(dead, "\n\t"))
	}
}

// moduleFuncs returns the linker name of every function and method
// declared in a non-test file of the module outside bench/, sorted. Files
// the default build context excludes (another Go release's build tag) are
// skipped, as are init functions, which run whenever their package links.
func moduleFuncs(t *testing.T) []string {
	var funcs []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != "." && (name == "bench" || name == "testdata" || strings.HasPrefix(name, ".")) {
			return filepath.SkipDir
		}
		p, err := build.Default.ImportDir(path, 0)
		if err != nil {
			if _, ok := err.(*build.NoGoError); ok {
				return nil
			}
			return err
		}
		imp := "charm"
		if path != "." {
			imp += "/" + filepath.ToSlash(path)
		}
		for _, file := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(path, file), nil, 0)
			if err != nil {
				return err
			}
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && !(fd.Recv == nil && fd.Name.Name == "init") {
					funcs = append(funcs, imp+"."+recvPrefix(fd)+fd.Name.Name)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(funcs)
	return funcs
}

// recvPrefix renders a method's receiver as the linker does, with type
// parameters dropped: "(*T)." for a pointer receiver, "T." for a value.
func recvPrefix(fd *ast.FuncDecl) string {
	if fd.Recv == nil {
		return ""
	}
	typ, star := fd.Recv.List[0].Type, false
	if s, ok := typ.(*ast.StarExpr); ok {
		typ, star = s.X, true
	}
	switch x := typ.(type) {
	case *ast.IndexExpr:
		typ = x.X
	case *ast.IndexListExpr:
		typ = x.X
	}
	name := typ.(*ast.Ident).Name
	if star {
		return "(*" + name + ")."
	}
	return name + "."
}

var (
	// shapeRE matches one innermost bracket group: a generic
	// instantiation ("[go.shape.int]", "[...]").
	shapeRE = regexp.MustCompile(`\[[^\[\]]*\]`)
	// closureRE matches the suffixes the compiler gives closures, go
	// statement and defer wrappers, and range-over-func bodies.
	closureRE = regexp.MustCompile(`(\.(func|gowrap|deferwrap)\d+|-range\d+|\.\d+)+$`)
	// auxRE matches a function's stack-map and frame metadata symbols.
	// The linker deduplicates them by content under one function's
	// name, so one can be linked while the function it names is not.
	auxRE = regexp.MustCompile(`\.(stkobj|arginfo\d|argliveinfo|args_stackmap|opendefer|wrapinfo)$`)
)

// linkedSymbols adds to reached every function symbol of the module that
// a -dumpdep link output names, normalised to moduleFuncs' form. Symbols
// of the main package are renamed to mainPath.
func linkedSymbols(out []byte, mainPath string, reached map[string]bool) {
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		from, to, ok := strings.Cut(sc.Text(), " -> ")
		if !ok {
			continue
		}
		for _, s := range [2]string{from, to} {
			if strings.HasPrefix(s, "main.") {
				s = mainPath + s[len("main"):]
			}
			if !strings.HasPrefix(s, "charm.") && !strings.HasPrefix(s, "charm/") || auxRE.MatchString(s) {
				continue
			}
			for shapeRE.MatchString(s) {
				s = shapeRE.ReplaceAllString(s, "")
			}
			s = strings.TrimSuffix(s, "-fm")
			reached[closureRE.ReplaceAllString(s, "")] = true
		}
	}
}

func tail(b []byte) []byte {
	if len(b) > 4000 {
		return b[len(b)-4000:]
	}
	return b
}
