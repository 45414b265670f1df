package charm_test

import (
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// freeRunAllow lists the test-file functions that may build a
// free-running runtime, keyed "file:function" (the file relative to the
// module root). Each value is the reason and starts with one of
// freeRunClasses. The free-running engine goes in ROADMAP direction 1(d),
// and every entry goes with it.
var freeRunAllow = map[string]string{
	"freerun_test.go:TestFreeRunningSmoke":               "smoke test: the graph-free shape, the one tier-1 run of the free-running engine",
	"internal/core/bench_test.go:benchRT":                "benchmark helper: the primitive microbenchmarks' runtime",
	"internal/core/engine_bench_test.go:BenchmarkEngine": "benchmark helper: engineRT, the BENCH_engine.json rows",
	"internal/core/power_test.go:BenchmarkPower":         "benchmark helper: the BENCH_power.json rows",
}

// freeRunClasses are the reasons a test function may run free.
var freeRunClasses = []string{"smoke test", "benchmark helper"}

// TestTestsRunLockstep keeps tier-1 on the lockstep engine: every call of
// charm.Init or core.NewRuntime in a test file outside bench/ must pass a
// configuration that sets Deterministic, unless freeRunAllow lists the
// function that makes the call. A configuration sets it when the call's
// literal has Deterministic: true, or when the enclosing function gives
// the variable it passes Deterministic = true (in its literal or by
// assignment) before the call. The check reads source only; it builds
// and links nothing.
func TestTestsRunLockstep(t *testing.T) {
	fset := token.NewFileSet()
	used := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (name == "bench" || name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			key := filepath.ToSlash(path) + ":" + fd.Name.Name
			for _, call := range freeRunningCalls(fset, fd) {
				if _, ok := freeRunAllow[key]; ok {
					used[key] = true
					continue
				}
				t.Errorf("%s: %s builds a free-running runtime: set Deterministic, or list %q in freeRunAllow with a reason",
					fset.Position(call.Pos()), fd.Name.Name, key)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for key, why := range freeRunAllow {
		if !slices.ContainsFunc(freeRunClasses, func(c string) bool { return strings.HasPrefix(why, c) }) {
			t.Errorf("freeRunAllow[%s] = %q names none of the classes %q", key, why, freeRunClasses)
		}
		if !used[key] {
			t.Errorf("freeRunAllow lists %s, which builds no free-running runtime: drop the entry", key)
		}
	}
}

// freeRunningCalls returns the runtime constructions in fd whose
// configuration does not set Deterministic.
func freeRunningCalls(fset *token.FileSet, fd *ast.FuncDecl) []*ast.CallExpr {
	var free []*ast.CallExpr
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isRuntimeConstructor(call.Fun) || len(call.Args) == 0 {
			return true
		}
		cfg := ast.Unparen(call.Args[len(call.Args)-1])
		if lit, ok := cfg.(*ast.CompositeLit); ok {
			if !setsDeterministic(lit) {
				free = append(free, call)
			}
		} else if !assignsDeterministic(fset, fd.Body, exprString(fset, cfg), call.Pos()) {
			free = append(free, call)
		}
		return true
	})
	return free
}

// isRuntimeConstructor reports whether fun names charm.Init or
// core.NewRuntime, qualified or (inside the package) not.
func isRuntimeConstructor(fun ast.Expr) bool {
	switch f := fun.(type) {
	case *ast.Ident:
		return f.Name == "Init" || f.Name == "NewRuntime"
	case *ast.SelectorExpr:
		x, ok := f.X.(*ast.Ident)
		return ok && (x.Name == "charm" && f.Sel.Name == "Init" || x.Name == "core" && f.Sel.Name == "NewRuntime")
	}
	return false
}

// setsDeterministic reports whether lit has the element Deterministic: true.
func setsDeterministic(lit *ast.CompositeLit) bool {
	for _, el := range lit.Elts {
		if kv, ok := el.(*ast.KeyValueExpr); ok && isIdent(kv.Key, "Deterministic") && isIdent(kv.Value, "true") {
			return true
		}
	}
	return false
}

// assignsDeterministic reports whether body, before pos, assigns
// name.Deterministic = true or gives name a literal that sets it.
func assignsDeterministic(fset *token.FileSet, body *ast.BlockStmt, name string, pos token.Pos) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if found || !ok || as.Pos() >= pos || len(as.Lhs) != len(as.Rhs) {
			return !found
		}
		for i, lhs := range as.Lhs {
			rhs := ast.Unparen(as.Rhs[i])
			if sel, ok := lhs.(*ast.SelectorExpr); ok && sel.Sel.Name == "Deterministic" &&
				exprString(fset, sel.X) == name && isIdent(rhs, "true") {
				found = true
			}
			if lit, ok := rhs.(*ast.CompositeLit); ok && exprString(fset, lhs) == name && setsDeterministic(lit) {
				found = true
			}
		}
		return !found
	})
	return found
}

func isIdent(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}

func exprString(fset *token.FileSet, e ast.Expr) string {
	var b strings.Builder
	printer.Fprint(&b, fset, e)
	return b.String()
}
