package main

import "testing"

func TestParseBenchStripsProcsSuffix(t *testing.T) {
	for _, tc := range []struct{ line, name string }{
		{"BenchmarkEngine/turn/16-2   5152562   250.4 ns/op", "BenchmarkEngine/turn/16"},
		{"BenchmarkEngine/turn/16   5152562   250.4 ns/op", "BenchmarkEngine/turn/16"},
		{"BenchmarkEngine/task/pool-32   10   159.5 ns/op   5 B/op   0 allocs/op", "BenchmarkEngine/task/pool"},
		{"BenchmarkFabric/flat-bfly   10   1 ns/op", "BenchmarkFabric/flat-bfly"},
	} {
		b, ok := parseBench(tc.line)
		if !ok || b.Name != tc.name {
			t.Errorf("parseBench(%q) = %q, %v; want %q", tc.line, b.Name, ok, tc.name)
		}
	}
}
