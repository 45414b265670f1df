package spmv

import (
	"math"
	"testing"

	"charm"
)

func testRT(t *testing.T, workers int) *charm.Runtime {
	t.Helper()
	rt, err := charm.Init(charm.Config{
		Workers:        workers,
		Topology:       charm.SmallTopology(),
		SchedulerTimer: 100_000,
		Deterministic:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Finalize)
	return rt
}

func TestRunBasics(t *testing.T) {
	rt := testRT(t, 4)
	res := Run(rt, Config{LogRows: 9, Iters: 3, Seed: 7})
	if res.Makespan <= 0 || res.NNZ == 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
	if res.GFLOPS() <= 0 {
		t.Error("non-positive GFLOPS")
	}
	if res.Norm <= 0 || math.IsNaN(res.Norm) {
		t.Errorf("bad final norm %f", res.Norm)
	}
}

func TestPowerIterationConverges(t *testing.T) {
	// For a symmetric nonnegative matrix, successive normalized iterates'
	// norms approach the dominant eigenvalue: the norm ratio between the
	// last two iterations must stabilize.
	rt := testRT(t, 4)
	shallow := Run(rt, Config{LogRows: 8, Iters: 2, Seed: 3})
	rt2 := testRT(t, 4)
	deep := Run(rt2, Config{LogRows: 8, Iters: 10, Seed: 3})
	if math.IsNaN(deep.Norm) || deep.Norm <= 0 {
		t.Fatalf("deep norm %f", deep.Norm)
	}
	// Deep iteration's norm approximates the dominant eigenvalue; it must
	// be at least the shallow estimate (power iteration is monotone for
	// symmetric nonnegative matrices up to numerical noise).
	if deep.Norm < shallow.Norm*0.5 {
		t.Errorf("norms diverge: shallow %f deep %f", shallow.Norm, deep.Norm)
	}
}

func TestDeterministicAcrossParallelism(t *testing.T) {
	a := Run(testRT(t, 2), Config{LogRows: 7, Iters: 3, Seed: 5})
	b := Run(testRT(t, 4), Config{LogRows: 7, Iters: 3, Seed: 5})
	// Per-row sums are computed identically; only the norm reduction's
	// float order differs. Tolerate tiny drift.
	if math.Abs(a.Norm-b.Norm)/a.Norm > 1e-9 {
		t.Errorf("norms differ across parallelism: %v vs %v", a.Norm, b.Norm)
	}
}

func TestValidation(t *testing.T) {
	rt := testRT(t, 1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Run(rt, Config{})
}
