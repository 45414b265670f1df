package gups

import (
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
	res := Run(rt, Config{LogTableSize: 12, Seed: 1})
	wantUpdates := int64(updatesPerWord * (1 << 12))
	if res.Updates != wantUpdates {
		t.Errorf("updates = %d, want %d", res.Updates, wantUpdates)
	}
	if res.Makespan <= 0 {
		t.Error("non-positive makespan")
	}
	if res.GUPS() <= 0 {
		t.Error("non-positive GUPS")
	}
	// Random RMWs over a table far larger than the caches must reach DRAM.
	if rt.Counter(charm.FillDRAMLocal)+rt.Counter(charm.FillDRAMRemote) == 0 {
		t.Error("no DRAM fills recorded for an out-of-cache table")
	}
}

func TestRunValidation(t *testing.T) {
	rt := testRT(t, 1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for zero table size")
		}
	}()
	Run(rt, Config{})
}

func TestSmallTableStaysCached(t *testing.T) {
	rt := testRT(t, 2)
	// 2^6 words = 512 B: fits in L2/L3 after the first touch.
	res := Run(rt, Config{LogTableSize: 6, Seed: 2})
	if res.Updates != updatesPerWord*64 {
		t.Fatalf("updates = %d", res.Updates)
	}
	fills := rt.Counter(charm.FillDRAMLocal) + rt.Counter(charm.FillDRAMRemote)
	// Only cold misses: far fewer fills than updates.
	if fills > res.Updates/4 {
		t.Errorf("cached table produced %d DRAM fills for %d updates", fills, res.Updates)
	}
}

func TestGUPSZeroMakespan(t *testing.T) {
	if (Result{Updates: 10}).GUPS() != 0 {
		t.Error("zero makespan must yield zero GUPS")
	}
}
