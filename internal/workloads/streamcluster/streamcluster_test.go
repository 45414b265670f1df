package streamcluster

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
	res := Run(rt, Config{Points: 2048, Dims: 16, Batch: 1024, CandidateRounds: 6, Seed: 3})
	if res.Batches != 2 {
		t.Errorf("batches = %d, want 2", res.Batches)
	}
	if res.Centers < 2 {
		t.Errorf("centers = %d, want >= 2 (one per batch)", res.Centers)
	}
	if res.Makespan <= 0 {
		t.Error("non-positive makespan")
	}
	if res.FinalCost < 0 {
		t.Error("negative cost")
	}
}

func TestClusteringReducesCost(t *testing.T) {
	rt := testRT(t, 4)
	// More candidate rounds must not increase the final cost.
	shallow := Run(rt, Config{Points: 1024, Dims: 8, CandidateRounds: 1, Seed: 9})
	rt2 := testRT(t, 4)
	deep := Run(rt2, Config{Points: 1024, Dims: 8, CandidateRounds: 12, Seed: 9})
	if deep.FinalCost > shallow.FinalCost*1.01 {
		t.Errorf("deeper search cost %.3f > shallow %.3f", deep.FinalCost, shallow.FinalCost)
	}
}

func TestDeterministicCost(t *testing.T) {
	a := Run(testRT(t, 2), Config{Points: 512, Dims: 8, CandidateRounds: 4, Seed: 5})
	b := Run(testRT(t, 2), Config{Points: 512, Dims: 8, CandidateRounds: 4, Seed: 5})
	if a.FinalCost != b.FinalCost || a.Centers != b.Centers {
		t.Errorf("nondeterministic clustering: %+v vs %+v", a, b)
	}
}

func TestReplicationEliminatesRemoteReads(t *testing.T) {
	// Dual-socket machine: with a single copy on node 0, workers on node 1
	// read remotely; with per-node replication they read locally.
	dual, err := charm.Init(charm.Config{Workers: 8, Topology: smallDual(), System: charm.SystemStaticCompact, Deterministic: true})
	if err != nil {
		t.Fatal(err)
	}
	defer dual.Finalize()
	Run(dual, Config{Points: 4096, Dims: 16, CandidateRounds: 4, Seed: 1, ReplicatePoints: true})
	repl := dual.Counter(charm.FillDRAMRemote)

	dual2, err := charm.Init(charm.Config{Workers: 8, Topology: smallDual(), System: charm.SystemStaticCompact, Deterministic: true})
	if err != nil {
		t.Fatal(err)
	}
	defer dual2.Finalize()
	Run(dual2, Config{Points: 4096, Dims: 16, CandidateRounds: 4, Seed: 1})
	single := dual2.Counter(charm.FillDRAMRemote)
	if repl > single {
		t.Errorf("replicated remote fills (%d) exceed single-copy (%d)", repl, single)
	}
}

func smallDual() *charm.Topology {
	t := charm.SmallTopology()
	t.Sockets = 2
	return t
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
