package sgd

import (
	"testing"

	"charm"
)

func testRT(t *testing.T, workers int, sys charm.System) *charm.Runtime {
	t.Helper()
	rt, err := charm.Init(charm.Config{
		Workers:        workers,
		Topology:       charm.SmallTopology(),
		System:         sys,
		SchedulerTimer: 100_000,
		Deterministic:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Finalize)
	return rt
}

func smallCfg() Config {
	return Config{Samples: 256, Features: 64, Epochs: 3, Grain: 16, Seed: 7}
}

func TestTrainingReducesLoss(t *testing.T) {
	for _, s := range []Strategy{PerCore, PerNode, PerMachine} {
		rt := testRT(t, 4, charm.SystemCHARM)
		res := Run(rt, smallCfg(), s)
		if res.FinalLoss >= res.InitialLoss {
			t.Errorf("%s: loss did not decrease: %.4f -> %.4f", s, res.InitialLoss, res.FinalLoss)
		}
	}
}

func TestThroughputMetrics(t *testing.T) {
	rt := testRT(t, 4, charm.SystemCHARM)
	res := Run(rt, smallCfg(), PerNode)
	if res.LossGBps() <= 0 || res.GradGBps() <= 0 {
		t.Errorf("non-positive throughput: loss=%.3f grad=%.3f", res.LossGBps(), res.GradGBps())
	}
	if res.BytesPerEpoch != 256*64*8 {
		t.Errorf("BytesPerEpoch = %d", res.BytesPerEpoch)
	}
}

func TestPerCorePrivateReplicasAvoidSharing(t *testing.T) {
	// Per-core replicas see no cross-chiplet write sharing on the model;
	// per-machine must see plenty. Pin the placement (16 workers over 4
	// chiplets, no adaptation) so the only difference is model traffic.
	runFills := func(s Strategy) int64 {
		rt, err := charm.Init(charm.Config{
			Workers:       16,
			Topology:      charm.SmallTopology(),
			System:        charm.SystemStaticCompact,
			Deterministic: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Finalize()
		// Large enough that each phase spans many throttle windows, so
		// workers genuinely interleave their replica updates.
		Run(rt, Config{Samples: 2048, Features: 64, Epochs: 2, Grain: 16, Seed: 7}, s)
		return rt.Counter(charm.FillL3RemoteNear) + rt.Counter(charm.FillL3RemoteFar) +
			rt.Counter(charm.FillL3RemoteSocket)
	}
	perCore := runFills(PerCore)
	perMachine := runFills(PerMachine)
	if perMachine <= perCore {
		t.Errorf("per-machine coherence fills (%d) must exceed per-core (%d)", perMachine, perCore)
	}
}

func TestDeterministicDataset(t *testing.T) {
	a := genDataset(smallCfg())
	b := genDataset(smallCfg())
	for i := range a.x {
		if a.x[i] != b.x[i] {
			t.Fatal("dataset not deterministic")
		}
	}
}

func TestStrategyString(t *testing.T) {
	for s, want := range map[Strategy]string{
		PerCore: "DW-per-core", PerNode: "DW-NUMA-node",
		PerMachine: "DW-per-machine", Strategy(9): "DW-unknown",
	} {
		if got := s.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", s, got, want)
		}
	}
}

func TestValidation(t *testing.T) {
	rt := testRT(t, 1, charm.SystemCHARM)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for empty config")
		}
	}()
	New(rt, Config{}, PerCore)
}

func TestRunsOnOSAsync(t *testing.T) {
	rt := testRT(t, 4, charm.SystemOSAsync)
	res := Run(rt, Config{Samples: 64, Features: 32, Epochs: 1, Grain: 8, Seed: 3}, PerNode)
	if res.GradGBps() <= 0 {
		t.Error("os-async run produced no throughput")
	}
}

func TestOSAsyncSlowerThanCharm(t *testing.T) {
	cfg := Config{Samples: 256, Features: 64, Epochs: 2, Grain: 8, Seed: 5}
	rtC := testRT(t, 4, charm.SystemCHARM)
	resC := Run(rtC, cfg, PerNode)
	rtA := testRT(t, 4, charm.SystemOSAsync)
	resA := Run(rtA, cfg, PerNode)
	if resA.GradGBps() >= resC.GradGBps() {
		t.Errorf("os-async throughput %.3f must trail CHARM %.3f",
			resA.GradGBps(), resC.GradGBps())
	}
}
