package oltp

import (
	"testing"

	"charm"
)

func rtWith(t *testing.T, workers int) *charm.Runtime {
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

func TestYCSBCommitsAll(t *testing.T) {
	rt := rtWith(t, 4)
	e := New(rt, Config{Records: 1 << 10, TxPerWorker: 200, Seed: 1})
	res := e.RunYCSB()
	if res.Commits != 4*200 {
		t.Errorf("commits = %d, want 800", res.Commits)
	}
	if res.CommitsPerSec() <= 0 {
		t.Error("non-positive throughput")
	}
}

func TestYCSBRecordInvariant(t *testing.T) {
	rt := rtWith(t, 2)
	e := New(rt, Config{Records: 256, TxPerWorker: 500, Seed: 3})
	e.RunYCSB()
	// Every RMW added exactly 1; the sum equals the RMW count, which must
	// be roughly 55% of transactions.
	sum := e.RecordSum()
	total := uint64(2 * 500)
	if sum == 0 || sum >= total {
		t.Errorf("record sum = %d out of %d transactions", sum, total)
	}
	frac := float64(sum) / float64(total)
	if frac < 0.4 || frac > 0.7 {
		t.Errorf("RMW fraction = %.2f, want ~0.55", frac)
	}
}

func TestTPCCCommitsAndInvariant(t *testing.T) {
	rt := rtWith(t, 4)
	e := New(rt, Config{Warehouses: 2, Items: 128, TxPerWorker: 300, Seed: 5})
	res := e.RunTPCC()
	if res.Commits != 4*300 {
		t.Errorf("commits = %d, want 1200", res.Commits)
	}
	if e.YTDSum() == 0 {
		t.Error("no payments recorded")
	}
}

func TestCommitBoundInsensitivity(t *testing.T) {
	// The §5.7 negative result: LocalCache (compact placement) and
	// DistributedCache (chiplet-spread placement) throughput differ by
	// far less than the commit cost dominates — within 25%.
	run := func(system charm.System) float64 {
		rt, err := charm.Init(charm.Config{
			Workers:       8,
			Topology:      charm.SmallTopology(),
			System:        system,
			Deterministic: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Finalize()
		e := New(rt, Config{Records: 1 << 12, TxPerWorker: 400, Seed: 7})
		return e.RunYCSB().CommitsPerSec()
	}
	local := run(charm.SystemStaticCompact) // compact static
	distributed := run(charm.SystemSHOAL)   // static sequential
	ratio := local / distributed
	if ratio < 0.75 || ratio > 1.33 {
		t.Errorf("OLTP throughput should be placement-insensitive; local/distributed = %.2f", ratio)
	}
}

func TestDefaults(t *testing.T) {
	var c Config
	c.defaults()
	if c.Records == 0 || c.Warehouses == 0 || c.Items == 0 || c.TxPerWorker == 0 {
		t.Errorf("defaults incomplete: %+v", c)
	}
}

func TestZeroMakespanThroughput(t *testing.T) {
	if (Result{Commits: 5}).CommitsPerSec() != 0 {
		t.Error("zero makespan must yield zero throughput")
	}
}

func TestTPCCFullMixRuns(t *testing.T) {
	rt := rtWith(t, 8)
	e := New(rt, Config{Warehouses: 4, Items: 256, TxPerWorker: 1000, Seed: 9})
	res := e.RunTPCC()
	if res.Commits != 8*1000 {
		t.Errorf("commits = %d", res.Commits)
	}
	// Delivery adds 10/txn to YTD on top of payments; sum must be positive
	// and the engine must have exercised reads (stock levels) too.
	if e.YTDSum() == 0 {
		t.Error("no YTD updates")
	}
	if rt.Counter(charm.BytesRead) == 0 {
		t.Error("no read traffic (stock-level scans missing?)")
	}
}
