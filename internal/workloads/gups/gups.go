// Package gups implements the HPCC RandomAccess benchmark (§5.1): random
// read-modify-write updates to a large distributed table, measured in
// giga-updates per second (GUPS). It stresses non-contiguous memory access
// in a shared address space — the workload least friendly to caches and
// most sensitive to NUMA/chiplet placement.
package gups

import (
	"sync/atomic"

	"charm"
)

// Config parameterizes a run.
type Config struct {
	// LogTableSize is log2 of the table length in 8-byte words.
	LogTableSize int
	// Grain is updates per task (0 selects 4096).
	Grain int
	// Seed makes runs deterministic.
	Seed uint64
}

// updatesPerWord scales the update count: updates = 4 × table length, as
// in HPCC.
const updatesPerWord = 4

// Result reports one run.
type Result struct {
	Updates  int64
	Makespan int64 // virtual ns
}

// GUPS returns giga-updates per virtual second.
func (r Result) GUPS() float64 {
	if r.Makespan <= 0 {
		return 0
	}
	return float64(r.Updates) / float64(r.Makespan)
}

// Run executes the benchmark on the runtime. The table is allocated
// first-touch and initialized by the workers, so placement follows the
// system under test. Only the simulated memory holds the table: the
// update values never feed back into the run, so no host copy is kept.
func Run(rt *charm.Runtime, cfg Config) Result {
	if cfg.LogTableSize <= 0 {
		panic("gups: LogTableSize must be positive")
	}
	n := 1 << cfg.LogTableSize
	grain := cfg.Grain
	if grain <= 0 {
		grain = 4096
	}
	addr := rt.AllocPolicy(int64(n)*8, charm.FirstTouch, 0)

	// Initialization pass (the HPCC warm-up): table[i] = i.
	rt.ParallelFor(0, n, 1<<14, func(ctx *charm.Ctx, i0, i1 int) {
		ctx.Write(addr+charm.Addr(i0*8), int64(i1-i0)*8)
	})

	updates := n * updatesPerWord
	mask := uint64(n - 1)
	var done atomic.Int64
	start := rt.Now()
	rt.ParallelFor(0, updates, grain, func(ctx *charm.Ctx, i0, i1 int) {
		// Each task owns an independent LCG stream seeded by its range.
		s := cfg.Seed ^ (uint64(i0)*0x9E3779B97F4A7C15 + 0xBF58476D1CE4E5B9)
		for i := i0; i < i1; i++ {
			s = s*6364136223846793005 + 1442695040888963407
			idx := (s >> 17) & mask
			// XOR update: read-modify-write of one word.
			ctx.RMW(addr+charm.Addr(idx*8), 8)
			if i&63 == 63 {
				ctx.Yield() // periodic scheduling/profiling point
			}
		}
		done.Add(int64(i1 - i0))
		ctx.Yield()
	})
	return Result{Updates: done.Load(), Makespan: rt.Now() - start}
}
