package charm_test

import (
	"fmt"
	"sync/atomic"

	"charm"
)

const joinGrain = 2048

// hashJoin builds a hash table of buildRows keys and probes it with
// probeRows random keys, returning the virtual time and the match count.
func hashJoin(rt *charm.Runtime, buildRows, probeRows int) (int64, int64) {
	slots := 1
	for slots < 2*buildRows {
		slots <<= 1
	}
	keys := make([]atomic.Int64, slots)
	aHash := rt.AllocPolicy(int64(slots)*16, charm.FirstTouch, 0)
	mask := uint64(slots - 1)
	hash := func(k int64) uint64 {
		z := uint64(k) * 0xBF58476D1CE4E5B9
		return (z ^ (z >> 31)) & mask
	}

	start := rt.Now()
	// Build phase: insert keys 0..buildRows.
	rt.ParallelFor(0, buildRows, joinGrain, func(ctx *charm.Ctx, i0, i1 int) {
		for i := i0; i < i1; i++ {
			j := hash(int64(i))
			for !keys[j].CompareAndSwap(0, int64(i)+1) {
				if keys[j].Load() == int64(i)+1 {
					break
				}
				j = (j + 1) & mask
			}
			ctx.RMW(aHash+charm.Addr(j*16), 16)
			ctx.Yield()
		}
	})

	// Probe phase: random keys, half hitting.
	var matches atomic.Int64
	rt.ParallelFor(0, probeRows, joinGrain, func(ctx *charm.Ctx, i0, i1 int) {
		s := uint64(i0)*0x9E3779B97F4A7C15 + 1
		var local int64
		for i := i0; i < i1; i++ {
			s ^= s << 13
			s ^= s >> 7
			s ^= s << 17
			k := int64(s % uint64(2*buildRows))
			j := hash(k)
			for {
				ctx.Read(aHash+charm.Addr(j*16), 16)
				v := keys[j].Load()
				if v == 0 {
					break
				}
				if v == k+1 {
					local++
					break
				}
				j = (j + 1) & mask
			}
			ctx.Yield()
		}
		matches.Add(local)
	})
	elapsed := rt.Now() - start
	rt.Free(aHash)
	return elapsed, matches.Load()
}

// Example_olapjoin runs a parallel hash join written against the CHARM
// public API, contrasting a join whose hash table fits one chiplet's L3
// (consolidation wins) with one that needs the socket's aggregate L3
// (spreading wins): the §5.6 trade-off behind DuckDB+CHARM's adaptive
// controller.
func Example_olapjoin() {
	// os-default models a plain thread pool (cross-socket scatter, no
	// task affinity); charm is the adaptive runtime.
	for _, cfg := range []struct {
		name      string
		buildRows int
		system    charm.System
	}{
		{"small-join os-default", 2_000, charm.SystemNaive},
		{"small-join charm", 2_000, charm.SystemCHARM},
		{"large-join os-default", 15_000, charm.SystemNaive},
		{"large-join charm", 15_000, charm.SystemCHARM},
	} {
		rt, err := charm.Init(charm.Config{
			Workers:        8,
			CacheScale:     256,
			System:         cfg.system,
			SchedulerTimer: 25_000,
			Deterministic:  true,
		})
		if err != nil {
			panic(err)
		}
		ms, matches := hashJoin(rt, cfg.buildRows, 200_000)
		fmt.Printf("%-22s hash %4d KiB  probe time %8.3f ms  matches %d  migrations %d\n",
			cfg.name, cfg.buildRows*2*16>>10, float64(ms)/1e6, matches,
			rt.Counter(charm.Migration))
		rt.Finalize()
	}
	// Output:
	// small-join os-default  hash   62 KiB  probe time    0.651 ms  matches 100123  migrations 0
	// small-join charm       hash   62 KiB  probe time    0.613 ms  matches 100123  migrations 0
	// large-join os-default  hash  468 KiB  probe time    5.422 ms  matches 99852  migrations 0
	// large-join charm       hash  468 KiB  probe time    3.344 ms  matches 99852  migrations 17
}
