// Package oltp implements the transaction-processing workload of §5.7: a
// miniature memory-optimized OLTP engine in the spirit of ERMIA, driven by
// YCSB (45% read / 55% read-modify-write) and a TPC-C-shaped mix. The
// engine's commit path — a shared log-tail reservation plus a fixed commit
// latency — deliberately dominates record accesses, reproducing the
// paper's negative result: chiplet-level placement barely moves OLTP
// throughput because synchronization and commit protocols bound it.
package oltp

import (
	"sync/atomic"

	"charm"
	"charm/internal/rng"
)

// Config parameterizes the engine.
type Config struct {
	// Records is the YCSB table size.
	Records int
	// Warehouses is the TPC-C scale (0 selects 4).
	Warehouses int
	// Items is the TPC-C item-table size (0 selects 1024).
	Items int
	// TxPerWorker is the transaction count each worker executes.
	TxPerWorker int
	Seed        uint64
}

const (
	// ycsbReadPercent is the YCSB read percentage, the paper's mix.
	ycsbReadPercent = 45
	// commitCost is the virtual cost of commit processing (log record
	// construction, durability wait): 2 µs.
	commitCost = 2000
)

func (c *Config) defaults() {
	if c.Records <= 0 {
		c.Records = 1 << 16
	}
	if c.Warehouses <= 0 {
		c.Warehouses = 4
	}
	if c.Items <= 0 {
		c.Items = 1024
	}
	if c.TxPerWorker <= 0 {
		c.TxPerWorker = 1000
	}
}

// Result reports one run.
type Result struct {
	Commits  int64
	Makespan int64
}

// CommitsPerSec returns committed transactions per virtual second.
func (r Result) CommitsPerSec() float64 {
	if r.Makespan <= 0 {
		return 0
	}
	return float64(r.Commits) / (float64(r.Makespan) / 1e9)
}

// Engine is a bound OLTP database.
type Engine struct {
	rt  *charm.Runtime
	cfg Config

	// YCSB table: versioned counters.
	records []atomic.Uint64
	aRec    charm.Addr

	// TPC-C-shaped state.
	stock  []atomic.Uint64 // warehouses x items
	whYTD  []atomic.Uint64 // per-warehouse year-to-date (hot lines)
	aStock charm.Addr
	aWhYTD charm.Addr

	// Shared commit log: a tail cacheline every commit reserves.
	logTail atomic.Int64
	aLog    charm.Addr
}

// New builds and first-touch-initializes the engine on the runtime.
func New(rt *charm.Runtime, cfg Config) *Engine {
	cfg.defaults()
	e := &Engine{rt: rt, cfg: cfg}
	e.records = make([]atomic.Uint64, cfg.Records)
	e.aRec = rt.AllocPolicy(int64(cfg.Records)*8, charm.FirstTouch, 0)
	e.stock = make([]atomic.Uint64, cfg.Warehouses*cfg.Items)
	e.aStock = rt.AllocPolicy(int64(len(e.stock))*8, charm.FirstTouch, 0)
	e.whYTD = make([]atomic.Uint64, cfg.Warehouses)
	e.aWhYTD = rt.AllocPolicy(int64(cfg.Warehouses)*64, charm.FirstTouch, 0)
	e.aLog = rt.AllocPolicy(1<<16, charm.FirstTouch, 0)
	rt.ParallelFor(0, cfg.Records, 1<<13, func(ctx *charm.Ctx, i0, i1 int) {
		ctx.Write(e.aRec+charm.Addr(i0*8), int64(i1-i0)*8)
	})
	rt.ParallelFor(0, len(e.stock), 1<<13, func(ctx *charm.Ctx, i0, i1 int) {
		ctx.Write(e.aStock+charm.Addr(i0*8), int64(i1-i0)*8)
	})
	return e
}

// commit reserves a log slot (shared tail ping-pong) and pays the commit
// latency — the cost every transaction serializes behind.
func (e *Engine) commit(ctx *charm.Ctx, size int64) {
	e.logTail.Add(size)
	ctx.RMW(e.aLog, 8)
	ctx.Compute(commitCost)
}

// RunYCSB executes the YCSB mix and returns the throughput result.
func (e *Engine) RunYCSB() Result {
	cfg := e.cfg
	var commits atomic.Int64
	start := e.rt.Now()
	e.rt.AllDo(func(ctx *charm.Ctx) {
		s := cfg.Seed ^ (uint64(ctx.Worker())*0x9E3779B97F4A7C15 + 1)
		for t := 0; t < cfg.TxPerWorker; t++ {
			k := int(rng.SplitMix64(&s) % uint64(cfg.Records))
			a := e.aRec + charm.Addr(k*8)
			if int(rng.SplitMix64(&s)%100) < ycsbReadPercent {
				e.records[k].Load()
				ctx.Read(a, 8)
			} else {
				e.records[k].Add(1)
				ctx.RMW(a, 8)
			}
			e.commit(ctx, 64)
			commits.Add(1)
			ctx.Yield()
		}
	})
	return Result{Commits: commits.Load(), Makespan: e.rt.Now() - start}
}

// RecordSum returns the sum of all YCSB record values (equals the number
// of committed RMW operations — the engine's consistency invariant).
func (e *Engine) RecordSum() uint64 {
	var s uint64
	for i := range e.records {
		s += e.records[i].Load()
	}
	return s
}

// RunTPCC executes the TPC-C-shaped mix — 45% NewOrder, 43% Payment, and
// the remaining 12% split across OrderStatus, Delivery, and StockLevel,
// the proportions §5.1 configures — with home-warehouse affinity per
// worker, and returns the throughput result.
func (e *Engine) RunTPCC() Result {
	cfg := e.cfg
	var commits atomic.Int64
	start := e.rt.Now()
	e.rt.AllDo(func(ctx *charm.Ctx) {
		s := cfg.Seed ^ (uint64(ctx.Worker())*0xBF58476D1CE4E5B9 + 7)
		home := ctx.Worker() % cfg.Warehouses
		for t := 0; t < cfg.TxPerWorker; t++ {
			switch r := rng.SplitMix64(&s) % 100; {
			case r < 45:
				e.newOrder(ctx, &s, home)
			case r < 88:
				e.payment(ctx, &s, home)
			case r < 92:
				e.orderStatus(ctx, &s, home)
			case r < 96:
				e.delivery(ctx, &s, home)
			default:
				e.stockLevel(ctx, &s, home)
			}
			commits.Add(1)
			ctx.Yield()
		}
	})
	return Result{Commits: commits.Load(), Makespan: e.rt.Now() - start}
}

func (e *Engine) stockIdx(wh, item int) int { return wh*e.cfg.Items + item }

// newOrder reads 5-15 items and decrements their stock, 90% in the home
// warehouse, then commits a multi-record log entry.
func (e *Engine) newOrder(ctx *charm.Ctx, s *uint64, home int) {
	n := 5 + int(rng.SplitMix64(s)%11)
	for i := 0; i < n; i++ {
		wh := home
		if rng.SplitMix64(s)%100 < 10 && e.cfg.Warehouses > 1 {
			wh = int(rng.SplitMix64(s) % uint64(e.cfg.Warehouses))
		}
		item := int(rng.SplitMix64(s) % uint64(e.cfg.Items))
		idx := e.stockIdx(wh, item)
		e.stock[idx].Add(^uint64(0)) // decrement
		ctx.RMW(e.aStock+charm.Addr(idx*8), 8)
		ctx.Compute(150)
	}
	e.commit(ctx, int64(64*n))
}

// payment updates the hot warehouse YTD line and commits.
func (e *Engine) payment(ctx *charm.Ctx, s *uint64, home int) {
	amount := rng.SplitMix64(s) % 5000
	e.whYTD[home].Add(amount)
	ctx.RMW(e.aWhYTD+charm.Addr(home*64), 8)
	ctx.Compute(300)
	e.commit(ctx, 64)
}

// orderStatus reads a handful of records without writing.
func (e *Engine) orderStatus(ctx *charm.Ctx, s *uint64, home int) {
	for i := 0; i < 4; i++ {
		item := int(rng.SplitMix64(s) % uint64(e.cfg.Items))
		idx := e.stockIdx(home, item)
		e.stock[idx].Load()
		ctx.Read(e.aStock+charm.Addr(idx*8), 8)
	}
	ctx.Compute(200)
	e.commit(ctx, 32)
}

// delivery processes a batch of 10 district deliveries: each updates an
// order record (modeled as a stock RMW) and the warehouse YTD — a long
// write-heavy transaction with a proportionally larger commit record.
func (e *Engine) delivery(ctx *charm.Ctx, s *uint64, home int) {
	for d := 0; d < 10; d++ {
		item := int(rng.SplitMix64(s) % uint64(e.cfg.Items))
		idx := e.stockIdx(home, item)
		e.stock[idx].Add(1)
		ctx.RMW(e.aStock+charm.Addr(idx*8), 8)
		ctx.Compute(200)
	}
	e.whYTD[home].Add(10)
	ctx.RMW(e.aWhYTD+charm.Addr(home*64), 8)
	e.commit(ctx, 64*10)
}

// stockLevel scans the home warehouse's recent stock entries (a read-only
// range scan) and counts those below a threshold.
func (e *Engine) stockLevel(ctx *charm.Ctx, s *uint64, home int) {
	start := int(rng.SplitMix64(s) % uint64(e.cfg.Items))
	n := 64
	if start+n > e.cfg.Items {
		n = e.cfg.Items - start
	}
	low := 0
	for i := 0; i < n; i++ {
		idx := e.stockIdx(home, start+i)
		if int64(e.stock[idx].Load()) < 10 {
			low++
		}
	}
	ctx.Read(e.aStock+charm.Addr(e.stockIdx(home, start)*8), int64(n)*8)
	ctx.Compute(int64(n) * 3)
	e.commit(ctx, 32)
}

// YTDSum returns the total year-to-date across warehouses (the Payment
// consistency invariant).
func (e *Engine) YTDSum() uint64 {
	var s uint64
	for i := range e.whYTD {
		s += e.whYTD[i].Load()
	}
	return s
}
