// Package spmv implements sparse matrix-vector multiplication, the second
// irregular workload family the paper's Q4 names ("graph processing and
// sparse linear algebra"). The kernel runs power-method iterations
// y = A·x over a Kronecker-structured sparse matrix in CSR form: row reads
// stream, x-vector gathers are random — the same locality profile that
// makes chiplet-aware placement matter for graphs.
package spmv

import (
	"math"
	"sync/atomic"

	"charm"
	"charm/internal/workloads/graph"
)

// Config parameterizes a run.
type Config struct {
	// LogRows is log2 of the matrix dimension.
	LogRows int
	// Iters is the number of y = A·x iterations (0 selects 5).
	Iters int
	Seed  uint64
}

const (
	// nnzPerRow is the average nonzeros per row.
	nnzPerRow = 16
	// grain is rows per task.
	grain = 128
)

// Result reports one run.
type Result struct {
	Makespan int64
	NNZ      int64
	Iters    int
	// Norm is the final vector norm (for correctness checks).
	Norm float64
}

// GFLOPS returns billions of floating-point ops per virtual second
// (2 flops per nonzero per iteration).
func (r Result) GFLOPS() float64 {
	if r.Makespan <= 0 {
		return 0
	}
	return float64(2*r.NNZ*int64(r.Iters)) / float64(r.Makespan)
}

// Run executes the kernel on the runtime.
func Run(rt *charm.Runtime, cfg Config) Result {
	if cfg.LogRows <= 0 {
		panic("spmv: LogRows must be positive")
	}
	if cfg.Iters <= 0 {
		cfg.Iters = 5
	}
	// A Kronecker graph's CSR is a Kronecker sparse matrix; edge weights
	// become values.
	g := graph.Kronecker(graph.GenConfig{
		LogVertices: cfg.LogRows, EdgeFactor: nnzPerRow / 2, Seed: cfg.Seed,
	})
	n := g.N
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = 1 / float64(n)
	}

	aVal := rt.AllocPolicy(int64(g.M())*8, charm.FirstTouch, 0)
	aIdx := rt.AllocPolicy(int64(g.M())*4, charm.FirstTouch, 0)
	aX := rt.AllocPolicy(int64(n)*8, charm.FirstTouch, 0)
	aY := rt.AllocPolicy(int64(n)*8, charm.FirstTouch, 0)
	rt.ParallelFor(0, n, grain, func(ctx *charm.Ctx, i0, i1 int) {
		e0, e1 := g.Offsets[i0], g.Offsets[i1]
		if e1 > e0 {
			ctx.Write(aVal+charm.Addr(e0*8), (e1-e0)*8)
			ctx.Write(aIdx+charm.Addr(e0*4), (e1-e0)*4)
		}
		ctx.Write(aX+charm.Addr(i0*8), int64(i1-i0)*8)
		ctx.Write(aY+charm.Addr(i0*8), int64(i1-i0)*8)
	})

	res := Result{NNZ: int64(g.M()), Iters: cfg.Iters}
	start := rt.Now()
	for it := 0; it < cfg.Iters; it++ {
		var norm2 atomic.Uint64 // float bits accumulated via CAS
		rt.ParallelFor(0, n, grain, func(ctx *charm.Ctx, i0, i1 int) {
			e0, e1 := g.Offsets[i0], g.Offsets[i1]
			if e1 > e0 {
				ctx.Read(aVal+charm.Addr(e0*8), (e1-e0)*8)
				ctx.Read(aIdx+charm.Addr(e0*4), (e1-e0)*4)
			}
			var local float64
			for row := i0; row < i1; row++ {
				ctx.Yield()
				var sum float64
				cols := g.Neighbors(int32(row))
				ws := g.WeightsOf(int32(row))
				for k, c := range cols {
					ctx.Read(aX+charm.Addr(int64(c)*8), 8)
					sum += float64(ws[k]) * x[c]
				}
				y[row] = sum
				local += sum * sum
				ctx.Compute(int64(len(cols)) * 2)
			}
			ctx.Write(aY+charm.Addr(i0*8), int64(i1-i0)*8)
			for {
				old := norm2.Load()
				nv := math.Float64bits(math.Float64frombits(old) + local)
				if norm2.CompareAndSwap(old, nv) {
					break
				}
			}
		})
		// Normalize (power method) and swap.
		norm := math.Sqrt(math.Float64frombits(norm2.Load()))
		if norm == 0 {
			norm = 1
		}
		rt.ParallelFor(0, n, 1<<13, func(ctx *charm.Ctx, i0, i1 int) {
			for i := i0; i < i1; i++ {
				x[i] = y[i] / norm
			}
			ctx.Read(aY+charm.Addr(i0*8), int64(i1-i0)*8)
			ctx.Write(aX+charm.Addr(i0*8), int64(i1-i0)*8)
		})
		res.Norm = norm
	}
	res.Makespan = rt.Now() - start
	return res
}
