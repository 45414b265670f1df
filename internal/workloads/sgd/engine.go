package sgd

import (
	"math"

	"charm"
)

// Engine is a bound SGD problem: dataset mirrored into simulated memory
// plus the replica set selected by the strategy.
type Engine struct {
	rt  *charm.Runtime
	cfg Config
	ds  *dataset

	ax charm.Addr // simulated dataset mirror
	ay charm.Addr

	strategy Strategy
	replicas []*model // indexed per worker (PerCore), node (PerNode), or [0]
}

// New builds the engine: the dataset is allocated first-touch and
// initialized by the workers; replicas are placed according to the
// strategy (worker-local, node-local, or node 0).
func New(rt *charm.Runtime, cfg Config, s Strategy) *Engine {
	if cfg.Samples <= 0 || cfg.Features <= 0 {
		panic("sgd: Samples and Features must be positive")
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 1
	}
	if cfg.Grain <= 0 {
		cfg.Grain = 64
	}
	e := &Engine{rt: rt, cfg: cfg, ds: genDataset(cfg), strategy: s}
	rowBytes := int64(cfg.Features) * 8
	e.ax = rt.AllocPolicy(int64(cfg.Samples)*rowBytes, charm.FirstTouch, 0)
	e.ay = rt.AllocPolicy(int64(cfg.Samples)*8, charm.FirstTouch, 0)
	rt.ParallelFor(0, cfg.Samples, cfg.Grain, func(ctx *charm.Ctx, i0, i1 int) {
		ctx.Write(e.ax+charm.Addr(int64(i0)*rowBytes), int64(i1-i0)*rowBytes)
		ctx.Write(e.ay+charm.Addr(i0*8), int64(i1-i0)*8)
	})

	topo := rt.Topology()
	switch s {
	case PerCore:
		e.replicas = make([]*model, rt.Workers())
		for w := range e.replicas {
			node := topo.NodeOfCore(rt.CoreOfWorker(w))
			e.replicas[w] = newModel(rt, cfg.Features, node)
		}
	case PerNode:
		e.replicas = make([]*model, topo.NumNodes())
		for n := range e.replicas {
			e.replicas[n] = newModel(rt, cfg.Features, charm.NodeID(n))
		}
	case PerMachine:
		e.replicas = []*model{newModel(rt, cfg.Features, 0)}
	default:
		panic("sgd: unknown strategy")
	}
	return e
}

// replicaFor picks the replica the executing worker updates.
func (e *Engine) replicaFor(ctx *charm.Ctx) *model {
	switch e.strategy {
	case PerCore:
		return e.replicas[ctx.Worker()]
	case PerNode:
		return e.replicas[e.rt.Topology().NodeOfCore(ctx.CoreID())]
	default:
		return e.replicas[0]
	}
}

// rowAddr returns the simulated address of sample i's feature row.
func (e *Engine) rowAddr(i int) charm.Addr {
	return e.ax + charm.Addr(int64(i)*int64(e.cfg.Features)*8)
}

// Loss evaluates the mean logistic loss over the dataset in parallel,
// charging the dataset stream and the (read-only) model traffic.
func (e *Engine) Loss() (float64, int64) {
	d := e.cfg.Features
	rowBytes := int64(d) * 8
	partial := make([]float64, e.rt.Workers())
	start := e.rt.Now()
	e.rt.ParallelFor(0, e.cfg.Samples, e.cfg.Grain, func(ctx *charm.Ctx, i0, i1 int) {
		m := e.replicaFor(ctx)
		ctx.Read(e.rowAddr(i0), int64(i1-i0)*rowBytes)
		ctx.Read(e.ay+charm.Addr(i0*8), int64(i1-i0)*8)
		ctx.Read(m.addr, int64(d)*8)
		var sum float64
		for i := i0; i < i1; i++ {
			row := e.ds.x[i*d : (i+1)*d]
			p := sigmoid(m.dot(row))
			yi := e.ds.y[i]
			sum += logLoss(p, yi)
		}
		ctx.Compute(int64(i1-i0) * int64(d) * 2)
		partial[ctx.Worker()] += sum
		ctx.Yield()
	})
	elapsed := e.rt.Now() - start
	var total float64
	for _, p := range partial {
		total += p
	}
	return total / float64(e.cfg.Samples), elapsed
}

// logLoss is the numerically clamped logistic loss.
func logLoss(p, y float64) float64 {
	const eps = 1e-9
	if p < eps {
		p = eps
	}
	if p > 1-eps {
		p = 1 - eps
	}
	if y > 0.5 {
		return -ln(p)
	}
	return -ln(1 - p)
}

// GradientEpoch runs one Hogwild epoch of SGD updates and returns its
// virtual duration. Each sample reads its row and the replica, then writes
// the replica — on shared replicas the write traffic is what produces the
// cross-chiplet invalidation storm DimmWitted's per-machine strategy
// suffers from.
func (e *Engine) GradientEpoch() int64 {
	d := e.cfg.Features
	rowBytes := int64(d) * 8
	start := e.rt.Now()
	e.rt.ParallelFor(0, e.cfg.Samples, e.cfg.Grain, func(ctx *charm.Ctx, i0, i1 int) {
		m := e.replicaFor(ctx)
		ctx.Read(e.rowAddr(i0), int64(i1-i0)*rowBytes)
		ctx.Read(e.ay+charm.Addr(i0*8), int64(i1-i0)*8)
		for i := i0; i < i1; i++ {
			row := e.ds.x[i*d : (i+1)*d]
			ctx.Read(m.addr, int64(d)*8)
			g := sigmoid(m.dot(row)) - e.ds.y[i]
			for j, xj := range row {
				m.add(j, -learningRate*g*xj)
			}
			ctx.Write(m.addr, int64(d)*8)
			ctx.Compute(int64(d) * 4)
			// Per-sample scheduling point: lets concurrent workers
			// interleave their replica updates in virtual time.
			ctx.Yield()
		}
	})
	return e.rt.Now() - start
}

// averageReplicas merges per-core replicas (model averaging) and charges
// the all-reduce traffic.
func (e *Engine) averageReplicas() {
	if e.strategy != PerCore || len(e.replicas) == 1 {
		return
	}
	d := e.cfg.Features
	k := float64(len(e.replicas))
	e.rt.Run(func(ctx *charm.Ctx) {
		avg := make([]float64, d)
		for _, m := range e.replicas {
			ctx.Read(m.addr, int64(d)*8)
			for j := 0; j < d; j++ {
				avg[j] += m.get(j)
			}
		}
		for _, m := range e.replicas {
			for j := 0; j < d; j++ {
				m.w[j].Store(bits(avg[j] / k))
			}
			ctx.Write(m.addr, int64(d)*8)
		}
		ctx.Compute(int64(d) * int64(len(e.replicas)))
	})
}

// Run trains for the configured epochs, measuring loss and gradient phases
// separately as the paper's Fig. 11 does.
func Run(rt *charm.Runtime, cfg Config, s Strategy) Result {
	e := New(rt, cfg, s)
	res := Result{
		Epochs:        cfg.Epochs,
		BytesPerEpoch: int64(cfg.Samples) * int64(cfg.Features) * 8,
	}
	var lossNS, gradNS int64
	l0, t := e.Loss()
	res.InitialLoss = l0
	lossNS += t
	for ep := 0; ep < cfg.Epochs; ep++ {
		gradNS += e.GradientEpoch()
		e.averageReplicas()
		if ep < cfg.Epochs-1 {
			_, t := e.Loss()
			lossNS += t
		}
	}
	res.FinalLoss, t = e.Loss()
	lossNS += t
	// Normalize: the loss phase ran Epochs+1 times; scale to Epochs for a
	// per-epoch comparable figure.
	res.LossNS = lossNS * int64(cfg.Epochs) / int64(cfg.Epochs+1)
	res.GradNS = gradNS
	return res
}

func ln(x float64) float64 { return math.Log(x) }

func bits(f float64) uint64 { return math.Float64bits(f) }
