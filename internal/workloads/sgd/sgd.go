// Package sgd implements the statistical-analytics workload of §5.5: a
// DimmWitted-style engine running stochastic gradient descent for logistic
// regression. The engine supports DimmWitted's native model-replication
// strategies (per-core, per-NUMA-node, per-machine) and integrates with any
// runtime system, reproducing the Fig. 11/12 comparison:
//
//	DW-per-core      — one model replica per worker, no sharing;
//	DW-NUMA-node     — one replica per NUMA node, intra-node sharing;
//	DW-per-machine   — a single shared model, global write sharing;
//
// Model updates are Hogwild-style: host-side correctness uses atomic
// float adds, while the simulated cost comes from the Write traffic on the
// shared replica (coherence ping-pong across chiplets).
package sgd

import (
	"math"
	"sync/atomic"

	"charm"
	"charm/internal/rng"
)

// Strategy selects DimmWitted's model-replication scheme.
type Strategy uint8

const (
	// PerCore gives each worker a private replica, averaged per epoch.
	PerCore Strategy = iota
	// PerNode shares one replica per NUMA node.
	PerNode
	// PerMachine shares a single global replica.
	PerMachine
)

// String returns the strategy name as used in the paper's figures.
func (s Strategy) String() string {
	switch s {
	case PerCore:
		return "DW-per-core"
	case PerNode:
		return "DW-NUMA-node"
	case PerMachine:
		return "DW-per-machine"
	default:
		return "DW-unknown"
	}
}

// Config parameterizes a run.
type Config struct {
	Samples  int
	Features int
	Epochs   int
	// Grain is samples per task (0 selects 64; the paper's DimmWitted
	// partitions work into hundreds of fine-grained chunks).
	Grain int
	Seed  uint64
}

// learningRate scales the gradient updates.
const learningRate = 0.05

// Result reports one run.
type Result struct {
	// LossNS and GradNS are the virtual times of the loss-evaluation and
	// gradient phases summed over epochs.
	LossNS, GradNS int64
	// BytesPerEpoch is the dataset volume one epoch streams.
	BytesPerEpoch int64
	Epochs        int
	// FinalLoss is the mean logistic loss after training.
	FinalLoss float64
	// InitialLoss is the loss before training.
	InitialLoss float64
}

// LossGBps returns the loss-phase throughput in GB of application data per
// virtual second — the Fig. 11a metric.
func (r Result) LossGBps() float64 {
	if r.LossNS <= 0 {
		return 0
	}
	return float64(r.BytesPerEpoch*int64(r.Epochs)) / float64(r.LossNS)
}

// GradGBps returns the gradient-phase throughput (Fig. 11b).
func (r Result) GradGBps() float64 {
	if r.GradNS <= 0 {
		return 0
	}
	return float64(r.BytesPerEpoch*int64(r.Epochs)) / float64(r.GradNS)
}

// dataset is a synthetic logistic-regression problem with a known
// generating model, so training measurably reduces loss.
type dataset struct {
	x    []float64 // samples x features, row-major
	y    []float64 // labels in {0,1}
	n, d int
}

func genDataset(cfg Config) *dataset {
	ds := &dataset{n: cfg.Samples, d: cfg.Features}
	ds.x = make([]float64, ds.n*ds.d)
	ds.y = make([]float64, ds.n)
	state := cfg.Seed*0x9E3779B97F4A7C15 + 0xABCDEF
	truth := make([]float64, ds.d)
	for j := range truth {
		truth[j] = rng.Signed(&state) * 2
	}
	for i := 0; i < ds.n; i++ {
		var dot float64
		row := ds.x[i*ds.d : (i+1)*ds.d]
		for j := range row {
			row[j] = rng.Signed(&state)
			dot += row[j] * truth[j]
		}
		if sigmoid(dot) > rng.Float64(&state) {
			ds.y[i] = 1
		}
	}
	return ds
}

func sigmoid(z float64) float64 { return 1 / (1 + math.Exp(-z)) }

// model is one replica with an atomic float representation for Hogwild
// updates plus its simulated address.
type model struct {
	w    []atomic.Uint64 // float64 bit patterns
	addr charm.Addr
}

func newModel(rt *charm.Runtime, d int, node charm.NodeID) *model {
	m := &model{w: make([]atomic.Uint64, d)}
	m.addr = rt.AllocOn(int64(d)*8, node)
	return m
}

func (m *model) get(j int) float64 { return math.Float64frombits(m.w[j].Load()) }

func (m *model) add(j int, delta float64) {
	for {
		old := m.w[j].Load()
		nv := math.Float64bits(math.Float64frombits(old) + delta)
		if m.w[j].CompareAndSwap(old, nv) {
			return
		}
	}
}

func (m *model) dot(row []float64) float64 {
	var s float64
	for j, v := range row {
		s += v * m.get(j)
	}
	return s
}
