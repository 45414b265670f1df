package admit

import "charm/internal/obs"

// estBounds is the service-time bucket ladder: 1µs to ~2s virtual, ×2 per
// bucket. Wide enough for every workload the harness drives; estimates
// interpolate within buckets.
var estBounds = func() []int64 {
	var b []int64
	for v := int64(1_000); v <= 2_000_000_000; v *= 2 {
		b = append(b, v)
	}
	return b
}()

// estMinSamples is how many completions an estimator needs before it
// trusts its own median over the caller's hint.
const estMinSamples = 16

// Estimator predicts a job's service time as the median of the completed
// service times, bucketed on estBounds (the last bucket is +Inf). It is not
// synchronised: the job service calls it under its own lock.
type Estimator struct {
	counts []int64
	sum    int64
	count  int64
}

// NewEstimator builds an empty estimator.
func NewEstimator() *Estimator {
	return &Estimator{counts: make([]int64, len(estBounds)+1)}
}

// Observe records one completed job's service time (virtual ns).
func (e *Estimator) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	i := 0
	for i < len(estBounds) && v > estBounds[i] {
		i++
	}
	e.counts[i]++
	e.sum += v
	e.count++
}

// Count returns how many observations have been recorded.
func (e *Estimator) Count() int64 { return e.count }

// Estimate returns the current service-time estimate, falling back to the
// caller's hint (the job spec's declared cost) until estMinSamples have
// accumulated or when the median degenerates to zero.
func (e *Estimator) Estimate(hint int64) int64 {
	if e.count < estMinSamples {
		return hint
	}
	hd := obs.HistData{Bounds: estBounds, Counts: e.counts, Sum: e.sum, Count: e.count}
	if est := hd.Quantile(0.5); est > 0 {
		return est
	}
	return hint
}
