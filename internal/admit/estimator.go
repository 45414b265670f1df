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

// Estimator predicts a job's service time from the distribution of
// completed service times, as the q-quantile of an obs histogram. It keeps
// its own always-enabled registry so admission estimates keep working when
// the runtime's user-facing metrics are switched off. Observe may run beside
// anything; Estimate and Count share a merge scratch, so their callers must
// be serialised (the job service calls them under its mutex).
type Estimator struct {
	h       *obs.Histogram
	q       float64
	min     int64
	scratch []int64 // merged bucket counts, reused across calls
}

// NewEstimator builds an estimator reporting the q-quantile (clamped to
// [0,1]; 0 selects the default 0.5) once minSamples observations have
// accumulated (minimum 1).
func NewEstimator(q float64, minSamples int64) *Estimator {
	if q <= 0 {
		q = 0.5
	}
	if q > 1 {
		q = 1
	}
	if minSamples < 1 {
		minSamples = 1
	}
	reg := obs.NewRegistry(1)
	reg.SetEnabled(true)
	h := reg.Histogram("admit_service_time_ns", "completed job service times", nil, estBounds)
	return &Estimator{h: h, q: q, min: minSamples}
}

// Observe records one completed job's service time (virtual ns).
func (e *Estimator) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	e.h.Observe(0, v)
}

// Count returns how many observations have been recorded.
func (e *Estimator) Count() int64 {
	var n int64
	e.scratch, _, n = e.h.MergedInto(e.scratch)
	return n
}

// Estimate returns the current service-time estimate, falling back to the
// caller's hint (the job spec's declared cost) until enough samples have
// accumulated or when the quantile degenerates to zero.
func (e *Estimator) Estimate(hint int64) int64 {
	counts, sum, count := e.h.MergedInto(e.scratch)
	e.scratch = counts
	if count < e.min {
		return hint
	}
	hd := obs.HistData{Bounds: estBounds, Counts: counts, Sum: sum, Count: count}
	if est := hd.Quantile(e.q); est > 0 {
		return est
	}
	return hint
}
