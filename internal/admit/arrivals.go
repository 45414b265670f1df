package admit

import (
	"math"

	"charm/internal/rng"
)

// ArrivalProcess yields successive virtual arrival times, monotonically
// non-decreasing. ok is false once the process is exhausted.
type ArrivalProcess interface {
	Next() (at int64, ok bool)
}

// Poisson is a seeded open-loop Poisson arrival process: inter-arrival
// gaps are exponential with the given mean, drawn from a SplitMix64
// stream, so the same seed replays the same arrival sequence exactly.
type Poisson struct {
	state uint64
	mean  float64
	t     float64
	left  int
}

// NewPoisson builds a process of n arrivals with mean inter-arrival gap
// meanGap virtual ns (minimum 1), starting at virtual time ~meanGap.
func NewPoisson(seed uint64, meanGap int64, n int) *Poisson {
	if meanGap < 1 {
		meanGap = 1
	}
	return &Poisson{state: rng.Seed(seed, 0x4a21), mean: float64(meanGap), left: n}
}

// Next returns the next arrival time.
func (p *Poisson) Next() (int64, bool) {
	if p.left <= 0 {
		return 0, false
	}
	p.left--
	// Inverse-CDF exponential draw; 1-u is in (0,1] so the log is finite.
	gap := -math.Log(1-rng.Float64(&p.state)) * p.mean
	if gap < 1 {
		gap = 1
	}
	p.t += gap
	return int64(p.t), true
}

// Diurnal is a Poisson process whose rate follows a sinusoidal wave — the
// day/night load cycle of a population-facing tenant. The instantaneous
// mean gap is meanGap / (1 + amp·sin(2πt/period)), so amp 0.5 swings the
// rate between 0.5x and 1.5x of nominal over one period.
type Diurnal struct {
	state  uint64
	mean   float64
	period float64
	amp    float64
	t      float64
	left   int
}

// NewDiurnal builds a diurnal process of n arrivals with nominal mean gap
// meanGap virtual ns, wave period periodNS, and amplitude amp clamped to
// [0, 0.95] (1.0 would stall the trough entirely).
func NewDiurnal(seed uint64, meanGap, periodNS int64, amp float64, n int) *Diurnal {
	if meanGap < 1 {
		meanGap = 1
	}
	if periodNS < 1 {
		periodNS = 1
	}
	if amp < 0 {
		amp = 0
	}
	if amp > 0.95 {
		amp = 0.95
	}
	return &Diurnal{state: rng.Seed(seed, 0x1d1), mean: float64(meanGap),
		period: float64(periodNS), amp: amp, left: n}
}

// Next returns the next arrival time.
func (d *Diurnal) Next() (int64, bool) {
	if d.left <= 0 {
		return 0, false
	}
	d.left--
	rate := 1 + d.amp*math.Sin(2*math.Pi*d.t/d.period)
	gap := -math.Log(1-rng.Float64(&d.state)) * d.mean / rate
	if gap < 1 {
		gap = 1
	}
	d.t += gap
	return int64(d.t), true
}

// FlashCrowd is a Poisson process with periodic burst windows during which
// the rate multiplies — the flash-crowd / thundering-herd tenant shape.
// Outside bursts arrivals flow at meanGap; inside a burst window the gap
// shrinks by the burst factor.
type FlashCrowd struct {
	state   uint64
	mean    float64
	period  float64
	burstNS float64
	factor  float64
	t       float64
	left    int
}

// NewFlashCrowd builds a process of n arrivals: nominal mean gap meanGap,
// a burst of burstNS every periodNS (starting at time periodNS/2), during
// which the arrival rate multiplies by factor (minimum 1).
func NewFlashCrowd(seed uint64, meanGap, periodNS, burstNS int64, factor float64, n int) *FlashCrowd {
	if meanGap < 1 {
		meanGap = 1
	}
	if periodNS < 1 {
		periodNS = 1
	}
	if burstNS < 0 {
		burstNS = 0
	}
	if burstNS > periodNS {
		burstNS = periodNS
	}
	if factor < 1 {
		factor = 1
	}
	return &FlashCrowd{state: rng.Seed(seed, 0xf1a5), mean: float64(meanGap),
		period: float64(periodNS), burstNS: float64(burstNS), factor: factor, left: n}
}

// Next returns the next arrival time.
func (f *FlashCrowd) Next() (int64, bool) {
	if f.left <= 0 {
		return 0, false
	}
	f.left--
	// Burst windows are centered mid-period so the first burst does not
	// coincide with the cold start.
	phase := math.Mod(f.t, f.period)
	mean := f.mean
	if phase >= f.period/2 && phase < f.period/2+f.burstNS {
		mean /= f.factor
	}
	gap := -math.Log(1-rng.Float64(&f.state)) * mean
	if gap < 1 {
		gap = 1
	}
	f.t += gap
	return int64(f.t), true
}

// Trace replays a fixed arrival-time sequence (a recorded trace).
type Trace struct {
	at []int64
	i  int
}

// NewTrace builds a trace process over the given (sorted, non-decreasing)
// arrival times. The slice is not copied.
func NewTrace(at []int64) *Trace { return &Trace{at: at} }

// Next returns the next arrival time.
func (t *Trace) Next() (int64, bool) {
	if t.i >= len(t.at) {
		return 0, false
	}
	v := t.at[t.i]
	t.i++
	return v, true
}
